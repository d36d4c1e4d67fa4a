package popmachine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/multiset"
)

// Config is a population machine configuration: register values plus a
// value for every pointer (Definition 13).
type Config struct {
	Regs     *multiset.Multiset
	Pointers []int
}

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	return &Config{
		Regs:     c.Regs.Clone(),
		Pointers: append([]int(nil), c.Pointers...),
	}
}

// Key returns a unique string for the configuration (for model checking).
func (c *Config) Key() string {
	return string(c.AppendKey(make([]byte, 0, len(c.Pointers)*2+c.Regs.Len()*3)))
}

// AppendKey appends a compact binary key encoding of the configuration to
// dst and returns the extended slice: every pointer value as a uvarint
// followed by the register multiset's key. For a fixed machine (fixed
// pointer count and register universe) the encoding is injective, since each
// uvarint is self-delimiting. It is the allocation-free interning path of
// the exact model checker.
func (c *Config) AppendKey(dst []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range c.Pointers {
		n := binary.PutUvarint(tmp[:], uint64(v))
		dst = append(dst, tmp[:n]...)
	}
	return c.Regs.AppendKey(dst)
}

// InitialConfig returns the configuration with all pointers at their
// initial values (IP = 1, V_x = x, per Definition 13) and the given
// register contents (copied).
func (m *Machine) InitialConfig(regs *multiset.Multiset) (*Config, error) {
	if regs.Len() != len(m.Registers) {
		return nil, fmt.Errorf("popmachine %q: got %d register values, want %d",
			m.Name, regs.Len(), len(m.Registers))
	}
	ptrs := make([]int, len(m.Pointers))
	for i, p := range m.Pointers {
		ptrs[i] = p.Initial
	}
	return &Config{Regs: regs.Clone(), Pointers: ptrs}, nil
}

// Output returns the configuration's output C(OF).
func (m *Machine) Output(c *Config) bool { return c.Pointers[m.OF] == ValTrue }

// DecodeKey rebuilds the configuration whose AppendKey bytes are key: one
// uvarint per pointer, then the register multiset's dense key. prev, when
// non-nil, is overwritten and returned, so decoding state after state
// allocates nothing. It rejects every byte string AppendKey cannot produce
// for this machine; on error prev is left in an unspecified state.
func (m *Machine) DecodeKey(prev *Config, key []byte) (*Config, error) {
	if prev == nil {
		prev = &Config{Regs: multiset.New(len(m.Registers)), Pointers: make([]int, len(m.Pointers))}
	}
	for i := range prev.Pointers {
		v, w := binary.Uvarint(key)
		if w <= 0 || (w > 1 && key[w-1] == 0) {
			return nil, fmt.Errorf("popmachine %q: malformed key at pointer %d", m.Name, i)
		}
		prev.Pointers[i] = int(v)
		key = key[w:]
	}
	if err := prev.Regs.SetFromKey(key); err != nil {
		return nil, fmt.Errorf("popmachine %q: %w", m.Name, err)
	}
	return prev, nil
}

// Successors returns every configuration reachable in one step per
// Definition 13, decoded from AppendSuccessorKeys. A hung configuration
// (move from an empty register, or IP stepping past L) has no successors
// other than itself; Successors returns an empty slice in that case, and
// callers treat it as a self-loop. c is not modified.
func (m *Machine) Successors(c *Config) []*Config {
	// A configuration has at most two successors (a detect's), so their keys
	// fit on the stack unless the machine is large.
	var keyBuf [128]byte
	var endBuf [2]int
	keys, ends := m.AppendSuccessorKeys(c.Clone(), keyBuf[:0], endBuf[:0])
	out := make([]*Config, len(ends))
	start := 0
	for i, end := range ends {
		next, err := m.DecodeKey(nil, keys[start:end])
		if err != nil {
			panic(fmt.Sprintf("popmachine: successor key does not decode: %v", err))
		}
		out[i], start = next, end
	}
	return out
}

// AppendSuccessorKeys appends to dst the AppendKey bytes of every successor
// of c under Definition 13, and to ends the end offset in dst of each key;
// the first key starts at len(dst) on entry. A move or an assignment has one
// successor, a detect two (CF = false first, then CF = true if the register
// is nonzero), a hang none. Each successor is applied to c in place, encoded
// and undone, so it costs one key encoding and no allocation; c is restored
// before the call returns, but must not be read concurrently while it runs.
// This is the machine's one copy of the step relation: Successors decodes
// its keys.
func (m *Machine) AppendSuccessorKeys(c *Config, dst []byte, ends []int) ([]byte, []int) {
	ip := c.Pointers[m.IP]
	switch it := m.Instrs[ip-1].(type) {
	case MoveInstr:
		src := c.Pointers[m.VReg[it.X]]
		tgt := c.Pointers[m.VReg[it.Y]]
		if !advanceable(m, ip) || c.Regs.Count(src) == 0 {
			return dst, ends // hang
		}
		c.Regs.Move(src, tgt)
		c.Pointers[m.IP] = ip + 1
		dst = c.AppendKey(dst)
		ends = append(ends, len(dst))
		c.Pointers[m.IP] = ip
		c.Regs.Move(tgt, src)
	case DetectInstr:
		if !advanceable(m, ip) {
			return dst, ends
		}
		nonzero := c.Regs.Count(c.Pointers[m.VReg[it.X]]) > 0
		cf := c.Pointers[m.CF]
		c.Pointers[m.IP] = ip + 1
		c.Pointers[m.CF] = ValFalse
		dst = c.AppendKey(dst)
		ends = append(ends, len(dst))
		if nonzero {
			c.Pointers[m.CF] = ValTrue
			dst = c.AppendKey(dst)
			ends = append(ends, len(dst))
		}
		c.Pointers[m.CF] = cf
		c.Pointers[m.IP] = ip
	case AssignInstr:
		v := it.F[c.Pointers[it.Y]]
		if it.X == m.IP {
			c.Pointers[m.IP] = v
			dst = c.AppendKey(dst)
			ends = append(ends, len(dst))
			c.Pointers[m.IP] = ip
			return dst, ends
		}
		if !advanceable(m, ip) {
			return dst, ends
		}
		x := c.Pointers[it.X]
		c.Pointers[it.X] = v
		c.Pointers[m.IP] = ip + 1
		dst = c.AppendKey(dst)
		ends = append(ends, len(dst))
		c.Pointers[m.IP] = ip
		c.Pointers[it.X] = x
	default:
		panic(fmt.Sprintf("popmachine: unknown instruction %T", it))
	}
	return dst, ends
}

// DetectOracle resolves the nondeterminism of detect instructions during
// interpretation. popprog.RandomOracle satisfies this interface.
type DetectOracle interface {
	Detect(reg int, nonzero bool) bool
}

// StepStatus reports the result of one interpreted step.
type StepStatus int

// Step statuses.
const (
	// StepOK: the configuration advanced.
	StepOK StepStatus = iota + 1
	// StepHang: no successor exists; the machine loops on this
	// configuration forever.
	StepHang
)

// Step executes one instruction in place, using the oracle to resolve
// detect outcomes.
func (m *Machine) Step(c *Config, oracle DetectOracle) StepStatus {
	ip := c.Pointers[m.IP]
	in := m.Instrs[ip-1]
	switch it := in.(type) {
	case MoveInstr:
		src := c.Pointers[m.VReg[it.X]]
		dst := c.Pointers[m.VReg[it.Y]]
		if c.Regs.Count(src) == 0 || !advanceable(m, ip) {
			return StepHang
		}
		c.Regs.Move(src, dst)
		c.Pointers[m.IP] = ip + 1
		return StepOK
	case DetectInstr:
		reg := c.Pointers[m.VReg[it.X]]
		if !advanceable(m, ip) {
			return StepHang
		}
		nonzero := c.Regs.Count(reg) > 0
		if oracle.Detect(reg, nonzero) {
			c.Pointers[m.CF] = ValTrue
		} else {
			c.Pointers[m.CF] = ValFalse
		}
		c.Pointers[m.IP] = ip + 1
		return StepOK
	case AssignInstr:
		v := it.F[c.Pointers[it.Y]]
		if it.X == m.IP {
			c.Pointers[m.IP] = v
			return StepOK
		}
		if !advanceable(m, ip) {
			return StepHang
		}
		c.Pointers[it.X] = v
		c.Pointers[m.IP] = ip + 1
		return StepOK
	default:
		panic(fmt.Sprintf("popmachine: unknown instruction %T", in))
	}
}

func advanceable(m *Machine, ip int) bool {
	return ip+1 <= len(m.Instrs) && m.Pointers[m.IP].HasValue(ip+1)
}

// RunResult summarises a bounded interpreted run.
type RunResult struct {
	// Steps executed.
	Steps int64
	// Hung reports whether the machine reached a configuration with no
	// successor (its output is then frozen).
	Hung bool
	// Output is C(OF) at the end of the run.
	Output bool
	// QuietSteps is the number of steps since OF last changed.
	QuietSteps int64
}

// Run interprets the machine from config c (mutated in place) for at most
// budget steps.
func (m *Machine) Run(c *Config, oracle DetectOracle, budget int64) *RunResult {
	res := &RunResult{}
	lastOF := c.Pointers[m.OF]
	var lastChange int64
	for res.Steps < budget {
		if m.Step(c, oracle) == StepHang {
			res.Hung = true
			break
		}
		res.Steps++
		if of := c.Pointers[m.OF]; of != lastOF {
			lastOF = of
			lastChange = res.Steps
		}
	}
	res.Output = lastOF == ValTrue
	res.QuietSteps = res.Steps - lastChange
	return res
}
