package popmachine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/target"
)

var _ explore.System[*popmachine.Config] = popmachine.System{}

// cloneSuccessors is the clone-based step relation of Definition 13 that
// Machine.Successors ran before it decoded AppendSuccessorKeys: every
// successor built on its own clone. It is the oracle of the in-place codec.
func cloneSuccessors(m *popmachine.Machine, c *popmachine.Config) []*popmachine.Config {
	ip := c.Pointers[m.IP]
	in := m.Instrs[ip-1]
	switch it := in.(type) {
	case popmachine.MoveInstr:
		if ip+1 > len(m.Instrs) || !m.Pointers[m.IP].HasValue(ip+1) {
			return nil // IP would leave its domain: hang
		}
		src := c.Pointers[m.VReg[it.X]]
		dst := c.Pointers[m.VReg[it.Y]]
		if c.Regs.Count(src) == 0 {
			return nil // hang
		}
		next := c.Clone()
		next.Regs.Move(src, dst)
		next.Pointers[m.IP] = ip + 1
		return []*popmachine.Config{next}
	case popmachine.DetectInstr:
		if ip+1 > len(m.Instrs) || !m.Pointers[m.IP].HasValue(ip+1) {
			return nil
		}
		reg := c.Pointers[m.VReg[it.X]]
		falseCase := c.Clone()
		falseCase.Pointers[m.IP] = ip + 1
		falseCase.Pointers[m.CF] = popmachine.ValFalse
		out := []*popmachine.Config{falseCase}
		if c.Regs.Count(reg) > 0 {
			trueCase := c.Clone()
			trueCase.Pointers[m.IP] = ip + 1
			trueCase.Pointers[m.CF] = popmachine.ValTrue
			out = append(out, trueCase)
		}
		return out
	case popmachine.AssignInstr:
		v := it.F[c.Pointers[it.Y]]
		next := c.Clone()
		if it.X == m.IP {
			next.Pointers[m.IP] = v
			return []*popmachine.Config{next}
		}
		if ip+1 > len(m.Instrs) || !m.Pointers[m.IP].HasValue(ip+1) {
			return nil
		}
		next.Pointers[it.X] = v
		next.Pointers[m.IP] = ip + 1
		return []*popmachine.Config{next}
	default:
		panic(fmt.Sprintf("popmachine: unknown instruction %T", in))
	}
}

func sameConfig(a, b *popmachine.Config) bool {
	return slices.Equal(a.Pointers, b.Pointers) && a.Regs.Equal(b.Regs) && a.Regs.Size() == b.Regs.Size()
}

// checkMachineCodec asserts the codec contract at c and returns the
// oracle's successors:
//   - c's AppendKey decodes back to c, both into a fresh configuration and
//     into a reused one holding another state;
//   - AppendSuccessorKeys appends exactly the AppendKey bytes of the
//     oracle's successors, in order, after whatever dst and ends held;
//   - c is restored afterwards, and Successors decodes the same
//     configurations.
func checkMachineCodec(tb testing.TB, m *popmachine.Machine, c *popmachine.Config, label string) []*popmachine.Config {
	tb.Helper()
	key := c.AppendKey(nil)
	dec, err := m.DecodeKey(nil, key)
	if err != nil || !sameConfig(dec, c) {
		tb.Fatalf("%s: key %x decodes to %v (err %v), want %s", label, key, dec, err, c.Key())
	}
	junk := c.Clone()
	junk.Regs.Add(0, 3)
	for i := range junk.Pointers {
		junk.Pointers[i] += 7
	}
	if again, err := m.DecodeKey(junk, key); err != nil || again != junk || !sameConfig(again, c) {
		tb.Fatalf("%s: decoding into a reused configuration gave %v (err %v)", label, again, err)
	}

	want := cloneSuccessors(m, c)
	before := c.Clone()
	prefix := []byte("prefix")
	keys, ends := m.AppendSuccessorKeys(c, prefix, []int{-1})
	if !sameConfig(c, before) {
		tb.Fatalf("%s: AppendSuccessorKeys left %s, want %s", label, c.Key(), before.Key())
	}
	if !bytes.Equal(keys[:len(prefix)], prefix) || ends[0] != -1 {
		tb.Fatalf("%s: AppendSuccessorKeys overwrote what dst or ends held", label)
	}
	if len(ends)-1 != len(want) {
		tb.Fatalf("%s: %d successor keys, the oracle has %d successors", label, len(ends)-1, len(want))
	}
	start := len(prefix)
	for i, end := range ends[1:] {
		if w := want[i].AppendKey(nil); !bytes.Equal(keys[start:end], w) {
			tb.Fatalf("%s: successor key %d is %x, the oracle's is %x", label, i, keys[start:end], w)
		}
		start = end
	}
	got := m.Successors(c)
	if !sameConfig(c, before) || len(got) != len(want) {
		tb.Fatalf("%s: Successors returned %d configurations for %d (c restored: %v)",
			label, len(got), len(want), sameConfig(c, before))
	}
	for i := range got {
		if !sameConfig(got[i], want[i]) {
			tb.Fatalf("%s: Successors[%d] = %s, the oracle's is %s", label, i, got[i].Key(), want[i].Key())
		}
	}
	return want
}

// compiledMachine compiles a program target.
func compiledMachine(tb testing.TB, name string) *popmachine.Machine {
	tb.Helper()
	tg, err := target.ParseKind(name, target.Programs)
	if err != nil {
		tb.Fatal(err)
	}
	built, err := tg.Build()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := compile.Compile(built.Program)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// hangVariant returns a copy of c that hangs on its instruction, or nil: a
// move whose source register is emptied. The copy need not be reachable;
// the codec must handle it anyway.
func hangVariant(m *popmachine.Machine, c *popmachine.Config) *popmachine.Config {
	mv, ok := m.Instrs[c.Pointers[m.IP]-1].(popmachine.MoveInstr)
	if !ok {
		return nil
	}
	src := c.Pointers[m.VReg[mv.X]]
	if c.Regs.Count(src) == 0 {
		return nil // already a hang
	}
	h := c.Clone()
	h.Regs.Set(src, 0)
	return h
}

// TestMachineSuccessorKeysMatchOracle pins the machine codec against the
// clone-based step relation on every configuration reachable from every
// register placement of a few agents in the compiled figure1, czerner:1 and
// equality:1 machines, and on a hang variant of each move configuration.
func TestMachineSuccessorKeysMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		target   string
		maxTotal int64
	}{{"figure1", 5}, {"czerner:1", 3}, {"equality:1", 3}} {
		t.Run(tc.target, func(t *testing.T) {
			m := compiledMachine(t, tc.target)
			seen := make(map[string]bool)
			var queue []*popmachine.Config
			for total := int64(1); total <= tc.maxTotal; total++ {
				multiset.Enumerate(len(m.Registers), total, func(regs *multiset.Multiset) {
					c, err := m.InitialConfig(regs)
					if err != nil {
						t.Fatal(err)
					}
					seen[c.Key()] = true
					queue = append(queue, c)
				})
			}
			var detects, hangs int
			for len(queue) > 0 {
				c := queue[0]
				queue = queue[1:]
				succ := checkMachineCodec(t, m, c, c.Key())
				if len(succ) == 2 {
					detects++
				}
				if h := hangVariant(m, c); h != nil {
					if len(checkMachineCodec(t, m, h, "hang "+h.Key())) != 0 {
						t.Fatalf("hang variant %s has successors", h.Key())
					}
					hangs++
				}
				for _, s := range succ {
					if k := s.Key(); !seen[k] {
						seen[k] = true
						queue = append(queue, s)
					}
				}
			}
			if detects == 0 || hangs == 0 {
				t.Fatalf("%d states checked, %d with two detect successors and %d hangs: want both kinds",
					len(seen), detects, hangs)
			}
		})
	}
}

// fuzzOracle resolves detects from the fuzz input's bits.
type fuzzOracle struct {
	bits []byte
	i    int
}

func (o *fuzzOracle) Detect(_ int, nonzero bool) bool {
	if len(o.bits) == 0 {
		return nonzero
	}
	b := o.bits[(o.i/8)%len(o.bits)]>>(o.i%8)&1 == 1
	o.i++
	return nonzero && b
}

// FuzzMachineSuccessorKeys drives a compiled machine (figure1, czerner:1 or
// equality:1, by the first byte) from a register placement read from the
// input through as many interpreted steps as the second byte says, the
// detects resolved by the input's bits, and checks the codec contract at
// every configuration on the way and at a hang variant of the last one.
// The raw input is also decoded as a key: it must be rejected or re-encode
// to exactly the same bytes.
func FuzzMachineSuccessorKeys(f *testing.F) {
	machines := []*popmachine.Machine{
		compiledMachine(f, "figure1"), compiledMachine(f, "czerner:1"), compiledMachine(f, "equality:1"),
	}
	f.Add([]byte{0, 40, 5, 0, 0, 0xaa})
	f.Add([]byte{1, 200, 3, 1, 2, 0x0f, 0xf0})
	f.Add([]byte{2, 255, 9, 9, 9, 9, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := machines[int(data[0])%len(machines)]
		if c, err := m.DecodeKey(nil, data); err == nil {
			if again := c.AppendKey(nil); !bytes.Equal(again, data) {
				t.Fatalf("accepted key %x re-encodes to %x", data, again)
			}
		}
		steps, body := int(data[1]), data[2:]
		regs := multiset.New(len(m.Registers))
		for i, b := range body {
			if i >= len(m.Registers) {
				break
			}
			regs.Set(i, int64(b%4))
		}
		c, err := m.InitialConfig(regs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &fuzzOracle{bits: body}
		for step := 0; step <= steps; step++ {
			label := fmt.Sprintf("step %d", step)
			checkMachineCodec(t, m, c, label)
			if h := hangVariant(m, c); h != nil {
				checkMachineCodec(t, m, h, "hang at "+label)
			}
			if m.Step(c, oracle) == popmachine.StepHang {
				break
			}
		}
	})
}
