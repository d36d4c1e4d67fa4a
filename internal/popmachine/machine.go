// Package popmachine implements population machines, the assembly-like
// intermediate model of §7.1 / Appendix B.1 of the paper.
//
// A population machine 𝒜 = (Q, F, ℱ, ℐ) has registers Q (unbounded,
// values in ℕ), pointers F each ranging over a finite domain ℱ_X, and a
// sequence of instructions ℐ. Three pointers are special: the output flag
// OF, the condition flag CF, and the instruction pointer IP. Each register
// x additionally has a register-map pointer V_x (plus a scratch pointer
// V_□) through which move and detect instructions indirect — this is how
// swap compiles without copying register contents.
//
// There are exactly three instruction kinds: (x ↦ y), (detect x > 0), and
// the pointer assignment (X := f(Y)) for a function f: ℱ_Y → ℱ_X, which
// doubles as the universal control-flow instruction when X = IP.
package popmachine

import (
	"fmt"
	"slices"
)

// Boolean domain values for OF and CF.
const (
	ValFalse = 0
	ValTrue  = 1
)

// Pointer is a machine pointer with a finite domain. Domain values are
// plain ints whose meaning depends on the pointer: booleans for OF/CF,
// instruction indices (1-based) for IP and procedure-return pointers,
// register indices for the register map.
type Pointer struct {
	Name    string
	Domain  []int
	Initial int
}

// HasValue reports whether v belongs to the pointer's domain.
func (p *Pointer) HasValue(v int) bool {
	for _, d := range p.Domain {
		if d == v {
			return true
		}
	}
	return false
}

// Instr is a population machine instruction.
type Instr interface {
	instr()
	String(m *Machine) string
}

// MoveInstr is (x ↦ y): one unit moves from the register pointed to by V_x
// to the register pointed to by V_y. X and Y are register indices.
type MoveInstr struct{ X, Y int }

// DetectInstr is (detect x > 0): CF is set nondeterministically to false or
// to the truth of "register pointed to by V_x is nonzero".
type DetectInstr struct{ X int }

// AssignInstr is (X := f(Y)): pointer X receives f applied to pointer Y's
// value. F must be total on the domain of Y with values in the domain of X.
// Control flow is the special case X = IP.
type AssignInstr struct {
	X, Y int
	F    map[int]int
	// Comment annotates the assignment for listings (e.g. "call Zero").
	Comment string
}

func (MoveInstr) instr()   {}
func (DetectInstr) instr() {}
func (AssignInstr) instr() {}

// String implements Instr.
func (i MoveInstr) String(m *Machine) string {
	return fmt.Sprintf("%s ↦ %s", m.Registers[i.X], m.Registers[i.Y])
}

// String implements Instr.
func (i DetectInstr) String(m *Machine) string {
	return fmt.Sprintf("detect %s > 0", m.Registers[i.X])
}

// String implements Instr.
func (i AssignInstr) String(m *Machine) string {
	s := fmt.Sprintf("%s := f(%s)", m.Pointers[i.X].Name, m.Pointers[i.Y].Name)
	if i.Comment != "" {
		s += " # " + i.Comment
	}
	return s
}

// Machine is a population machine.
type Machine struct {
	Name      string
	Registers []string
	Pointers  []*Pointer
	Instrs    []Instr

	// Special pointer indices.
	OF, CF, IP int
	// VReg[r] is the register-map pointer for register r; VBox is V_□.
	VReg []int
	VBox int
}

// NumInstrs returns L.
func (m *Machine) NumInstrs() int { return len(m.Instrs) }

// Clone returns a deep copy of the machine: pointers, domains and
// assignment function tables are all fresh, so transforming passes (the
// shrink pipeline in internal/compile) can rewrite the copy without
// aliasing the original.
func (m *Machine) Clone() *Machine {
	out := &Machine{
		Name:      m.Name,
		Registers: append([]string(nil), m.Registers...),
		Pointers:  make([]*Pointer, len(m.Pointers)),
		Instrs:    make([]Instr, len(m.Instrs)),
		OF:        m.OF, CF: m.CF, IP: m.IP,
		VReg: append([]int(nil), m.VReg...),
		VBox: m.VBox,
	}
	for i, p := range m.Pointers {
		out.Pointers[i] = &Pointer{
			Name:    p.Name,
			Domain:  append([]int(nil), p.Domain...),
			Initial: p.Initial,
		}
	}
	for i, in := range m.Instrs {
		if a, ok := in.(AssignInstr); ok {
			f := make(map[int]int, len(a.F))
			for k, v := range a.F {
				f[k] = v
			}
			a.F = f
			out.Instrs[i] = a
		} else {
			out.Instrs[i] = in
		}
	}
	return out
}

// Size returns |Q| + |F| + Σ_X |ℱ_X| + |ℐ| (Definition 6).
func (m *Machine) Size() int {
	total := len(m.Registers) + len(m.Pointers) + len(m.Instrs)
	for _, p := range m.Pointers {
		total += len(p.Domain)
	}
	return total
}

// PointerIndex returns the index of the named pointer, or -1.
func (m *Machine) PointerIndex(name string) int {
	for i, p := range m.Pointers {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// domainIndex holds every pointer's domain sorted, so a membership test is
// a binary search instead of HasValue's scan. Validate builds one per call.
type domainIndex struct {
	vals []int // the domains, concatenated in pointer order, each sorted
	off  []int // pointer i's domain is vals[off[i]:off[i+1]]
}

func newDomainIndex(ptrs []*Pointer) domainIndex {
	d := domainIndex{off: make([]int, len(ptrs)+1)}
	for i, p := range ptrs {
		d.off[i+1] = d.off[i] + len(p.Domain)
	}
	d.vals = make([]int, 0, d.off[len(ptrs)])
	for i, p := range ptrs {
		d.vals = append(d.vals, p.Domain...)
		slices.Sort(d.vals[d.off[i]:])
	}
	return d
}

// has reports whether v belongs to pointer i's domain.
func (d domainIndex) has(i, v int) bool {
	_, ok := slices.BinarySearch(d.vals[d.off[i]:d.off[i+1]], v)
	return ok
}

// Validate checks the structural requirements of Definition 6 plus initial
// values: OF/CF are boolean, IP ranges over 1..L, V_x domains contain x and
// only registers, assignments are total functions into the target domain,
// and every initial value lies in its pointer's domain. Membership tests go
// through a sorted index of the domains, so checking an assignment
// X := f(Y) costs O(|ℱ_Y|·log |ℱ_X|).
func (m *Machine) Validate() error {
	if len(m.Registers) == 0 {
		return fmt.Errorf("popmachine %q: no registers", m.Name)
	}
	if len(m.Instrs) == 0 {
		return fmt.Errorf("popmachine %q: no instructions", m.Name)
	}
	inRange := func(i int) bool { return i >= 0 && i < len(m.Pointers) }
	ptrErr := func(i int, what string) error {
		return fmt.Errorf("popmachine %q: %s pointer index %d out of range", m.Name, what, i)
	}
	for _, spec := range []struct {
		idx  int
		what string
	}{{m.OF, "OF"}, {m.CF, "CF"}, {m.IP, "IP"}, {m.VBox, "V_□"}} {
		if !inRange(spec.idx) {
			return ptrErr(spec.idx, spec.what)
		}
	}
	dom := newDomainIndex(m.Pointers)
	for i, p := range m.Pointers {
		if len(p.Domain) == 0 {
			return fmt.Errorf("popmachine %q: pointer %q has empty domain", m.Name, p.Name)
		}
		if !dom.has(i, p.Initial) {
			return fmt.Errorf("popmachine %q: pointer %q initial value %d outside domain",
				m.Name, p.Name, p.Initial)
		}
	}
	for _, b := range []int{m.OF, m.CF} {
		p := m.Pointers[b]
		if len(p.Domain) != 2 || !dom.has(b, ValFalse) || !dom.has(b, ValTrue) {
			return fmt.Errorf("popmachine %q: pointer %q must have boolean domain", m.Name, p.Name)
		}
	}
	ip := m.Pointers[m.IP]
	for _, v := range ip.Domain {
		if v < 1 || v > len(m.Instrs) {
			return fmt.Errorf("popmachine %q: IP domain value %d outside 1..%d",
				m.Name, v, len(m.Instrs))
		}
	}
	if ip.Initial != 1 {
		return fmt.Errorf("popmachine %q: IP must start at 1, got %d", m.Name, ip.Initial)
	}
	if len(m.VReg) != len(m.Registers) {
		return fmt.Errorf("popmachine %q: VReg has %d entries for %d registers",
			m.Name, len(m.VReg), len(m.Registers))
	}
	for r, pi := range m.VReg {
		if !inRange(pi) {
			return ptrErr(pi, "V_"+m.Registers[r])
		}
		p := m.Pointers[pi]
		if !dom.has(pi, r) {
			return fmt.Errorf("popmachine %q: V_%s domain must contain %s",
				m.Name, m.Registers[r], m.Registers[r])
		}
		for _, v := range p.Domain {
			if v < 0 || v >= len(m.Registers) {
				return fmt.Errorf("popmachine %q: V_%s domain value %d is not a register",
					m.Name, m.Registers[r], v)
			}
		}
		if p.Initial != r {
			return fmt.Errorf("popmachine %q: V_%s must initially point at %s",
				m.Name, m.Registers[r], m.Registers[r])
		}
	}
	for idx, in := range m.Instrs {
		switch it := in.(type) {
		case MoveInstr:
			if it.X < 0 || it.X >= len(m.Registers) || it.Y < 0 || it.Y >= len(m.Registers) {
				return fmt.Errorf("popmachine %q: instr %d: register out of range", m.Name, idx+1)
			}
			if it.X == it.Y {
				return fmt.Errorf("popmachine %q: instr %d: move with x = y", m.Name, idx+1)
			}
		case DetectInstr:
			if it.X < 0 || it.X >= len(m.Registers) {
				return fmt.Errorf("popmachine %q: instr %d: register out of range", m.Name, idx+1)
			}
		case AssignInstr:
			if !inRange(it.X) {
				return ptrErr(it.X, fmt.Sprintf("instr %d target", idx+1))
			}
			if !inRange(it.Y) {
				return ptrErr(it.Y, fmt.Sprintf("instr %d source", idx+1))
			}
			src, dst := m.Pointers[it.Y], m.Pointers[it.X]
			for _, v := range src.Domain {
				w, ok := it.F[v]
				if !ok {
					return fmt.Errorf("popmachine %q: instr %d: f undefined on %d", m.Name, idx+1, v)
				}
				if !dom.has(it.X, w) {
					return fmt.Errorf("popmachine %q: instr %d: f(%d) = %d outside domain of %s",
						m.Name, idx+1, v, w, dst.Name)
				}
			}
		default:
			return fmt.Errorf("popmachine %q: instr %d: unknown type %T", m.Name, idx+1, in)
		}
	}
	return nil
}

// Listing renders the instruction sequence for debugging and for the
// figure-reproduction experiments.
func (m *Machine) Listing() []string {
	out := make([]string, len(m.Instrs))
	for i, in := range m.Instrs {
		out[i] = fmt.Sprintf("%3d: %s", i+1, in.String(m))
	}
	return out
}

// ConstAssign builds the constant assignment X := c, encoded per the paper
// as X := f(Y) with f constant. CF serves as the (ignored) source pointer:
// its two-value domain keeps the function table small, and Y = CF ≠ IP
// keeps the machine→protocol conversion in its ordinary case.
func ConstAssign(m *Machine, x, c int) AssignInstr {
	return AssignInstr{X: x, Y: m.CF, F: map[int]int{ValFalse: c, ValTrue: c}}
}

// Jump builds the unconditional jump IP := target.
func Jump(m *Machine, target int) AssignInstr {
	in := ConstAssign(m, m.IP, target)
	in.Comment = fmt.Sprintf("goto %d", target)
	return in
}

// CondJump builds the conditional jump IP := (ifTrue if CF else ifFalse),
// the universal branch of Figure 3 line 2.
func CondJump(m *Machine, ifTrue, ifFalse int) AssignInstr {
	return AssignInstr{
		X: m.IP, Y: m.CF,
		F:       map[int]int{ValTrue: ifTrue, ValFalse: ifFalse},
		Comment: fmt.Sprintf("if CF goto %d else %d", ifTrue, ifFalse),
	}
}
