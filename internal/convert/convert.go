// Package convert turns population machines (§7.1) into population
// protocols, implementing the binary-transition construction of §7.3 /
// Appendix B.3:
//
//   - register agents: one protocol state per machine register; the
//     register's value is the number of agents in that state;
//   - pointer agents: one unique agent per pointer, whose state carries the
//     pointer's value plus an execution stage (none/wait/half for IP;
//     none/done/emit/take/test/true/false for register-map pointers;
//     none/done otherwise), plus per-assignment map states X_map^i;
//   - a leader election ⟨elect⟩ along a fixed pointer enumeration ending at
//     IP, which re-initialises the pointer chain whenever duplicates meet
//     (Lemma 15);
//   - instruction gadgets ⟨move⟩, ⟨test⟩, ⟨pointer⟩ exactly as Figure 4 and
//     Appendix B.3;
//   - an output-broadcast wrapper doubling the state space with an opinion
//     bit: agents adopt the OF agent's value on contact, giving stable
//     consensus (Proposition 16).
//
// The converted protocol decides φ'(m) ⟺ m ≥ |F| ∧ φ(m − |F|): |F| agents
// are consumed to store the pointers.
package convert

import (
	"fmt"
	"strconv"

	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/protocol"
)

// stage is a pointer agent's execution stage.
type stage uint8

const (
	stNone stage = iota
	stWait
	stHalf
	stDone
	stEmit
	stTake
	stTest
	stTrue
	stFalse
	numStages
)

// stageNames are the stage names used in pointer state names.
var stageNames = [numStages]string{"none", "wait", "half", "done", "emit", "take", "test", "true", "false"}

// Stage sets (App. B.3). Only register-map pointers of actual registers
// need the full move/detect stage set; V_□ is touched by assignments only.
var (
	ipStages  = []stage{stNone, stWait, stHalf}
	regStages = []stage{stNone, stDone, stEmit, stTake, stTest, stTrue, stFalse}
	ptrStages = []stage{stNone, stDone}
)

// Result packages the converted protocol with its accounting data.
type Result struct {
	// Protocol is the final protocol PP' (with the output broadcast).
	Protocol *protocol.Protocol
	// Core is the intermediate protocol PP without the broadcast wrapper;
	// it executes the machine but does not reach consensus. Exposed for
	// the Figure 4 tests.
	Core *protocol.Protocol
	// NumPointers is |F|, the number of pointer agents (= the agent
	// overhead i in Theorem 5's φ'(x) ⟺ φ(x−i) ∧ x ≥ i).
	NumPointers int
	// CoreStates is |Q*| and must satisfy |Q*| ≤ |Q| + 7·Σ|ℱ_X| + L
	// (Proposition 16). Convert's Protocol has exactly 2·|Q*| states;
	// Optimize's has fewer (the support-closure reduction removes states
	// no run can occupy).
	CoreStates int

	m        *popmachine.Machine
	ptrOrder []int // pointer indices, IP last
	families []int // per Protocol state: owning pointer index, -1 = register
}

// PointerOrder returns the pointer indices in elect-chain order (X_1 …
// X_|F|, with IP last).
func (r *Result) PointerOrder() []int {
	return append([]int(nil), r.ptrOrder...)
}

// Families returns, for every state index of Protocol, the pointer whose
// unique agent owns that state, or -1 for register-agent states. Lemma 15
// says every fair run from c(I) ≥ |F| reaches a configuration with exactly
// one agent per pointer family; the tests verify this via these families.
func (r *Result) Families() []int {
	return append([]int(nil), r.families...)
}

// AgentsPerFamily counts the agents of cfg in each pointer family; index
// len(pointers) holds the register-agent count.
func (r *Result) AgentsPerFamily(cfg *multiset.Multiset) []int64 {
	out := make([]int64, len(r.m.Pointers)+1)
	for _, i := range cfg.Support() {
		f := r.families[i]
		if f < 0 {
			f = len(r.m.Pointers)
		}
		out[f] += cfg.Count(i)
	}
	return out
}

// Elected reports whether cfg has exactly one agent in every pointer family
// (the shape π(C) of Lemma 15).
func (r *Result) Elected(cfg *multiset.Multiset) bool {
	counts := r.AgentsPerFamily(cfg)
	for f := 0; f < len(r.m.Pointers); f++ {
		if counts[f] != 1 {
			return false
		}
	}
	return true
}

// CountStates returns the state counts of the conversion without
// materialising transitions: coreStates = |Q*| and protocolStates = 2·|Q*|
// (the broadcast wrapper doubles the states). The ⟨elect⟩ gadget makes the
// transition relation quadratic in the largest pointer family (|Q_IP| =
// 3·L), so full conversion of large machines is expensive; state accounting
// (Table 1, Theorem 5) only needs these counts.
func CountStates(m *popmachine.Machine) (coreStates, protocolStates int, err error) {
	l, err := planLayout(m)
	if err != nil {
		return 0, 0, err
	}
	return l.size, 2 * l.size, nil
}

// Convert builds the population protocol for machine m. It refuses
// machines whose protocol would have more than protocol.MaxStates states.
func Convert(m *popmachine.Machine) (*Result, error) {
	l, core, ofBit, err := convertCore(m)
	if err != nil {
		return nil, err
	}
	wrapped, err := l.wrapBroadcast(core, ofBit)
	if err != nil {
		return nil, err
	}
	return l.result(wrapped, core, l.families()), nil
}

// convertCore lays out m's core states and builds the core protocol,
// refusing machines whose wrapped protocol would exceed
// protocol.MaxStates. ofBit is the layout's ofBits.
func convertCore(m *popmachine.Machine) (l *layout, core *protocol.Protocol, ofBit []int, err error) {
	if l, err = planLayout(m); err != nil {
		return nil, nil, nil, err
	}
	if err := protocol.CheckNumStates(m.Name+"-protocol-consensus", 2*l.size); err != nil {
		return nil, nil, nil, fmt.Errorf("convert: %w", err)
	}
	ofBit = l.ofBits()
	if core, err = l.buildCore(ofBit); err != nil {
		return nil, nil, nil, err
	}
	return l, core, ofBit, nil
}

// result packages a conversion of the layout's machine whose final
// protocol is p, with families[i] the owning pointer of p's state i.
func (l *layout) result(p, core *protocol.Protocol, families []int) *Result {
	return &Result{
		Protocol:    p,
		Core:        core,
		NumPointers: len(l.m.Pointers),
		CoreStates:  l.size,
		m:           l.m,
		ptrOrder:    l.order,
		families:    families,
	}
}

// PointerState names the protocol state of pointer ptr at the given stage
// holding the given value.
func PointerState(m *popmachine.Machine, ptr int, stage string, value int) string {
	return m.Pointers[ptr].Name + "=" + strconv.Itoa(value) + "·" + stage
}

// MapState names the intermediate state X_map^i of assignment instruction i
// (1-based).
func MapState(m *popmachine.Machine, ptr, instr int) string {
	return m.Pointers[ptr].Name + "·map" + strconv.Itoa(instr)
}

// InitialPointerState returns the elect-chain state of a freshly
// initialised pointer: value = its machine initial value, stage none.
func InitialPointerState(m *popmachine.Machine, ptr int) string {
	return PointerState(m, ptr, stageNames[stNone], m.Pointers[ptr].Initial)
}

// InputState returns the protocol's unique input state: the first pointer
// of the elect order, initialised (before the broadcast wrapper adds its
// opinion bit).
func (r *Result) InputState() string {
	return InitialPointerState(r.m, r.ptrOrder[0])
}

// layout is the plan of the core state space Q* by index, in canonical
// order:
//
//   - the registers, 0..|R|−1 (register r's agents sit in state r);
//   - for each pointer in elect order, a stage-major block of
//     |stages| × |ℱ_X| states in Domain order;
//   - the map states X_map^i, in instruction order.
//
// CountStates reads only its size. Convert emits every transition as
// index arithmetic over it and formats each state's name once.
type layout struct {
	m     *popmachine.Machine
	order []int       // pointer indices in elect order (IP last)
	ptrs  []ptrLayout // indexed by pointer index
	mapAt []int       // per instruction (0-based): its map state, or -1
	size  int         // |Q*|
}

// ptrLayout locates one pointer agent's states.
type ptrLayout struct {
	dom        []int          // the pointer's Domain
	stages     []stage        // the pointer's stage set, in block order
	row        [numStages]int // state of (stage, dom[0]); -1 for absent stages
	base, size int            // the stage × value block
	pos        map[int]int    // domain value → position in dom
	maps       []int          // the agent's map states, in instruction order
}

// at returns the state of the pointer at stage st holding value v.
func (p *ptrLayout) at(st stage, v int) int { return p.row[st] + p.pos[v] }

// planLayout validates m and lays out its core states. Beyond
// popmachine.Validate it requires what the gadgets' index arithmetic
// relies on: no pointer domain repeats a value, the IP domain is all of
// 1..L (the gadgets address IP's states by instruction index), and IP is
// no register's register-map pointer (the move and detect gadgets need
// the register-map stages).
func planLayout(m *popmachine.Machine) (*layout, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	isVReg := make([]bool, len(m.Pointers))
	for r, pi := range m.VReg {
		if pi == m.IP {
			return nil, fmt.Errorf("convert: machine %q: IP is the register-map pointer of %s",
				m.Name, m.Registers[r])
		}
		isVReg[pi] = true
	}
	l := &layout{
		m:     m,
		order: make([]int, 0, len(m.Pointers)),
		ptrs:  make([]ptrLayout, len(m.Pointers)),
		mapAt: make([]int, len(m.Instrs)),
	}
	// Elect order: every pointer except IP, then IP.
	for i := range m.Pointers {
		if i != m.IP {
			l.order = append(l.order, i)
		}
	}
	l.order = append(l.order, m.IP)

	next := len(m.Registers)
	for _, pi := range l.order {
		p, pl := m.Pointers[pi], &l.ptrs[pi]
		pl.dom = p.Domain
		switch {
		case pi == m.IP:
			pl.stages = ipStages
		case isVReg[pi]:
			pl.stages = regStages
		default:
			pl.stages = ptrStages
		}
		pl.pos = make(map[int]int, len(p.Domain))
		for k, v := range p.Domain {
			if _, dup := pl.pos[v]; dup {
				return nil, fmt.Errorf("convert: machine %q: pointer %q repeats domain value %d",
					m.Name, p.Name, v)
			}
			pl.pos[v] = k
		}
		for st := range pl.row {
			pl.row[st] = -1
		}
		pl.base = next
		for _, st := range pl.stages {
			pl.row[st] = next
			next += len(p.Domain)
		}
		pl.size = next - pl.base
	}
	// Validate bounds IP's values by 1..L; with no repeats, L of them are
	// exactly 1..L.
	if got := len(m.Pointers[m.IP].Domain); got != m.NumInstrs() {
		return nil, fmt.Errorf("convert: machine %q: IP domain has %d values, want 1..%d",
			m.Name, got, m.NumInstrs())
	}
	for idx, in := range m.Instrs {
		l.mapAt[idx] = -1
		if a, ok := in.(popmachine.AssignInstr); ok && a.X != m.IP && a.X != a.Y {
			l.mapAt[idx] = next
			l.ptrs[a.X].maps = append(l.ptrs[a.X].maps, next)
			next++
		}
	}
	l.size = next
	return l, nil
}

// names formats the name of every core state, in index order.
func (l *layout) names() []string {
	m := l.m
	out := make([]string, 0, l.size)
	out = append(out, m.Registers...)
	for _, pi := range l.order {
		pl := &l.ptrs[pi]
		for _, st := range pl.stages {
			for _, v := range pl.dom {
				out = append(out, PointerState(m, pi, stageNames[st], v))
			}
		}
	}
	for idx, in := range m.Instrs {
		if l.mapAt[idx] >= 0 {
			out = append(out, MapState(m, in.(popmachine.AssignInstr).X, idx+1))
		}
	}
	return out
}

// families returns the owning pointer of every state of the wrapped
// protocol (core state j's two opinion copies are 2j and 2j+1), or -1 for
// register states.
func (l *layout) families() []int {
	out := make([]int, 2*l.size)
	for j := range out {
		out[j] = -1
	}
	own := func(j, pi int) { out[2*j], out[2*j+1] = pi, pi }
	for _, pi := range l.order {
		pl := &l.ptrs[pi]
		for j := pl.base; j < pl.base+pl.size; j++ {
			own(j, pi)
		}
		for _, j := range pl.maps {
			own(j, pi)
		}
	}
	return out
}

// ofBits returns, per core state, 1 or 0 for an OF state holding true or
// false, and -1 for every other state.
func (l *layout) ofBits() []int {
	out := make([]int, l.size)
	for j := range out {
		out[j] = -1
	}
	of := &l.ptrs[l.m.OF]
	for j := 0; j < of.size; j++ {
		out[of.base+j] = 0
		if of.dom[j%len(of.dom)] == popmachine.ValTrue {
			out[of.base+j] = 1
		}
	}
	return out
}

// initial returns the elect-chain state of a freshly initialised pointer.
func (l *layout) initial(pi int) int {
	return l.ptrs[pi].at(stNone, l.m.Pointers[pi].Initial)
}

// emitter appends core transitions. With counting set it only counts
// them, so buildCore can allocate the table at its final size.
type emitter struct {
	*layout
	counting bool
	n        int
	ts       []protocol.Transition
}

// add emits (q, r ↦ q2, r2). Convert has bounded the layout by
// protocol.MaxStates, so the indices fit int32.
func (e *emitter) add(q, r, q2, r2 int) {
	if e.counting {
		e.n++
		return
	}
	e.ts = append(e.ts, protocol.Transition{Q: int32(q), R: int32(r), Q2: int32(q2), R2: int32(r2)})
}

// emitAll emits ⟨elect⟩ and every instruction gadget, in canonical order.
func (e *emitter) emitAll() {
	e.emitElect()
	for idx, in := range e.m.Instrs {
		i := idx + 1
		switch it := in.(type) {
		case popmachine.MoveInstr:
			e.emitMove(i, it)
		case popmachine.DetectInstr:
			e.emitDetect(i, it)
		case popmachine.AssignInstr:
			e.emitAssign(i, it)
		}
	}
}

// buildCore builds the core protocol PP: ⟨elect⟩ and the instruction
// gadgets over the layout's states.
func (l *layout) buildCore(ofBit []int) (*protocol.Protocol, error) {
	e := &emitter{layout: l, counting: true}
	e.emitAll()
	e.counting, e.ts = false, make([]protocol.Transition, 0, e.n)
	e.emitAll()

	// The core protocol has no meaningful accepting set; consensus comes
	// from the broadcast wrapper. Mark OF-true states accepting so the
	// core can still be inspected.
	accepting := make([]bool, l.size)
	for j, b := range ofBit {
		accepting[j] = b == 1
	}
	core := &protocol.Protocol{
		Name:        l.m.Name + "-protocol",
		States:      l.names(),
		Transitions: e.ts,
		Input:       []int{l.initial(l.order[0])},
		Accepting:   accepting,
	}
	if err := core.Validate(); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	return core, nil
}

// emitElect implements ⟨elect⟩: duplicates of pointer X_j collapse into an
// initialised X_j plus an initialised X_{j+1}; duplicate IPs release one
// agent into a fixed register state and restart the chain at X_1.
func (e *emitter) emitElect() {
	var all []int
	for oi, pi := range e.order {
		pl := &e.ptrs[pi]
		all = all[:0]
		for j := pl.base; j < pl.base+pl.size; j++ {
			all = append(all, j)
		}
		all = append(all, pl.maps...)
		var q1, r1 int
		if oi < len(e.order)-1 {
			q1, r1 = e.initial(pi), e.initial(e.order[oi+1])
		} else {
			// IP duplicates: one agent re-seeds the chain, the other
			// becomes a register agent in the fixed register 0.
			q1, r1 = e.initial(e.order[0]), 0
		}
		for _, s1 := range all {
			for _, s2 := range all {
				e.add(s1, s2, q1, r1)
			}
		}
	}
}

// ip returns IP's state at stage st pointing at instruction i.
func (e *emitter) ip(st stage, i int) int { return e.ptrs[e.m.IP].at(st, i) }

// emitMove implements ⟨move⟩ for instruction i = (x ↦ y). Register r's
// state is r, and z = 0 is the fixed intermediate register of App. B.3.
func (e *emitter) emitMove(i int, in popmachine.MoveInstr) {
	const z = 0
	vx, vy := &e.ptrs[e.m.VReg[in.X]], &e.ptrs[e.m.VReg[in.Y]]
	for j := 0; j < vx.size; j++ {
		e.add(e.ip(stNone, i), vx.base+j, e.ip(stWait, i), vx.row[stEmit]+j%len(vx.dom))
	}
	for k, v := range vx.dom {
		e.add(vx.row[stEmit]+k, v, vx.row[stDone]+k, z)
		e.add(e.ip(stWait, i), vx.row[stDone]+k, e.ip(stHalf, i), vx.row[stNone]+k)
	}
	for j := 0; j < vy.size; j++ {
		e.add(e.ip(stHalf, i), vy.base+j, e.ip(stWait, i), vy.row[stTake]+j%len(vy.dom))
	}
	for k, w := range vy.dom {
		e.add(vy.row[stTake]+k, z, vy.row[stDone]+k, w)
		if i < e.m.NumInstrs() {
			e.add(e.ip(stWait, i), vy.row[stDone]+k, e.ip(stNone, i+1), vy.row[stNone]+k)
		}
	}
}

// emitDetect implements ⟨test⟩ for instruction i = (detect x > 0).
func (e *emitter) emitDetect(i int, in popmachine.DetectInstr) {
	vx, cf := &e.ptrs[e.m.VReg[in.X]], &e.ptrs[e.m.CF]
	for j := 0; j < vx.size; j++ {
		e.add(e.ip(stNone, i), vx.base+j, e.ip(stWait, i), vx.row[stTest]+j%len(vx.dom))
	}
	for k, v := range vx.dom {
		test := vx.row[stTest] + k
		e.add(test, v, vx.row[stTrue]+k, v)
		for q := 0; q < e.size; q++ {
			if q != v && q != test {
				e.add(test, q, vx.row[stFalse]+k, q)
			}
		}
		for _, outcome := range [...]struct {
			st stage
			cf int
		}{{stTrue, popmachine.ValTrue}, {stFalse, popmachine.ValFalse}} {
			res, cfTo := vx.row[outcome.st]+k, cf.at(stNone, outcome.cf)
			for j := cf.base; j < cf.base+cf.size; j++ {
				e.add(res, j, vx.row[stDone]+k, cfTo)
			}
		}
		if i < e.m.NumInstrs() {
			e.add(e.ip(stWait, i), vx.row[stDone]+k, e.ip(stNone, i+1), vx.row[stNone]+k)
		}
	}
}

// emitAssign implements ⟨pointer⟩ for instruction i = (X := f(Y)).
func (e *emitter) emitAssign(i int, in popmachine.AssignInstr) {
	x, y := &e.ptrs[in.X], &e.ptrs[in.Y]
	switch {
	case in.X == e.m.IP:
		// IP := f(Y): a single two-agent exchange.
		for j := 0; j < y.size; j++ {
			k := j % len(y.dom)
			e.add(e.ip(stNone, i), y.base+j, e.ip(stNone, in.F[y.dom[k]]), y.row[stNone]+k)
		}
	case in.X == in.Y:
		if i >= e.m.NumInstrs() {
			return // machine hangs at i = L
		}
		for j := 0; j < y.size; j++ {
			e.add(e.ip(stNone, i), y.base+j, e.ip(stNone, i+1), y.at(stNone, in.F[y.dom[j%len(y.dom)]]))
		}
	default:
		if i >= e.m.NumInstrs() {
			return // the advancing transitions below would be ill-defined
		}
		mapState := e.mapAt[i-1]
		for j := 0; j < x.size; j++ {
			e.add(e.ip(stNone, i), x.base+j, e.ip(stWait, i), mapState)
		}
		for j := 0; j < y.size; j++ {
			k := j % len(y.dom)
			e.add(mapState, y.base+j, x.at(stDone, in.F[y.dom[k]]), y.row[stNone]+k)
		}
		for k := range x.dom {
			e.add(e.ip(stWait, i), x.row[stDone]+k, e.ip(stNone, i+1), x.row[stNone]+k)
		}
	}
}

// opinion suffixes for the broadcast wrapper.
func withOpinion(state string, b bool) string {
	if b {
		return state + "|+"
	}
	return state + "|-"
}

// forcedOpinion returns the opinion core transition t forces on both
// participants, the value of its OF post-state (Q2 first), or -1 when
// neither post-state is an OF state and opinions carry through.
func forcedOpinion(ofBit []int, t protocol.Transition) int32 {
	if b := ofBit[t.Q2]; b >= 0 {
		return int32(b)
	}
	return int32(ofBit[t.R2])
}

// wrapBroadcast implements the standard output broadcast: every state is
// doubled with an opinion bit (core state j becomes 2j with opinion false
// and 2j+1 with opinion true); transitions whose post-states include an
// OF-pointer state with value b force both participants' opinions to b;
// all other transitions carry opinions through; and meeting the OF agent
// (an identity interaction otherwise) converts the other agent's opinion.
func (l *layout) wrapBroadcast(core *protocol.Protocol, ofBit []int) (*protocol.Protocol, error) {
	n := l.size
	states := make([]string, 2*n)
	accepting := make([]bool, 2*n)
	for j, s := range core.States {
		states[2*j], states[2*j+1] = withOpinion(s, false), withOpinion(s, true)
		accepting[2*j+1] = true
	}
	of := &l.ptrs[l.m.OF]
	ts := make([]protocol.Transition, 0, 4*len(core.Transitions)+4*of.size*(n-1))
	for _, t := range core.Transitions {
		q, r, q2, r2 := 2*t.Q, 2*t.R, 2*t.Q2, 2*t.R2
		forced := forcedOpinion(ofBit, t)
		for o1 := int32(0); o1 < 2; o1++ {
			for o2 := int32(0); o2 < 2; o2++ {
				if forced >= 0 {
					ts = append(ts, protocol.Transition{Q: q + o1, R: r + o2, Q2: q2 + forced, R2: r2 + forced})
				} else {
					ts = append(ts, protocol.Transition{Q: q + o1, R: r + o2, Q2: q2 + o1, R2: r2 + o2})
				}
			}
		}
	}
	// Identity interactions with the OF agent broadcast its value.
	for s := int32(of.base); s < int32(of.base+of.size); s++ {
		val := int32(ofBit[s])
		for q := int32(0); q < int32(n); q++ {
			if q == s {
				continue
			}
			for o1 := int32(0); o1 < 2; o1++ {
				for o2 := int32(0); o2 < 2; o2++ {
					ts = append(ts, protocol.Transition{Q: 2*q + o1, R: 2*s + o2, Q2: 2*q + val, R2: 2*s + val})
				}
			}
		}
	}
	// I' = I × {false}: the initialised first pointer of the elect chain,
	// with opinion false.
	p := &protocol.Protocol{
		Name:        core.Name + "-consensus",
		States:      states,
		Transitions: ts,
		Input:       []int{2 * core.Input[0]},
		Accepting:   accepting,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	return p, nil
}
