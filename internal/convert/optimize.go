package convert

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/compile"
	"repro/internal/obs"
	"repro/internal/popmachine"
	"repro/internal/protocol"
)

// PipelineTag names the shrink pipeline version. It is recorded in every
// OptReport and in the ppserved cache, so a warm hit can report which
// pipeline produced the protocol it returned.
const PipelineTag = "shrink-v1"

// PassStat records one protocol-level pass's effect for the OptReport.
type PassStat struct {
	Pass               string `json:"pass"`
	StatesRemoved      int    `json:"states_removed"`
	TransitionsRemoved int    `json:"transitions_removed"`
}

// Budget is a point-in-time snapshot of the Prop. 14/16 state-budget
// accounting for one machine and its conversion.
type Budget struct {
	// Instrs is L, the instruction count. The IP family contributes 3·L
	// core states and the ⟨elect⟩ gadget ~9·L² transitions, so L is the
	// dominant lever on both |Q| and |T|.
	Instrs int `json:"instrs"`
	// DomainSum is Σ_X |ℱ_X|.
	DomainSum int `json:"domain_sum"`
	// MachineSize is |Q| + |F| + Σ_X |ℱ_X| + |ℐ|, the Definition 6 size
	// Prop. 14 bounds by O(program size).
	MachineSize int `json:"machine_size"`
	// Prop16Bound is |Q| + 7·Σ_X |ℱ_X| + L, Prop. 16's bound on |Q*|.
	Prop16Bound int `json:"prop16_bound"`
	// CoreStates is |Q*|, the core conversion's state count (must be ≤
	// Prop16Bound; the golden accounting test pins both).
	CoreStates int `json:"core_states"`
	// States is the protocol state count: 2·|Q*| as converted; after the
	// protocol passes, the actual surviving count.
	States int `json:"states"`
	// Transitions is |T|, or -1 when the protocol was not materialised
	// (counting states needs no transition table; building one for large
	// machines costs ~9·L² entries in ⟨elect⟩ alone).
	Transitions int `json:"transitions"`
}

// budgetOf assembles the machine-side budget fields.
func budgetOf(m *popmachine.Machine, coreStates, states, transitions int) Budget {
	return Budget{
		Instrs:      m.NumInstrs(),
		DomainSum:   compile.DomainSum(m),
		MachineSize: m.Size(),
		Prop16Bound: len(m.Registers) + 7*compile.DomainSum(m) + m.NumInstrs(),
		CoreStates:  coreStates,
		States:      states,
		Transitions: transitions,
	}
}

// OptReport is the machine-readable account of one shrink-pipeline run:
// what every pass removed and the Prop. 14/16 budgets before and after.
// It is surfaced by `ppstate -opt-report`, the obs Opt counters, and the
// ppserved cache.
type OptReport struct {
	// Name is the machine's name.
	Name string `json:"name"`
	// Pipeline is the PipelineTag of the pipeline that produced the
	// report.
	Pipeline string `json:"pipeline"`
	// MachinePasses accounts the instruction-level passes (thread-jumps,
	// goto-next, dead-store, unreachable, narrow-domains).
	MachinePasses []compile.MachinePassStat `json:"machine_passes"`
	// ProtocolPasses accounts the protocol-level passes (reduce,
	// prune-silent, dedup). Empty for OptimizeStates.
	ProtocolPasses []PassStat `json:"protocol_passes,omitempty"`
	// Before is the unoptimized machine's budget, with States = 2·|Q*| as
	// the plain conversion would emit them. Its Transitions field is -1
	// unless MaterializeBaseline was called.
	Before Budget `json:"before"`
	// After is the optimized budget. On the Optimize path States and
	// Transitions are the final protocol's actual counts; on the
	// OptimizeStates path States is the as-converted 2·|Q*| and
	// Transitions is -1.
	After Budget `json:"after"`
}

// StatesRemoved returns Before.States − After.States.
func (r *OptReport) StatesRemoved() int { return r.Before.States - r.After.States }

// observe records the finished report on the obs Opt counters.
func (r *OptReport) observe(elapsed time.Duration) {
	om := obs.Opt()
	if om == nil {
		return
	}
	om.Runs.Inc()
	for _, s := range r.MachinePasses {
		if s.Pass == "narrow-domains" {
			om.DomainValuesRemoved.Add(int64(s.Removed))
		}
	}
	om.InstrsRemoved.Add(int64(r.Before.Instrs - r.After.Instrs))
	om.StatesRemoved.Add(int64(r.StatesRemoved()))
	for _, s := range r.ProtocolPasses {
		om.TransitionsRemoved.Add(int64(s.TransitionsRemoved))
	}
	om.Nanos.Add(elapsed.Nanoseconds())
}

// Optimize runs the full shrink pipeline on machine m: the instruction-
// level passes of compile.OptimizeMachine, the §7.3 conversion of the
// shrunk machine reduced to its support closure, and transition
// compaction (protocol.CompactTransitions). The input machine is not
// mutated, and no pass removes a pointer, so the returned protocol decides
// exactly the predicate of the plain conversion — φ'(m) ⟺
// m ≥ |F| ∧ φ(m − |F|) with the same |F| — which the optimize tests pin by
// exhaustive model checking against the unoptimized protocol.
//
// The reduction runs on the core table: opinionMasks closes the support on
// one opinion mask per core state, and reducedBroadcast emits only the
// wrapped transitions that survive it, so the Prop. 16 wrapper's table is
// never built. The result, the report's "reduce" PassStat included, is
// what protocol.Reduce of Convert's protocol would give, which
// TestOptimizeMatchesUnfused pins field for field.
//
// The returned Result describes the optimized conversion: Result.Protocol
// is the final reduced+compacted protocol (named <machine>-protocol-opt),
// Result.Core the shrunk machine's core, and Families/InputState etc. are
// consistent with the final protocol's state indices.
func Optimize(m *popmachine.Machine) (*Result, *OptReport, error) {
	start := time.Now()
	coreBefore, protoBefore, err := CountStates(m)
	if err != nil {
		return nil, nil, err
	}
	report := &OptReport{
		Name:     m.Name,
		Pipeline: PipelineTag,
		Before:   budgetOf(m, coreBefore, protoBefore, -1),
	}
	opt, mstats, err := compile.OptimizeMachine(m)
	if err != nil {
		return nil, nil, err
	}
	report.MachinePasses = mstats

	l, core, ofBit, err := convertCore(opt)
	if err != nil {
		return nil, nil, err
	}
	reduced, families, reduce := l.reducedBroadcast(core, ofBit, l.opinionMasks(core, ofBit))
	report.ProtocolPasses = append(report.ProtocolPasses, reduce)
	final, silent, dups, err := protocol.CompactTransitions(reduced)
	if err != nil {
		return nil, nil, err
	}
	report.ProtocolPasses = append(report.ProtocolPasses,
		PassStat{Pass: "prune-silent", TransitionsRemoved: silent},
		PassStat{Pass: "dedup", TransitionsRemoved: dups},
	)
	final.Name = m.Name + "-protocol-opt"
	res := l.result(final, core, families)
	report.After = budgetOf(opt, res.CoreStates, final.NumStates(), len(final.Transitions))
	report.observe(time.Since(start))
	return res, report, nil
}

// opinionMasks computes the support closure of wrapBroadcast's protocol
// (protocol.SupportClosure) on the core table, without building the
// wrapped one: bit o of mask[j] is set iff the wrapped state 2j+o, core
// state j with opinion o, lies in the closure. The input state starts
// with opinion false. A core transition whose pre-states both have a
// non-empty mask fires: if it forces opinion f, both post-states gain bit
// f, otherwise each post-state gains its pre-state's mask. In the
// broadcast block an occupied OF state s and every other occupied state
// both gain bit ofBit[s]. The masks grow to a fixpoint.
func (l *layout) opinionMasks(core *protocol.Protocol, ofBit []int) []uint8 {
	mask := make([]uint8, l.size)
	mask[core.Input[0]] = 1
	of := &l.ptrs[l.m.OF]
	for changed := true; changed; {
		changed = false
		gain := func(j int, bits uint8) {
			if mask[j]|bits != mask[j] {
				mask[j] |= bits
				changed = true
			}
		}
		for _, t := range core.Transitions {
			mq, mr := mask[t.Q], mask[t.R]
			if mq == 0 || mr == 0 {
				continue
			}
			if f := forcedOpinion(ofBit, t); f >= 0 {
				mq, mr = 1<<f, 1<<f
			}
			gain(int(t.Q2), mq)
			gain(int(t.R2), mr)
		}
		for s := of.base; s < of.base+of.size; s++ {
			if mask[s] == 0 {
				continue
			}
			bit := uint8(1) << ofBit[s]
			for q := range mask {
				if q != s && mask[q] != 0 {
					gain(q, bit)
					gain(s, bit)
				}
			}
		}
	}
	return mask
}

// reducedBroadcast emits the protocol protocol.Reduce would make of
// wrapBroadcast's, given the opinion masks of its support closure: the
// surviving states in index order, and the wrapped transitions whose two
// pre-states survive, in wrapBroadcast's order and renumbered. It also
// returns the family of every surviving state and the reduce pass's
// PassStat, counted against the 2·|Q*| states and the 4·|T_core| +
// 4·|OF|·(|Q*| − 1) transitions wrapBroadcast would emit.
func (l *layout) reducedBroadcast(core *protocol.Protocol, ofBit []int, mask []uint8) (*protocol.Protocol, []int, PassStat) {
	n := l.size
	wrappedFams := l.families()
	at := make([]int32, 2*n) // wrapped state → surviving index
	var states []string
	var accepting []bool
	var families []int
	for j, name := range core.States {
		for o := 0; o < 2; o++ {
			if mask[j]>>o&1 == 1 {
				at[2*j+o] = int32(len(states))
				states = append(states, withOpinion(name, o == 1))
				accepting = append(accepting, o == 1)
				families = append(families, wrappedFams[2*j+o])
			}
		}
	}
	of := &l.ptrs[l.m.OF]
	pairs := func(q, r int32) int { return bits.OnesCount8(mask[q]) * bits.OnesCount8(mask[r]) }
	emitted := 0
	for _, t := range core.Transitions {
		emitted += pairs(t.Q, t.R)
	}
	for s := int32(of.base); s < int32(of.base+of.size); s++ {
		for q := int32(0); q < int32(n); q++ {
			if q != s {
				emitted += pairs(q, s)
			}
		}
	}
	ts := make([]protocol.Transition, 0, emitted)
	for _, t := range core.Transitions {
		mq, mr := mask[t.Q], mask[t.R]
		if mq == 0 || mr == 0 {
			continue
		}
		forced := forcedOpinion(ofBit, t)
		for o1 := int32(0); o1 < 2; o1++ {
			if mq>>o1&1 == 0 {
				continue
			}
			for o2 := int32(0); o2 < 2; o2++ {
				if mr>>o2&1 == 0 {
					continue
				}
				p1, p2 := o1, o2
				if forced >= 0 {
					p1, p2 = forced, forced
				}
				ts = append(ts, protocol.Transition{
					Q: at[2*t.Q+o1], R: at[2*t.R+o2], Q2: at[2*t.Q2+p1], R2: at[2*t.R2+p2],
				})
			}
		}
	}
	for s := int32(of.base); s < int32(of.base+of.size); s++ {
		ms, val := mask[s], int32(ofBit[s])
		for q := int32(0); q < int32(n); q++ {
			if q == s {
				continue
			}
			for o1 := int32(0); o1 < 2; o1++ {
				if mask[q]>>o1&1 == 0 {
					continue
				}
				for o2 := int32(0); o2 < 2; o2++ {
					if ms>>o2&1 == 1 {
						ts = append(ts, protocol.Transition{
							Q: at[2*q+o1], R: at[2*s+o2], Q2: at[2*q+val], R2: at[2*s+val],
						})
					}
				}
			}
		}
	}
	p := &protocol.Protocol{
		Name:        core.Name + "-consensus-reduced",
		States:      states,
		Transitions: ts,
		Input:       []int{int(at[2*core.Input[0]])},
		Accepting:   accepting,
	}
	return p, families, PassStat{
		Pass:               "reduce",
		StatesRemoved:      2*n - len(states),
		TransitionsRemoved: 4*len(core.Transitions) + 4*of.size*(n-1) - len(ts),
	}
}

// OptimizeStates runs only the machine-level passes and the state
// *counting* of the conversion — no transition table is materialised, so
// it is cheap even for machines whose full conversion would emit tens of
// millions of ⟨elect⟩ transitions (Table 1's larger rows). The returned
// report has Transitions = -1 on both sides and After.States = 2·|Q*| of
// the shrunk machine as the plain conversion of it would emit them (the
// support-closure reduction is not applied; it needs the transitions).
func OptimizeStates(m *popmachine.Machine) (*popmachine.Machine, *OptReport, error) {
	start := time.Now()
	coreBefore, protoBefore, err := CountStates(m)
	if err != nil {
		return nil, nil, err
	}
	opt, mstats, err := compile.OptimizeMachine(m)
	if err != nil {
		return nil, nil, err
	}
	coreAfter, protoAfter, err := CountStates(opt)
	if err != nil {
		return nil, nil, err
	}
	report := &OptReport{
		Name:          m.Name,
		Pipeline:      PipelineTag,
		MachinePasses: mstats,
		Before:        budgetOf(m, coreBefore, protoBefore, -1),
		After:         budgetOf(opt, coreAfter, protoAfter, -1),
	}
	report.observe(time.Since(start))
	return opt, report, nil
}

// MaterializeBaseline fills Before.Transitions (and the post-reduction
// baseline is deliberately NOT applied — Before reports the plain
// conversion) by running the full unoptimized conversion of m. This is
// exactly as expensive as the conversion the pipeline avoided; callers
// opt in for before/after tables (ppstate -opt-full, the DESIGN.md
// accounting).
func (r *OptReport) MaterializeBaseline(m *popmachine.Machine) error {
	if m.Name != r.Name {
		return fmt.Errorf("convert: baseline machine %q does not match report %q", m.Name, r.Name)
	}
	res, err := Convert(m)
	if err != nil {
		return err
	}
	r.Before.States = res.Protocol.NumStates()
	r.Before.Transitions = len(res.Protocol.Transitions)
	return nil
}
