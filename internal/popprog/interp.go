package popprog

import (
	"fmt"
	"math/rand"

	"repro/internal/multiset"
	"repro/internal/sched"
)

// Oracle resolves the nondeterminism of a population program run: the
// outcomes of detect instructions and the configurations chosen by
// restarts. Runs driven by an oracle that gives every choice persistent
// positive probability are fair with probability 1.
type Oracle interface {
	// Detect resolves (detect x > 0). nonzero is the ground truth; the
	// oracle may return false even when nonzero holds, but must never
	// return true when the register is zero (the interpreter enforces
	// this).
	Detect(reg int, nonzero bool) bool
	// Restart fills regs with the next initial register configuration.
	// The interpreter resets it to the same total afterwards, so the
	// oracle must preserve regs.Size().
	Restart(regs *multiset.Multiset)
}

// RandomOracle resolves detects truthfully with probability TruthProb and
// restarts to a uniformly sampled placement of the agents, optionally mixed
// with a structured Hint distribution.
//
// The Hint mechanism implements the paper's remark that "standard
// techniques could be used to avoid restarts with high probability" (§2):
// the restart instruction may pick *any* configuration with the same agent
// total, so an oracle that samples a structured configuration with
// probability HintProb and a uniform placement otherwise still gives every
// configuration persistent positive probability — runs remain fair a.s. —
// while reaching the construction's unique "good" configuration in feasible
// simulation time. (Under the pure uniform oracle the good configuration
// for the n = 2 construction already has probability ≈ 10⁻⁵ per restart.)
type RandomOracle struct {
	Rng *rand.Rand
	// TruthProb is the probability that a detect on a nonzero register
	// reports true. Zero means the default of 0.5.
	TruthProb float64
	// Hint, if non-nil, fills regs with a structured configuration of the
	// same total. It is used for a restart with probability HintProb.
	Hint func(total int64, regs *multiset.Multiset)
	// HintProb is the probability of consulting Hint on restart.
	// Zero disables hinting even if Hint is set.
	HintProb float64
}

var _ Oracle = (*RandomOracle)(nil)

// NewRandomOracle returns a RandomOracle with the default truth probability.
func NewRandomOracle(rng *rand.Rand) *RandomOracle {
	return &RandomOracle{Rng: rng}
}

func (o *RandomOracle) truthProb() float64 {
	if o.TruthProb <= 0 || o.TruthProb > 1 {
		return 0.5
	}
	return o.TruthProb
}

// Detect implements Oracle.
func (o *RandomOracle) Detect(_ int, nonzero bool) bool {
	if !nonzero {
		return false
	}
	return o.Rng.Float64() < o.truthProb()
}

// Restart implements Oracle.
func (o *RandomOracle) Restart(regs *multiset.Multiset) {
	if o.Hint != nil && o.HintProb > 0 && o.Rng.Float64() < o.HintProb {
		o.Hint(regs.Size(), regs)
		return
	}
	sched.RandomComposition(o.Rng, regs, regs.Size())
}

// Status describes how a bounded run ended.
type Status int

// Run statuses.
const (
	// StatusBudget: the step budget was exhausted while the program was
	// still making progress (the usual outcome for stabilising runs, which
	// loop forever).
	StatusBudget Status = iota + 1
	// StatusHalted: the program can make no further progress — Main
	// returned or a move instruction hung on an empty register. The output
	// flag is frozen at its current value.
	StatusHalted
)

// ProcOutcome describes one terminated procedure call (used by the lemma
// tests, which sample post(C, f)).
type ProcOutcome int

// Procedure call outcomes.
const (
	// ProcReturned: the procedure returned normally.
	ProcReturned ProcOutcome = iota + 1
	// ProcRestarted: the procedure executed a restart.
	ProcRestarted
	// ProcHung: a move instruction hung on an empty register.
	ProcHung
	// ProcBudget: the call did not finish within the step budget.
	ProcBudget
)

// String implements fmt.Stringer.
func (o ProcOutcome) String() string {
	switch o {
	case ProcReturned:
		return "returned"
	case ProcRestarted:
		return "restarted"
	case ProcHung:
		return "hung"
	case ProcBudget:
		return "budget"
	default:
		return fmt.Sprintf("ProcOutcome(%d)", int(o))
	}
}

// Interp executes a population program against an oracle.
type Interp struct {
	prog   *Program
	oracle Oracle

	// Regs is the current register configuration (mutable).
	Regs *multiset.Multiset
	// OF is the output flag.
	OF bool
	// Steps counts executed atomic instructions plus loop-condition
	// evaluations (so that `while true { }` still consumes budget).
	Steps int64
	// Restarts counts executed restart instructions.
	Restarts int64
	// LastEvent is the Steps value at the most recent restart or OF
	// change; a long quiet tail is the heuristic stabilisation signal.
	LastEvent int64
	// ProcCalls counts procedure invocations (statement calls and
	// condition calls), indexed by procedure. Used by the ablation
	// experiments to profile where the construction spends its work
	// (e.g. Zero/Large call counts per decision).
	ProcCalls []int64

	budget  int64
	mainIdx int
}

// internal control-flow signals
type signal int

const (
	sigOK signal = iota
	sigReturn
	sigRestart
	sigHang
	sigBudget
)

// NewInterp validates the program and prepares an interpreter over the
// given initial register configuration (taken by reference and mutated).
func NewInterp(prog *Program, oracle Oracle, regs *multiset.Multiset) (*Interp, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if regs.Len() != len(prog.Registers) {
		return nil, fmt.Errorf("popprog %q: configuration has %d registers, program has %d",
			prog.Name, regs.Len(), len(prog.Registers))
	}
	return &Interp{
		prog:      prog,
		oracle:    oracle,
		Regs:      regs,
		ProcCalls: make([]int64, len(prog.Procedures)),
		mainIdx:   prog.ProcIndex("Main"),
	}, nil
}

// Run executes the program (with restarts) for at most budget steps and
// reports how the run ended. It may be called repeatedly to extend a run;
// each call adds `budget` to the allowance.
func (it *Interp) Run(budget int64) Status {
	it.budget = it.Steps + budget
	for {
		sig, _ := it.execStmts(it.prog.Procedures[it.mainIdx].Body)
		switch sig {
		case sigRestart:
			it.doRestart()
		case sigBudget:
			return StatusBudget
		default: // sigOK, sigReturn, sigHang: no further progress possible
			return StatusHalted
		}
	}
}

// QuietSteps returns the number of steps since the last restart or output
// change — the heuristic stabilisation measure used by the experiments.
func (it *Interp) QuietSteps() int64 { return it.Steps - it.LastEvent }

// RunProcedure executes a single named procedure from the current register
// configuration and reports the outcome; it is the sampling primitive for
// post(C, f). The output flag and registers are mutated as the procedure
// dictates; restarts do NOT re-randomise registers (the caller inspects the
// pre-restart state).
func (it *Interp) RunProcedure(name string, budget int64) (ProcOutcome, bool, error) {
	pi := it.prog.ProcIndex(name)
	if pi < 0 {
		return 0, false, fmt.Errorf("popprog %q: no procedure %q", it.prog.Name, name)
	}
	it.budget = it.Steps + budget
	it.ProcCalls[pi]++
	sig, val := it.execStmts(it.prog.Procedures[pi].Body)
	switch sig {
	case sigOK, sigReturn:
		return ProcReturned, val, nil
	case sigRestart:
		return ProcRestarted, false, nil
	case sigHang:
		return ProcHung, false, nil
	default:
		return ProcBudget, false, nil
	}
}

func (it *Interp) doRestart() {
	it.Restarts++
	total := it.Regs.Size()
	it.oracle.Restart(it.Regs)
	if it.Regs.Size() != total {
		panic(fmt.Sprintf("popprog: oracle restart changed the agent count from %d to %d",
			total, it.Regs.Size()))
	}
	it.LastEvent = it.Steps
}

// step consumes one unit of budget; it returns sigBudget when exhausted.
func (it *Interp) step() signal {
	if it.Steps >= it.budget {
		return sigBudget
	}
	it.Steps++
	return sigOK
}

func (it *Interp) execStmts(stmts []Stmt) (signal, bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case Move:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			if it.Regs.Count(st.From) == 0 {
				return sigHang, false
			}
			it.Regs.Move(st.From, st.To)
		case Swap:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			it.Regs.Swap(st.A, st.B)
		case SetOF:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			if it.OF != st.Value {
				it.OF = st.Value
				it.LastEvent = it.Steps
			}
		case Restart:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			return sigRestart, false
		case Return:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			return sigReturn, st.Value
		case Call:
			if sig := it.step(); sig != sigOK {
				return sig, false
			}
			it.ProcCalls[st.Proc]++
			sig, _ := it.execStmts(it.prog.Procedures[st.Proc].Body)
			if sig != sigOK && sig != sigReturn {
				return sig, false
			}
		case If:
			v, sig := it.evalCond(st.Cond)
			if sig != sigOK {
				return sig, false
			}
			branch := st.Then
			if !v {
				branch = st.Else
			}
			if sig, val := it.execStmts(branch); sig != sigOK {
				return sig, val
			}
		case While:
			for {
				v, sig := it.evalCond(st.Cond)
				if sig != sigOK {
					return sig, false
				}
				if !v {
					break
				}
				if sig, val := it.execStmts(st.Body); sig != sigOK {
					return sig, val
				}
			}
		default:
			panic(fmt.Sprintf("popprog: unknown statement %T (validation should have caught this)", s))
		}
	}
	return sigOK, false
}

func (it *Interp) evalCond(c Cond) (bool, signal) {
	switch cd := c.(type) {
	case Detect:
		if sig := it.step(); sig != sigOK {
			return false, sig
		}
		nonzero := it.Regs.Count(cd.Reg) > 0
		got := it.oracle.Detect(cd.Reg, nonzero)
		if got && !nonzero {
			panic("popprog: oracle certified a zero register as nonzero")
		}
		return got, sigOK
	case CallCond:
		if sig := it.step(); sig != sigOK {
			return false, sig
		}
		it.ProcCalls[cd.Proc]++
		sig, val := it.execStmts(it.prog.Procedures[cd.Proc].Body)
		if sig == sigOK {
			// A boolean procedure fell off its end without returning;
			// validation allows this syntactically, treat as false.
			return false, sigOK
		}
		if sig != sigReturn {
			return false, sig
		}
		return val, sigOK
	case Not:
		v, sig := it.evalCond(cd.C)
		return !v, sig
	case And:
		v, sig := it.evalCond(cd.L)
		if sig != sigOK || !v {
			return false, sig
		}
		return it.evalCond(cd.R)
	case Or:
		v, sig := it.evalCond(cd.L)
		if sig != sigOK {
			return false, sig
		}
		if v {
			return true, sigOK
		}
		return it.evalCond(cd.R)
	case True:
		// Count a step so that `while true {}` cannot spin for free.
		if sig := it.step(); sig != sigOK {
			return false, sig
		}
		return true, sigOK
	default:
		panic(fmt.Sprintf("popprog: unknown condition %T", c))
	}
}
