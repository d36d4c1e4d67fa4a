package simulate

import (
	"fmt"

	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// SweepPoint is one measured point of a convergence sweep.
type SweepPoint struct {
	// Inputs is the input-count vector of this point.
	Inputs []int64
	// Stats aggregates the repeated runs at this point.
	Stats *ConvergenceStats
	// Err records a per-point failure (budget exhaustion); the sweep
	// continues past failed points.
	Err error
}

// Trace records the output trajectory of a run: a time series of
// (step, #accepting agents) samples, suitable for plotting convergence
// curves. The ring of samples is bounded; sampling is periodic.
type Trace struct {
	// Period is the sampling period in scheduler steps.
	Period int64
	// Steps holds the sampled step indices.
	Steps []int64
	// Accepting holds the number of agents in accepting states per sample.
	Accepting []int64
	// Population is the (constant) population size.
	Population int64
}

// RunTraced is Run with periodic sampling of the accepting-agent count:
// the scheduler is wrapped so every step is observed and every `period`-th
// step records a sample. The wrapper has no StepN, so Run drives it per
// step whatever the inner scheduler.
func RunTraced(p *protocol.Protocol, counts []int64, s sched.Scheduler,
	period int64, opts Options) (*Result, *Trace, error) {
	if period < 1 {
		period = 1
	}
	c, err := p.InitialConfig(counts...)
	if err != nil {
		return nil, nil, err
	}
	sampler := &samplingScheduler{inner: s, p: p, period: period}
	res, err := Run(p, c, sampler, opts)
	// Always record the final configuration as the last sample, so the
	// trace ends at the stabilised value even when the run stops between
	// period boundaries.
	sampler.sample(c, true)
	trace := &Trace{
		Period:     period,
		Population: c.Size(),
		Steps:      sampler.steps,
		Accepting:  sampler.accepting,
	}
	return res, trace, err
}

// samplingScheduler intercepts Step calls to record accepting counts.
type samplingScheduler struct {
	inner     sched.Scheduler
	p         *protocol.Protocol
	period    int64
	count     int64
	steps     []int64
	accepting []int64
}

var _ sched.Scheduler = (*samplingScheduler)(nil)

func (s *samplingScheduler) Step(c *multiset.Multiset) bool {
	changed := s.inner.Step(c)
	s.count++
	if s.count%s.period == 0 {
		s.sample(c, false)
	}
	return changed
}

func (s *samplingScheduler) sample(c *multiset.Multiset, force bool) {
	if force && len(s.steps) > 0 && s.steps[len(s.steps)-1] == s.count {
		return // the last period boundary was the final step
	}
	var acc int64
	for i, isAcc := range s.p.Accepting {
		if isAcc {
			acc += c.Count(i)
		}
	}
	s.steps = append(s.steps, s.count)
	s.accepting = append(s.accepting, acc)
}

// String renders the trace compactly for logs.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%d samples, period %d, population %d}",
		len(t.Steps), t.Period, t.Population)
}
