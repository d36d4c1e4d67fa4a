package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"time"
)

// MarshalJSON writes the exploration group's instruments beside the derived
// states_per_sec: States divided by the engine-internal wall time.
func (e *ExploreMetrics) MarshalJSON() ([]byte, error) {
	type fields ExploreMetrics // the same fields without this method
	var rate float64
	if n := e.Nanos.Load(); n > 0 {
		rate = float64(e.States.Load()) / (float64(n) / 1e9)
	}
	return json.Marshal(struct {
		*fields
		StatesPerSec float64 `json:"states_per_sec"`
	}{(*fields)(e), rate})
}

// zeroSet is the never-touched set whose groups' bytes MarshalJSON
// compares against.
var zeroSet Metrics

// MarshalJSON writes the groups sched, sim, explore, serve and opt, in that
// order, leaving out each group that marshals to the same bytes as its zero
// value, i.e. that observed nothing. A written group carries every
// instrument. It is safe to call concurrently with live instrumentation;
// each instrument is exact at its read point. This is what -metrics prints
// and what /debug/vars exposes.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	groups := []struct {
		name       string
		live, zero any
	}{
		{"sched", &m.sched, &zeroSet.sched},
		{"sim", &m.sim, &zeroSet.sim},
		{"explore", &m.explore, &zeroSet.explore},
		{"serve", &m.serve, &zeroSet.serve},
		{"opt", &m.opt, &zeroSet.opt},
	}
	out := []byte{'{'}
	for _, g := range groups {
		live, err := json.Marshal(g.live)
		if err != nil {
			return nil, err
		}
		empty, err := json.Marshal(g.zero)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(live, empty) {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		out = append(out, `"`+g.name+`":`...)
		out = append(out, live...)
	}
	return append(out, '}'), nil
}

// WriteJSON writes the process-wide metric set to w as a single JSON line:
// null when telemetry is disabled, so callers always emit well-formed JSON.
func WriteJSON(w io.Writer) error {
	enc, err := json.Marshal(Current())
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// StartEmitter writes one snapshot line to w immediately and then every
// interval, until the returned stop function is called. Emission errors stop
// the emitter silently (progress lines are best-effort). stop waits for the
// emitter goroutine to exit, so it is safe to close or reuse w afterwards.
func StartEmitter(w io.Writer, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if WriteJSON(w) != nil {
			return
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if WriteJSON(w) != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
