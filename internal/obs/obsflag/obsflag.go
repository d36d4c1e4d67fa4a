// Package obsflag wires the shared telemetry flags (-metrics,
// -metrics-interval, -pprof) into a binary's flag set and manages the
// telemetry lifecycle around its run. All five binaries that record
// telemetry (ppsim, ppexperiments, ppverify, ppstate, ppserved) use it so
// the flags mean the same thing everywhere:
//
//	-metrics             print one JSON telemetry snapshot to stderr on exit
//	-metrics-interval D  additionally emit a snapshot line every D while running
//	-pprof ADDR          serve net/http/pprof and expvar on ADDR
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

// Flags holds the parsed telemetry flag values.
type Flags struct {
	Metrics  bool
	Interval time.Duration
	Pprof    string
}

// Register adds the telemetry flags to fs and returns the value holder,
// populated after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print a JSON telemetry snapshot to stderr on exit")
	fs.DurationVar(&f.Interval, "metrics-interval", 0,
		"emit a JSON telemetry snapshot line to stderr at this interval while running (0 = off; implies -metrics collection)")
	fs.StringVar(&f.Pprof, "pprof", "",
		"serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return f
}

// Start validates the flag values and, if any telemetry was requested,
// enables the process-wide metric set, starts the periodic emitter and the
// debug server. The returned stop function emits the final -metrics
// snapshot to w, halts the emitter, and disables telemetry again (so
// in-process callers, e.g. tests, leave no global state behind); it is safe
// to call when no telemetry was requested.
func (f *Flags) Start(w io.Writer) (stop func(), err error) {
	if f.Interval < 0 {
		return nil, fmt.Errorf("-metrics-interval must be ≥ 0, got %v", f.Interval)
	}
	if !f.Metrics && f.Interval == 0 && f.Pprof == "" {
		return func() {}, nil
	}
	obs.Enable()
	if f.Pprof != "" {
		if _, err := obshttp.Serve(f.Pprof); err != nil {
			obs.Disable()
			return nil, fmt.Errorf("-pprof %s: %w", f.Pprof, err)
		}
	}
	stopEmit := func() {}
	if f.Interval > 0 {
		stopEmit = obs.StartEmitter(w, f.Interval)
	}
	return func() {
		stopEmit()
		if f.Metrics {
			_ = obs.WriteJSON(w)
		}
		obs.Disable()
	}, nil
}
