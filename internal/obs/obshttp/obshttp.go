// Package obshttp serves the live debug endpoints of a long-running
// invocation: net/http/pprof profiles under /debug/pprof/ and expvar
// (including the current obs snapshot, published as "obs") under
// /debug/vars. It is separate from package obs so that binaries which never
// enable -pprof do not link the HTTP stack into instrumented libraries.
package obshttp

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"

	"repro/internal/obs"
)

var publishOnce sync.Once

// Publish registers the current obs metric set as the expvar variable
// "obs" (null while telemetry is disabled). It is idempotent; Serve and any
// server embedding Handler call it.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return obs.Current() }))
	})
}

// Handler returns the debug handler tree (net/http/pprof under /debug/pprof/
// and expvar — including "obs" — under /debug/vars), for embedding into a
// server's own mux under the /debug/ prefix. The pprof and expvar packages
// register themselves on http.DefaultServeMux at init, which is exactly the
// tree returned here.
func Handler() http.Handler {
	Publish()
	return http.DefaultServeMux
}

// Serve publishes the obs snapshot through expvar and serves the default
// mux (pprof + expvar debug endpoints) on addr in a background goroutine.
// It returns the bound address (useful with a ":0" port) once the listener
// is up, so address errors surface immediately; serving errors after that
// are dropped (the debug server is best-effort and dies with the process).
func Serve(addr string) (string, error) {
	Publish()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
