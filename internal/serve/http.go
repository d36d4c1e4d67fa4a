package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

// maxBodyBytes bounds submitted job documents (inline program source
// included), so a single request cannot balloon server memory.
const maxBodyBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST /api/v1/jobs             submit a job        → 202 | 400 | 413 | 429
//	GET  /api/v1/jobs             list jobs           → 200
//	GET  /api/v1/jobs/{id}        job status          → 200 | 404
//	GET  /api/v1/jobs/{id}/result terminal result     → 200 | 404 | 409
//	POST /api/v1/jobs/{id}/cancel cancel a job        → 200 | 404
//	GET  /api/v1/jobs/{id}/stream NDJSON status+obs   → 200 | 400 | 404
//	GET  /api/v1/healthz          liveness + queue    → 200
//	/debug/...                    expvar + pprof (obshttp)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.Handle("/debug/", obshttp.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorDoc{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	// A submission is one JSON document; trailing garbage is a client bug.
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "trailing data after job document")
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID      string    `json:"id"`
		Kind    string    `json:"kind"`
		Status  string    `json:"status"`
		Created time.Time `json:"created"`
	}
	jobs := s.List()
	out := make([]summary, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, summary{ID: j.ID, Kind: j.Spec.Kind, Status: j.Status, Created: j.Created})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.Get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.Get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	if !j.terminal() {
		writeErr(w, http.StatusConflict, "job is "+j.Status+"; result not ready")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	status := s.Cancel(r.PathValue("id"))
	if status == "" {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": r.PathValue("id"), "status": status})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"queue_depth": len(s.queue),
		"queue_cap":   cap(s.queue),
	})
}

// streamLine is one NDJSON record of a job stream: the job's live status
// and progress plus, when telemetry is enabled, the process-wide obs metric
// set that /debug/vars also exposes; it is not scoped to the job.
type streamLine struct {
	ID        string       `json:"id"`
	Status    string       `json:"status"`
	Completed int          `json:"completed,omitempty"`
	Total     int          `json:"total,omitempty"`
	Obs       *obs.Metrics `json:"obs,omitempty"`
}

// handleStream writes a line at once, at every change of the job's status
// or progress, and every interval_ms (default 200, in [10, 60000]) between
// changes. It ends after the terminal line, when the client goes away, or
// after one last line once the server has closed.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Get(id) == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	interval := 200 * time.Millisecond
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 10 || ms > 60_000 {
			writeErr(w, http.StatusBadRequest, "interval_ms must be an integer in [10, 60000], got "+strconv.Quote(v))
			return
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	if met := obs.Serve(); met != nil {
		met.StreamClients.Inc()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for last := false; ; {
		j, changed := s.watch(id)
		line := streamLine{ID: j.ID, Status: j.Status, Completed: j.Completed, Total: j.Total, Obs: obs.Current()}
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if j.terminal() || last {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stopped:
			last = true
		case <-changed:
		case <-ticker.C:
		}
	}
}
