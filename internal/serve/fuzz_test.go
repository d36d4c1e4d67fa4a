package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSubmitJob fuzzes the submission endpoint end to end: arbitrary bodies
// hit the real HTTP handler, the strict JSON decoder, the spec validator,
// and — through the program field — the population-program parser. The
// invariant: the server answers every body with one of the documented
// status codes and a well-formed JSON document, and never panics (a panic
// would kill the fuzz process).
func FuzzSubmitJob(f *testing.F) {
	seeds := []string{
		`{"kind":"simulate","target":"majority","input":[6,4]}`,
		`{"kind":"simulate","target":"unary:3","input":[9],"runs":2,"kernel":"auto"}`,
		`{"kind":"sweep","target":"majority","inputs":[[5,2],[9,4]],"checkpoint":"s1"}`,
		`{"kind":"explore","target":"majority","input":[2,1],"max_states":100}`,
		`{"kind":"simulate","program":"program p\nregisters a\n\nproc Main {\n  of true\n}\n","input":[3]}`,
		`{"kind":"simulate","program":"program counter\nregisters a, b\n\nproc Main {\n  while detect a {\n    move a -> b\n  }\n  of true\n}\n","input":[5]}`,
		`{"kind":"simulate","program":"program broken\nproc {","input":[3]}`,
		`{"kind":`,
		`[]`,
		`null`,
		`{"kind":"simulate","target":"majority","input":[6,4],"unknown_field":true}`,
		`{"kind":"sweep","target":"majority","inputs":[[1,0]],"checkpoint":"../escape"}`,
		`{"kind":"simulate","target":"majority","input":[9223372036854775807,1]}`,
		"\x00\xff garbage",
		strings.Repeat(`{"a":`, 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv, err := New(Config{Workers: -1, QueueDepth: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	f.Fuzz(func(t *testing.T, body string) {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q", resp.StatusCode, body)
		}
		if !json.Valid(data) {
			t.Fatalf("non-JSON response %q for body %q", data, body)
		}
	})
}
