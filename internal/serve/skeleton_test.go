package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// convertedSkeleton returns the skeleton writeSkeleton persists for prog's
// conversion (optimized or plain), through a fresh cache.
func convertedSkeleton(tb testing.TB, prog *popprog.Program, optimize bool) *cacheSkeleton {
	tb.Helper()
	res, report, key, err := NewCache(1).Convert(prog, optimize)
	if err != nil {
		tb.Fatal(err)
	}
	return &cacheSkeleton{
		Key:         key,
		Fingerprint: res.Protocol.Fingerprint(),
		Protocol:    res.Protocol,
		NumPointers: res.NumPointers,
		CoreStates:  res.CoreStates,
		Report:      report,
	}
}

// checkSkeletonBytes fails unless appendSkeleton writes exactly the bytes
// json.Marshal does, both on an empty and on a non-empty dst.
func checkSkeletonBytes(tb testing.TB, name string, skel *cacheSkeleton) {
	tb.Helper()
	want, err := json.Marshal(skel)
	if err != nil {
		tb.Fatalf("%s: json.Marshal: %v", name, err)
	}
	got, err := appendSkeleton(nil, skel)
	if err != nil {
		tb.Fatalf("%s: appendSkeleton: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		tb.Fatalf("%s: encoder differs from json.Marshal at byte %d of %d/%d:\n got …%.80s\nwant …%.80s",
			name, i, len(got), len(want), got[i:], want[i:])
	}
	prefixed, err := appendSkeleton([]byte("xy"), skel)
	if err != nil || string(prefixed[:2]) != "xy" || !bytes.Equal(prefixed[2:], want) {
		tb.Fatalf("%s: appendSkeleton does not append to a non-empty dst", name)
	}
}

// TestSkeletonBytesMatchMarshal pins the skeleton encoder to encoding/json:
// for the paper's converted protocols, every baseline, nil and empty
// slices, a report or none, and names that encoding/json escapes, the
// bytes appendSkeleton writes are json.Marshal's. Skeleton files therefore
// do not depend on which of the two wrote them.
func TestSkeletonBytesMatchMarshal(t *testing.T) {
	czerner, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	converted := []struct {
		name     string
		prog     *popprog.Program
		optimize bool
	}{
		{"figure1", popprog.Figure1Program(), false},
		{"figure1:opt", popprog.Figure1Program(), true},
		{"czerner1:opt", czerner.Program, true},
	}
	for _, c := range converted {
		skel := convertedSkeleton(t, c.prog, c.optimize)
		if (skel.Report != nil) != c.optimize {
			t.Fatalf("%s: report %v, want one iff optimized", c.name, skel.Report)
		}
		checkSkeletonBytes(t, c.name, skel)
		// writeSkeleton's buffer is sized so that it never grows.
		if data, _ := appendSkeleton(nil, skel); len(data) > skeletonSize(skel.Protocol) {
			t.Fatalf("%s: skeleton of %d bytes outgrows its %d-byte estimate",
				c.name, len(data), skeletonSize(skel.Protocol))
		}
	}

	baselines := map[string]func() (*protocol.Protocol, error){
		"majority":       baseline.Majority,
		"unary:5":        func() (*protocol.Protocol, error) { return baseline.UnaryThreshold(5) },
		"binary:3":       func() (*protocol.Protocol, error) { return baseline.BinaryThreshold(3) },
		"binarygeneral":  func() (*protocol.Protocol, error) { return baseline.BinaryThresholdGeneral(13) },
		"remainder:3, 1": func() (*protocol.Protocol, error) { return baseline.Remainder(3, 1) },
	}
	for name, build := range baselines {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		checkSkeletonBytes(t, name, &cacheSkeleton{Key: name, Fingerprint: p.Fingerprint(), Protocol: p})
	}

	p, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	report := &convert.OptReport{Name: "m", Pipeline: convert.PipelineTag}
	for _, v := range []struct {
		name   string
		mutate func(*protocol.Protocol)
		report *convert.OptReport
	}{
		{"nil transitions", func(p *protocol.Protocol) { p.Transitions = nil }, nil},
		{"empty transitions", func(p *protocol.Protocol) { p.Transitions = []protocol.Transition{} }, report},
		{"nil input", func(p *protocol.Protocol) { p.Input = nil }, report},
		{"empty input", func(p *protocol.Protocol) { p.Input = []int{} }, nil},
		{"nil states and accepting", func(p *protocol.Protocol) { p.States, p.Accepting = nil, nil }, nil},
		{"escaped names", func(p *protocol.Protocol) {
			p.Name = "<a>&\"b\"\\c\u2028d\u2029\xffé\x00"
			p.States = []string{"<q>", "r&s", `"t"`, `u\v`, "w\u2028x", "bad\xfe\xffutf8", "ünïcödé ✓", "tab\tnl\n"}
			p.Accepting = make([]bool, len(p.States))
			p.Transitions = []protocol.Transition{{Q: 7, R: 6, Q2: 5, R2: 4}, {Q: -1, R: 1 << 30, Q2: 0, R2: 9}}
		}, nil},
	} {
		q := *p
		q.Transitions = append([]protocol.Transition(nil), p.Transitions...)
		v.mutate(&q)
		checkSkeletonBytes(t, v.name, &cacheSkeleton{Key: "k<&>\u2028", Fingerprint: "f", Protocol: &q,
			NumPointers: -3, CoreStates: 1 << 40, Report: v.report})
	}
	checkSkeletonBytes(t, "nil protocol", &cacheSkeleton{Key: "k"})
}

// FuzzSkeletonEncode holds the skeleton encoder to json.Marshal on
// arbitrary names and small transition tables: names split on '|' into
// states, each 4 bytes of table one transition of signed indices.
func FuzzSkeletonEncode(f *testing.F) {
	f.Add("key", "proto", "a|b|c", []byte{0, 1, 2, 0, 1, 1, 0, 0}, []byte{0, 2}, true)
	f.Add("k\u2028", "<&>", "\"|\\|\xff", []byte{}, []byte(nil), false)
	f.Add("", "", "", []byte(nil), []byte{}, true)
	f.Fuzz(func(t *testing.T, key, name, states string, table, input []byte, report bool) {
		p := &protocol.Protocol{Name: name}
		if states != "" {
			p.States = strings.Split(states, "|")
			for _, s := range p.States {
				p.Accepting = append(p.Accepting, len(s)%2 == 0)
			}
		}
		if table != nil {
			p.Transitions = []protocol.Transition{}
		}
		for i := 0; i+4 <= len(table); i += 4 {
			p.Transitions = append(p.Transitions, protocol.Transition{
				Q: int32(int8(table[i])), R: int32(table[i+1]) << 20,
				Q2: int32(int8(table[i+2])) * 1000, R2: int32(table[i+3])})
		}
		if input != nil {
			p.Input = []int{}
		}
		for _, b := range input {
			p.Input = append(p.Input, int(int8(b)))
		}
		skel := &cacheSkeleton{Key: key, Fingerprint: name, Protocol: p, NumPointers: len(table), CoreStates: -len(input)}
		if report {
			skel.Report = &convert.OptReport{Name: name, Pipeline: key}
		}
		checkSkeletonBytes(t, "fuzz", skel)
	})
}

// benchSkeleton is the shrunk Figure 1 conversion the skeleton benchmarks
// encode, built once.
var benchSkeleton = sync.OnceValues(func() (*cacheSkeleton, error) {
	res, report, key, err := NewCache(1).Convert(popprog.Figure1Program(), true)
	if err != nil {
		return nil, err
	}
	return &cacheSkeleton{Key: key, Protocol: res.Protocol, NumPointers: res.NumPointers,
		CoreStates: res.CoreStates, Report: report}, nil
})

// BenchmarkSkeletonWrite times what writeSkeleton does before its file
// write on the shrunk Figure 1 protocol: fingerprint the protocol, size the
// buffer and encode the skeleton.
func BenchmarkSkeletonWrite(b *testing.B) {
	skel, err := benchSkeleton()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := *skel
		s.Fingerprint = s.Protocol.Fingerprint()
		data, err := appendSkeleton(make([]byte, 0, skeletonSize(s.Protocol)), &s)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkFingerprint times Protocol.Fingerprint on the shrunk Figure 1
// protocol.
func BenchmarkFingerprint(b *testing.B) {
	skel, err := benchSkeleton()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		skel.Protocol.Fingerprint()
	}
}
