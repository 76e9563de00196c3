package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"pqfastscan"
)

func TestQuantileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // only nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.50, 50, true},
	}
	for _, c := range cases {
		got := quantile(seq(c.n), c.q)
		if got.Value != c.want || got.OK != c.ok || got.N != c.n {
			t.Errorf("quantile(1..%d, %v) = %+v, want value %v ok %v", c.n, c.q, got, c.want, c.ok)
		}
	}
	if q := quantile(nil, 0.5); q.OK || q.N != 0 {
		t.Errorf("quantile of an empty sample = %+v, want not OK", q)
	}

	var r report
	r.Metrics, r.Samples = map[string]metric{}, map[string]int{}
	if err := r.setQ("search_p99_ms", quantile(seq(999), 0.99)); err == nil {
		t.Error("setQ accepted a p99 with nine samples beyond it")
	}
	if err := r.setQ("search_p99_ms", quantile(seq(1000), 0.99)); err != nil || r.Samples["search_p99_ms"] != 1000 {
		t.Errorf("setQ(p99 of 1000) = %v, samples %d", err, r.Samples["search_p99_ms"])
	}
}

func TestSelfTime(t *testing.T) {
	at := func(lo, hi int) Span {
		return Span{Start: time.Duration(lo), End: time.Duration(hi)}
	}
	parent := at(0, 100)
	cases := []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{at(10, 20), at(50, 70)}, 70},
		{"overlap counted once", []Span{at(10, 30), at(20, 40)}, 70},
		{"nested", []Span{at(10, 60), at(20, 30)}, 50},
		{"clipped to parent", []Span{at(-10, 10), at(90, 120)}, 80},
		{"outside ignored", []Span{at(150, 160)}, 100},
		{"covers all", []Span{at(0, 50), at(40, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderSpans(t *testing.T) {
	var nilRec *Recorder
	nilRec.End(nilRec.Begin("x", 0, 1)) // a nil recorder records nothing

	rec := newRecorder()
	root := rec.Begin("root", 0, 7)
	a := rec.Begin("a", root, 7)
	rec.End(a)
	b := rec.Begin("a", root, 7)
	rec.End(b)
	open := rec.Begin("unfinished", root, 7)
	_ = open
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3", len(spans))
	}
	kids := childrenOf(spans)
	if len(kids[root]) != 2 {
		t.Errorf("root has %d closed children, want 2", len(kids[root]))
	}
	per := byQuery(spans)
	if want := spans[1].Dur() + spans[2].Dur(); per[7]["a"] != want {
		t.Errorf("byQuery sums %v for a, want %v", per[7]["a"], want)
	}
	var rootSpan Span
	for _, s := range spans {
		if s.ID == root {
			rootSpan = s
		}
	}
	if got, want := selfTime(rootSpan, kids[root]), rootSpan.Dur()-per[7]["a"]; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the unit table and BENCHMARK.json
// in step: every declared metric has the unit the benchmark reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		declared[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for name := range units {
		if !declared[name] {
			t.Errorf("%s is reported but not declared in BENCHMARK.json", name)
		}
	}
}

// tinyData is a scale at which every workload sets up in about a second.
var tinyData = DataSpec{CorpusSeed: 9, Base: 3000, Learn: 1500, Partitions: 16, QueryPool: 32, RecallQueries: 16, TraceQueries: 16, Candidates: 2100, PoolFraction: 0.25}

// tinySeconds is the smoke runs' load length: with tiny's rates, the
// traced run's 1.8 s open-loop phase still gives each p99 ten samples
// beyond it.
const tinySeconds = 3

// tiny sets rates a tiny index serves without a backlog.
func tiny(w Workload) Workload {
	w.OpenRate = 1000
	if w.WriteRate > 0 {
		w.WriteRate = 600
	}
	return w
}

// TestSmokeAllWorkloads runs every workload end to end at tiny scale,
// untraced and traced, through the correctness gate, and checks that
// each run reports exactly the metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	for _, bw := range b.Workloads {
		w, err := cfg.workload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(tinyData, tiny(w), 3, tinySeconds, traced, t.TempDir(), "", testWriter{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d failed of %d", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := names(b.EndToEnd)
			if traced {
				want = names(b.PerLayer)
			}
			if got := slices.Sorted(maps.Keys(rep.Metrics)); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.Name, traced, got, want)
			}
		}
	}
}

// TestGateRejectsWrongAnswers checks that the gate fails when a served
// answer differs from the in-process one by a single distance bit.
func TestGateRejectsWrongAnswers(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cfg.workload("scan-k100-np4")
	if err != nil {
		t.Fatal(err)
	}
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 5})
	learn, base, pool := gen.Generate(tinyData.Learn), gen.Generate(tinyData.Base), gen.Generate(4)
	ix, err := buildIndex(tinyData, learn, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(ix, w, pool)
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve(w, ix, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	bodies := make([][]byte, pool.Rows())
	for i := range bodies {
		bodies[i] = searchBody(w, pool.Row(i))
	}
	if _, _, err := gate(c, st.url, bodies, want); err != nil {
		t.Fatalf("gate on correct answers: %v", err)
	}
	last := &want[2][len(want[2])-1]
	last.Distance = math.Nextafter32(last.Distance, float32(math.Inf(1)))
	if _, _, err := gate(c, st.url, bodies, want); err == nil {
		t.Fatal("gate accepted a served answer that differs from Index.Query")
	}

	wr := &writer{url: st.url, vectors: pool}
	live := ix.Live()
	for i := 0; i < 4; i++ {
		if ok, wrong, note := wr.do(c, i, nil); !ok || wrong {
			t.Fatalf("write %d: %s", i, note)
		}
	}
	if err := checkLedger(c, st.url, live, wr); err != nil {
		t.Fatalf("ledger after balanced writes: %v", err)
	}
	wr.AckedAdds++ // an acknowledged add the index does not count
	if err := checkLedger(c, st.url, live, wr); err == nil {
		t.Fatal("ledger check accepted a missing acknowledged add")
	}
}

// testWriter sends a run's informational lines to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestGroundTruthCache checks that a cached ground truth is reused only
// for the same inputs and equals the computed one.
func TestGroundTruthCache(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 4})
	base, queries := gen.Generate(500), gen.Generate(6)
	want, err := groundTruth(base, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ { // computed, then read back
		got, err := groundTruthCached(dir, base, queries, 2)
		if err != nil {
			t.Fatal(err)
		}
		for q := range want {
			if got[q][0] != want[q][0] {
				t.Fatalf("pass %d query %d: nearest %d, want %d", i, q, got[q][0], want[q][0])
			}
		}
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("cache holds %d files, want 1", len(files))
	}
	queries.Row(0)[0]++ // other inputs must not hit the cached file
	if _, err := groundTruthCached(dir, base, queries, 2); err != nil {
		t.Fatal(err)
	}
	if files, _ = os.ReadDir(dir); len(files) != 2 {
		t.Fatalf("cache holds %d files after new inputs, want 2", len(files))
	}
}
