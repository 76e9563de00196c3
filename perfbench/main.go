// Command perfbench is the repository's served benchmark. It builds a
// seeded synthetic index, serves it over loopback through the real
// internal/server (and internal/cluster for the fleet workload), drives
// one workload from this process, checks every answer, and prints each
// metric by name with its unit and sample count. The last line of its
// output is one JSON object: correct, attempted, failed and metrics.
//
//	go run . --workload scan-k100-np4 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the workload's query sample through every layer's public
// function and reports per-layer metrics instead. README.md defines
// every workload and metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
	"unsafe"

	"pqfastscan"
	"pqfastscan/internal/index"
	"pqfastscan/internal/rng"
)

//go:embed workloads.json
var workloadsJSON []byte

// DataSpec is the synthetic data every workload shares.
type DataSpec struct {
	CorpusSeed    uint64 `json:"corpus_seed"`
	Base          int    `json:"base"`
	Learn         int    `json:"learn"`
	Partitions    int    `json:"partitions"`
	QueryPool     int    `json:"query_pool"`
	RecallQueries int    `json:"recall_queries"`
	TraceQueries  int    `json:"trace_queries"`
	// Candidates is how many further vectors the seed draws the query
	// pool and the write vectors from.
	Candidates int `json:"candidates"`
	// PoolFraction bounds the buffer pool of the traced run's paged
	// replay at this share of the extent footprint.
	PoolFraction float64 `json:"pool_fraction"`
}

// Workload is one traffic mix over one serving topology.
type Workload struct {
	Name   string `json:"name"`
	K      int    `json:"k"`
	NProbe int    `json:"nprobe"`
	// OpenRate is the open-loop phase's read rate, per second.
	OpenRate float64 `json:"open_rate"`
	// WriteRate, when positive, runs a fixed-rate /add and /delete
	// stream beside the reads of both phases.
	WriteRate float64 `json:"write_rate"`
	// Shards > 1 serves the index from that many RestrictCells shards
	// behind a cluster.Router.
	Shards int  `json:"shards"`
	WAL    bool `json:"wal"`
	// WALSyncIntervalMs, when positive, acknowledges writes once they are
	// written to the log and fsyncs it in the background at this interval
	// (the server's WALSyncInterval) instead of on every write.
	WALSyncIntervalMs int     `json:"wal_sync_interval_ms"`
	CompactIntervalMs int     `json:"compact_interval_ms"`
	CompactThreshold  float64 `json:"compact_threshold"`
}

// Config is the parsed workloads.json.
type Config struct {
	Data      DataSpec   `json:"data"`
	Workloads []Workload `json:"workloads"`
}

func loadConfig() (Config, error) {
	var cfg Config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return cfg, fmt.Errorf("parse workloads.json: %w", err)
	}
	return cfg, nil
}

func (c Config) workload(name string) (Workload, error) {
	var names []string
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// units names the unit of every metric the benchmark can report.
var units = map[string]string{
	"search_p50_ms":         "ms",
	"search_p99_ms":         "ms",
	"search_qps":            "1/s",
	"recall_at_10":          "ratio",
	"write_p50_ms":          "ms",
	"write_p99_ms":          "ms",
	"setup_s":               "s",
	"heap_bytes_per_vector": "bytes",

	"index.route_us":              "us",
	"quantizer.lut_us":            "us",
	"scan.ns_per_vector":          "ns",
	"scan.pruned_ratio":           "ratio",
	"scan.candidates_per_query":   "count",
	"scan.keep_per_query":         "count",
	"scan.kernel_ns_per_code":     "ns",
	"topk.merge_us":               "us",
	"index.query_us":              "us",
	"index.self_us":               "us",
	"index.alloc_bytes_per_query": "bytes",
	"index.add_us":                "us",
	"server.http_rtt_us":          "us",
	"server.search_us":            "us",
	"server.self_us":              "us",
	"server.batch_avg_width":      "count",
	"server.shed":                 "count",
	"cluster.search_us":           "us",
	"cluster.self_us":             "us",
	"cluster.failovers":           "count",
	"cluster.hedges":              "count",
	"cluster.retries":             "count",
	"wal.fsyncs_per_write":        "count",
	"wal.bytes_per_write":         "bytes",
	"compaction.runs":             "count",
	"compaction.reclaimed":        "count",
	"bufpool.hit_ratio":           "ratio",
	"bufpool.misses_per_query":    "count",
	"bufpool.evictions_per_query": "count",
	"bufpool.query_us":            "us",
	"loadgen.late_p99_ms":         "ms",
	"trace.overhead_pct":          "%",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result. Samples holds each metric's sample count
// for the human-readable lines; it is not part of the JSON result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"-"`
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, Samples: map[string]int{}}
}

// set records a metric taken from n samples.
func (r *report) set(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
	r.Samples[name] = n
}

// setQ records a percentile, failing when the sample is too small to
// support it.
func (r *report) setQ(name string, q Quantile) error {
	if !q.OK {
		return fmt.Errorf("%s: only %d samples, too few for %d beyond the percentile; raise --seconds", name, q.N, minTail)
	}
	r.set(name, q.Value, q.N)
	return nil
}

// absorb counts a phase's operations into the run's totals.
func (r *report) absorb(p phaseResult) {
	r.Attempted += p.Reads + p.Writes
	r.Failed += p.Failed
	if p.Wrong > 0 {
		r.Correct = false
	}
}

// hostInfo is the fingerprint printed with every result: compare
// results only between runs whose fingerprints match.
type hostInfo struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPUFeatures []string `json:"cpu_features"`
	Backend     string   `json:"backend"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: pqfastscan.CPUFeatures(),
		Backend:     pqfastscan.ActiveBackend().String(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Uint64("seed", 1, "seed of the data, queries and writes")
	seconds := fs.Float64("seconds", 10, "measured seconds of load")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := cfg.workload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}
	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep, err := runWorkload(cfg.Data, w, *seed, *seconds, *trace == 1, dir, filepath.Join(".bench_build", "cache"), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[n]
		fmt.Fprintf(stdout, "metric %-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, rep.Samples[n])
	}
	fmt.Fprintf(stdout, "fail_ratio %.6g (%d failed of %d attempted)\n",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// errGate marks a failed correctness check.
var errGate = errors.New("correctness gate failed")

// runWorkload sets the workload up, checks it, measures it and tears it
// down. dir holds the run's WAL and extent files; cacheDir, when set,
// keeps the untimed ground truth across runs. Informational lines go to
// out.
func runWorkload(d DataSpec, w Workload, seed uint64, seconds float64, traced bool, dir, cacheDir string, out io.Writer) (*report, error) {
	nproc := runtime.NumCPU()
	rep := newReport()

	// Inputs. The corpus and the recall sample come from data.corpus_seed,
	// so set-up work and recall are the same in every run and a change in
	// either is the program's doing. The seed draws the load's query
	// stream and write vectors from further vectors of the same mixture.
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: d.CorpusSeed})
	learn := gen.Generate(d.Learn)
	base := gen.Generate(d.Base)
	queries := gen.Generate(d.RecallQueries + d.QueryPool) // recall sample, then the pool
	candidates := gen.Generate(d.Candidates)
	perm := rng.New(seed).Perm(candidates.Rows())
	if len(perm) < d.QueryPool+writeVectors {
		return nil, fmt.Errorf("data.candidates %d < query_pool + %d write vectors", len(perm), writeVectors)
	}
	for i := 0; i < d.QueryPool; i++ {
		copy(queries.Row(d.RecallQueries+i), candidates.Row(perm[i]))
	}
	pool := pqfastscan.Matrix{Dim: queries.Dim, Data: queries.Data[d.RecallQueries*queries.Dim:]}
	writeVecs := pqfastscan.NewMatrix(writeVectors, candidates.Dim)
	for i := 0; i < writeVecs.Rows(); i++ {
		copy(writeVecs.Row(i), candidates.Row(perm[d.QueryPool+i]))
	}

	// Set-up, timed: build, then attach and serve until /readyz. The
	// in-process oracle runs between the two halves, untimed.
	heapBefore := heapInUse()
	t0 := time.Now()
	ix, err := buildIndex(d, learn, base)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(t0)
	want, err := oracle(ix, w, queries)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	st, err := serve(w, ix, dir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setup := buildTime + time.Since(t1)

	// Memory retained by set-up: the heap now, less the heap before the
	// build (which held the same benchmark inputs), less the oracle's
	// answers allocated in between.
	wantBytes := 0
	for _, r := range want {
		wantBytes += cap(r) * int(unsafe.Sizeof(index.Result{}))
	}
	live := ix.Live()
	heapPerVector := float64(heapInUse()-heapBefore-uint64(wantBytes)) / float64(live)
	runtime.KeepAlive(learn) // part of heapBefore, so live until here

	phases := planPhases(w, seconds, nproc)
	info := map[string]any{
		"host": fingerprint(),
		"inputs": map[string]any{
			"workload": w, "seed": seed, "seconds": seconds, "trace": traced, "rounds": rounds,
			"data": d, "phases": phases, "write_probe_pairs": probeRoundPairs * rounds, "partition_sizes": ix.PartitionSizes(),
		},
	}
	if line, err := json.Marshal(info); err == nil {
		fmt.Fprintln(out, string(line))
	}

	// Correctness gate and recall, before any write changes the answers.
	client := newClient(nproc)
	defer client.CloseIdleConnections()
	all := make([][]byte, queries.Rows())
	for i := range all {
		all[i] = searchBody(w, queries.Row(i))
	}
	allExpected, servedIDs, err := gate(client, st.url, all, want)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errGate, err)
	}
	recallSample := pqfastscan.Matrix{Dim: queries.Dim, Data: queries.Data[:d.RecallQueries*queries.Dim]}
	gt, err := groundTruthCached(cacheDir, base, recallSample, nproc)
	if err != nil {
		return nil, err
	}
	recall := pqfastscan.Recall(servedIDs[:d.RecallQueries], gt, 10)
	bodies, expected := all[d.RecallQueries:], allExpected[d.RecallQueries:]

	// Drop the raw vectors, so that during the load the collector paces
	// on the serving heap alone.
	learn, base = pqfastscan.Matrix{}, pqfastscan.Matrix{}
	runtime.GC()

	// A workload with a write stream has answers that change under it;
	// the others get a write probe after their reads.
	var wr *writer
	if w.WriteRate > 0 {
		wr = &writer{url: st.url, vectors: writeVecs}
		expected = nil
	}
	probe := &writer{url: st.url, vectors: writeVecs}

	// Warm-up: let lazily built scan layouts and connections settle.
	runPhase(client, st.url, phase{Clients: nproc, duration: 300 * time.Millisecond}, bodies, nil, nil, time.Time{}, nil)

	if traced {
		if err := tracedRun(rep, st, w, d, pool, bodies, expected, wr, probe, phases, client, writeVecs, dir); err != nil {
			return nil, err
		}
	} else {
		if err := measure(rep, client, st, phases, bodies, expected, wr, probe, out); err != nil {
			return nil, err
		}
		rep.set("recall_at_10", recall, d.RecallQueries)
		rep.set("setup_s", setup.Seconds(), 1)
		rep.set("heap_bytes_per_vector", heapPerVector, live)
	}

	if wr != nil {
		if err := checkLedger(client, st.url, live, wr); err != nil {
			return nil, fmt.Errorf("%w: %v", errGate, err)
		}
	}
	return rep, nil
}

// probeRoundPairs is how many add-then-delete pairs the write probe of
// a read-only workload sends after each round's closed-loop window: over
// the rounds, enough timed adds for a p99 with twelve samples beyond it.
const probeRoundPairs = 135

// writeVectors is how many distinct vectors the writes cycle through.
const writeVectors = 2048

// rounds is how many open-loop and closed-loop window pairs one run
// interleaves. Medians are taken over these windows, which are spread
// across the run, so that a burst of host noise, or a window in which
// the closed-loop clients fall into step with the batch window, moves
// one window rather than the metric.
const rounds = 9

// planPhases splits the measured seconds into rounds windows of open
// loop (60%) and closed loop (40%). The open loop gets the larger share
// because its p99 needs the most samples.
func planPhases(w Workload, seconds float64, nproc int) []phase {
	open := phase{Name: "open", Loop: "open", Rate: w.OpenRate, Write: w.WriteRate, Clients: nproc, Seconds: 0.6 * seconds / rounds, open: true}
	closed := phase{Name: "closed", Loop: "closed", Write: w.WriteRate, Clients: nproc, Seconds: 0.4 * seconds / rounds}
	open.duration = time.Duration(open.Seconds * float64(time.Second))
	closed.duration = time.Duration(closed.Seconds * float64(time.Second))
	return []phase{open, closed}
}

// measure runs the rounds and records the end-to-end load metrics: the
// read p50 and the QPS are medians over the rounds' windows, the write
// p50 is taken over all the run's timed writes. The p99s are
// printed in the latency ladders but reported as metrics only by the
// traced run: on a shared 2-vCPU host their run-to-run spread is wider
// than any bound (README.md). A workload without a write stream gets a
// write probe at the end of every round, so that a burst of host noise
// touches a ninth of its samples rather than all of them. Each probe pair
// leaves a tombstone, and a partition with any tombstone is scanned with
// a dead-id check on every candidate, so the round ends with a
// compaction: every read window scans the index as built.
func measure(rep *report, c *http.Client, st *stack, phases []phase, bodies, expected [][]byte, wr, probe *writer, out io.Writer) error {
	var readLat, writeLat, readP50, qps []float64
	record := func(p phaseResult) {
		rep.absorb(p)
		for _, n := range p.FailNotes {
			fmt.Fprintln(out, "failure:", n)
		}
	}
	url := st.url
	writeStart := time.Now()
	for r := 0; r < rounds; r++ {
		open := runPhase(c, url, phases[0], bodies, expected, wr, writeStart, nil)
		closed := runPhase(c, url, phases[1], bodies, expected, wr, writeStart, nil)
		record(open)
		record(closed)
		q := quantile(append([]float64(nil), open.ReadLat...), 0.5)
		if !q.OK {
			return fmt.Errorf("search_p50_ms: window of %d samples", q.N)
		}
		readP50 = append(readP50, q.Value)
		qps = append(qps, float64(closed.ReadOK)/closed.Elapsed.Seconds())
		readLat = append(readLat, open.ReadLat...)
		writeLat = append(append(writeLat, open.WriteLat...), closed.WriteLat...)
		if wr == nil {
			p := writeProbe(c, probe, probeRoundPairs)
			record(p)
			writeLat = append(writeLat, p.WriteLat...)
			if err := compactAll(c, st.nodeURLs); err != nil {
				return err
			}
		}
	}

	ladder(out, "search", readLat)
	ladder(out, "write", writeLat)
	fmt.Fprintf(out, "rounds: search_p50_ms %.4g search_qps %.4g\n", readP50, qps)
	rep.set("search_p50_ms", median(readP50), len(readLat))
	rep.set("search_qps", median(qps), rounds)
	return rep.setQ("write_p50_ms", quantile(append([]float64(nil), writeLat...), 0.5))
}

// compactAll asks every node to compact each partition holding a
// tombstone, so that the next reads scan without the dead-id check.
func compactAll(c *http.Client, nodeURLs []string) error {
	for _, u := range nodeURLs {
		status, out, err := post(c, u+"/compact", []byte(`{"partition":-1,"threshold":1e-9}`), nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("compact: status %d err %v: %s", status, err, out)
		}
	}
	return nil
}

// ladder prints every percentile of a latency sample that has ten
// samples beyond it.
func ladder(out io.Writer, name string, lat []float64) {
	fmt.Fprintf(out, "%s latency ladder (ms, n=%d):", name, len(lat))
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if q := quantile(lat, p); q.OK {
			fmt.Fprintf(out, " p%g=%.4g", 100*p, q.Value)
		}
	}
	fmt.Fprintln(out)
}

// heapInUse is the Go heap in use after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkLedger verifies the write stream: every acknowledged add is
// counted in the final live total, net of acknowledged deletes (each of
// which reported its id found).
func checkLedger(c *http.Client, url string, before int, wr *writer) error {
	got, err := liveCount(c, url)
	if err != nil {
		return err
	}
	if want := before + wr.AckedAdds - wr.AckedDels; got != want {
		return fmt.Errorf("live total %d after %d acknowledged adds and %d acknowledged deletes from %d, want %d",
			got, wr.AckedAdds, wr.AckedDels, before, want)
	}
	return nil
}
