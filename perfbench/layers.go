package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pqfastscan"
	"pqfastscan/internal/bufpool"
	"pqfastscan/internal/cluster"
	"pqfastscan/internal/index"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/server"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// counters is the set of program-side counters the traced run reads
// before and after its served phases. Latencies never come from here.
type counters struct {
	batchCalls, batchQueries, shed int64
	compactRuns, compactReclaimed  int64
	walFsyncs, walBytes            int64
	failovers, hedges, retries     int64
}

func readCounters(st *stack) counters {
	var c counters
	for _, n := range st.nodes {
		s := n.StatsSnapshot()
		c.batchCalls += s.Batch.Calls
		c.batchQueries += s.Batch.Queries
		c.shed += s.Admission.Shed
		c.compactRuns += s.Compaction.Runs
		c.compactReclaimed += s.Compaction.Reclaimed
	}
	if ws, ok := st.ix.WALStats(); ok {
		c.walFsyncs, c.walBytes = ws.Fsyncs, ws.Bytes
	}
	if st.router != nil {
		rs := st.router.Stats()
		c.failovers, c.hedges, c.retries = rs.Failovers, rs.Hedges, rs.Retries
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		c.batchCalls - o.batchCalls, c.batchQueries - o.batchQueries, c.shed - o.shed,
		c.compactRuns - o.compactRuns, c.compactReclaimed - o.compactReclaimed,
		c.walFsyncs - o.walFsyncs, c.walBytes - o.walBytes,
		c.failovers - o.failovers, c.hedges - o.hedges, c.retries - o.retries,
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun is the per-layer run: the open-loop phase once untraced and
// once with a span per request, then a replay of the query sample
// through each layer's public function with spans around every call,
// and last the paged replay, which seals the index into extents under
// dir.
func tracedRun(rep *report, st *stack, w Workload, d DataSpec, pool pqfastscan.Matrix, bodies, expected [][]byte, wr, probe *writer, phases []phase, client *http.Client, writeVecs pqfastscan.Matrix, dir string) error {
	// Each of the two open-loop phases is as long as all the untraced
	// run's open-loop windows together.
	open := phases[0]
	open.Seconds *= rounds
	open.duration *= rounds
	rec := newRecorder()
	before := readCounters(st)
	writeStart := time.Now()
	plain := runPhase(client, st.url, open, bodies, expected, wr, writeStart, nil)
	traced := runPhase(client, st.url, open, bodies, expected, wr, writeStart, rec)
	rep.absorb(plain)
	rep.absorb(traced)
	served := readCounters(st).minus(before)

	reads := float64(plain.ReadOK + traced.ReadOK)
	writes := float64(len(plain.WriteLat) + len(traced.WriteLat))
	rep.set("server.batch_avg_width", ratio(float64(served.batchQueries), float64(served.batchCalls)), int(served.batchCalls))
	rep.set("server.shed", float64(served.shed), int(reads))
	rep.set("wal.fsyncs_per_write", ratio(float64(served.walFsyncs), writes), int(writes))
	rep.set("wal.bytes_per_write", ratio(float64(served.walBytes), writes), int(writes))
	rep.set("compaction.runs", float64(served.compactRuns), 1)
	rep.set("compaction.reclaimed", float64(served.compactReclaimed), 1)

	// Generator lateness is the self time of each request span: the part
	// of due-to-done not covered by the send.
	spans := rec.Spans()
	kids := childrenOf(spans)
	var late []float64
	for _, s := range spans {
		if s.Name == "client.request" {
			late = append(late, ms(selfTime(s, kids[s.ID])))
		}
	}
	if err := rep.setQ("loadgen.late_p99_ms", quantile(late, 0.99)); err != nil {
		return err
	}
	if err := rep.setQ("search_p99_ms", quantile(append([]float64(nil), plain.ReadLat...), 0.99)); err != nil {
		return err
	}
	p50Plain := quantile(append([]float64(nil), plain.ReadLat...), 0.5)
	p50Traced := quantile(append([]float64(nil), traced.ReadLat...), 0.5)
	rep.set("trace.overhead_pct", 100*(p50Traced.Value/p50Plain.Value-1), p50Traced.N)

	if err := replayLayers(rep, st, w, d, pool, writeVecs); err != nil {
		return err
	}
	// Write tail: the untraced phase's write stream, or a write probe
	// after the replays (its deletes leave tombstones, compacted away
	// before the paged replay).
	writeLat := plain.WriteLat
	if wr == nil {
		p := writeProbe(client, probe, probeRoundPairs*rounds)
		rep.absorb(p)
		writeLat = p.WriteLat
	}
	if err := compactAll(client, st.nodeURLs); err != nil {
		return err
	}
	if err := rep.setQ("write_p99_ms", quantile(writeLat, 0.99)); err != nil {
		return err
	}
	if st.router != nil {
		// The fleet's own router: deltas over the whole traced run.
		all := readCounters(st).minus(before)
		routed := int(reads) + d.TraceQueries
		rep.set("cluster.failovers", float64(all.failovers), routed)
		rep.set("cluster.hedges", float64(all.hedges), routed)
		rep.set("cluster.retries", float64(all.retries), routed)
	}
	return replayPaged(rep, st.ix, w, d, pool, filepath.Join(dir, "store"))
}

// replayPaged serves the trace sample from disk: it seals the index's
// partitions into extents under dir, bounds the buffer pool at
// d.PoolFraction of their footprint, and replays the sample through
// Index.Query, once to warm the pool and once measured. It measures the
// extent and buffer pool layers, which no served workload pages
// through. Every paged answer must equal the RAM answer. It runs last:
// the index stays paged.
func replayPaged(rep *report, ix *pqfastscan.Index, w Workload, d DataSpec, pool pqfastscan.Matrix, dir string) error {
	ctx := context.Background()
	n := d.TraceQueries
	query := func(i int) []float32 { return pool.Row(i % pool.Rows()) }
	want := make([][]index.Result, n)
	for qi := range want {
		resp, err := ix.Internal().Query(ctx, request(w, query(qi)))
		if err != nil {
			return err
		}
		want[qi] = resp.Results
	}
	// Attach with an unbounded pool, then shrink it: the footprint is
	// known only once the extents are written.
	if err := ix.WithDiskStore(dir, 1<<40); err != nil {
		return fmt.Errorf("attach store: %w", err)
	}
	ss, ok := ix.StoreStats()
	if !ok {
		return errors.New("store attach left the index unpaged")
	}
	ix.Internal().SetPoolCapacity(int64(d.PoolFraction * float64(ss.ExtentBytes)))

	var lat []float64
	var before bufpool.Stats
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			ss, _ = ix.StoreStats()
			before = ss.Pool
		}
		for qi := 0; qi < n; qi++ {
			t0 := time.Now()
			resp, err := ix.Internal().Query(ctx, request(w, query(qi)))
			dur := time.Since(t0)
			if err != nil {
				return fmt.Errorf("paged query %d: %w", qi, err)
			}
			if !slices.Equal(resp.Results, want[qi]) {
				return fmt.Errorf("%w: query %d: paged answer differs from the RAM answer", errGate, qi)
			}
			if pass == 1 {
				lat = append(lat, us(dur))
			}
		}
	}
	ss, _ = ix.StoreStats()
	hits, misses := float64(ss.Pool.Hits-before.Hits), float64(ss.Pool.Misses-before.Misses)
	rep.set("bufpool.query_us", median(lat), n)
	rep.set("bufpool.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	rep.set("bufpool.misses_per_query", misses/float64(n), n)
	rep.set("bufpool.evictions_per_query", float64(ss.Pool.Evictions-before.Evictions)/float64(n), n)
	return nil
}

// replayLayers replays the trace sample through route → LUT → scan →
// merge, Index.Query, the server and the router, with a span around
// each public call, and derives the per-layer metrics from the spans.
func replayLayers(rep *report, st *stack, w Workload, d DataSpec, pool pqfastscan.Matrix, writeVecs pqfastscan.Matrix) error {
	ctx := context.Background()
	in := st.ix.Internal()
	n := d.TraceQueries
	query := func(i int) []float32 { return pool.Row(i % pool.Rows()) }

	// A paged index has no resident scanners; materialize each cell's
	// once so the replay times the scan itself, not the copy.
	scanners := make([]*scan.FastScan, in.Partitions())
	scanner := func(c int) (*scan.FastScan, error) {
		if scanners[c] != nil {
			return scanners[c], nil
		}
		fs, err := in.FastScanner(c)
		if err == nil && in.Paged() {
			scanners[c] = fs
		}
		return fs, err
	}

	sc := scan.NewScratch()
	var scanned, pruned, lowerBounds, candidates, keep []int
	decompose := func(rec *Recorder, qi int) error {
		q := query(qi)
		np := max(w.NProbe, 1)
		s := rec.Begin("index.route", 0, qi)
		cells := index.RankCells(q, in.Coarse)[:np]
		rec.End(s)
		lists := make([][]topk.Result, 0, np)
		var stats scan.Stats
		for _, c := range cells {
			s = rec.Begin("quantizer.lut", 0, qi)
			t := in.Tables(q, c)
			rec.End(s)
			fs, err := scanner(c)
			if err != nil {
				return err
			}
			s = rec.Begin("scan.scan", 0, qi)
			res, cs := fs.ScanNative(t, w.K, sc)
			rec.End(s)
			lists = append(lists, append([]topk.Result(nil), res...))
			stats.Merge(cs)
		}
		s = rec.Begin("topk.merge", 0, qi)
		merged := topk.MergeResults(w.K, lists...)
		rec.End(s)

		s = rec.Begin("index.query", 0, qi)
		resp, err := in.Query(ctx, request(w, q))
		rec.End(s)
		if err != nil {
			return err
		}
		if !slices.Equal(merged, resp.Results) {
			return fmt.Errorf("%w: query %d: route→LUT→scan→merge differs from Index.Query", errGate, qi)
		}
		if rec != nil {
			scanned = append(scanned, stats.Scanned)
			pruned = append(pruned, stats.Pruned)
			lowerBounds = append(lowerBounds, stats.LowerBounds)
			candidates = append(candidates, stats.Candidates)
			keep = append(keep, stats.KeepScanned)
		}
		return nil
	}
	for qi := 0; qi < n; qi++ { // warm pass, untimed
		if err := decompose(nil, qi); err != nil {
			return err
		}
	}
	rec := newRecorder()
	for qi := 0; qi < n; qi++ {
		if err := decompose(rec, qi); err != nil {
			return err
		}
	}
	per := byQuery(rec.Spans())
	var route, lut, scanNs, merge, queryUs, self []float64
	for qi := 0; qi < n; qi++ {
		m := per[qi]
		route = append(route, us(m["index.route"]))
		lut = append(lut, us(m["quantizer.lut"]))
		scanNs = append(scanNs, float64(m["scan.scan"])/float64(max(scanned[qi], 1)))
		merge = append(merge, us(m["topk.merge"]))
		queryUs = append(queryUs, us(m["index.query"]))
		self = append(self, us(m["index.query"]-m["index.route"]-m["quantizer.lut"]-m["scan.scan"]-m["topk.merge"]))
	}
	rep.set("index.route_us", median(route), n)
	rep.set("quantizer.lut_us", median(lut), n)
	rep.set("scan.ns_per_vector", median(scanNs), n)
	rep.set("topk.merge_us", median(merge), n)
	rep.set("index.query_us", median(append([]float64(nil), queryUs...)), n)
	rep.set("index.self_us", median(self), n)
	rep.set("scan.pruned_ratio", ratio(float64(sum(pruned)), float64(sum(lowerBounds))), n)
	rep.set("scan.candidates_per_query", float64(sum(candidates))/float64(n), n)
	rep.set("scan.keep_per_query", float64(sum(keep))/float64(n), n)

	// Allocation per query, untraced.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for qi := 0; qi < n; qi++ {
		if _, err := in.Query(ctx, request(w, query(qi))); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	rep.set("index.alloc_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), n)

	if err := replayServing(rep, st, w, n, query, per); err != nil {
		return err
	}

	// L0: the block kernel alone over every cell's packed blocks.
	fss := make([]*scan.FastScan, in.Partitions())
	for c := range fss {
		fs, err := scanner(c)
		if err != nil {
			return err
		}
		fss[c] = fs
	}
	perCode, codes := kernelNsPerCode(fss, 7)
	rep.set("scan.kernel_ns_per_code", perCode, codes)

	// Index.Add alone, each add undone by an untimed delete.
	var adds []float64
	for i := 0; i < n; i++ {
		v := pqfastscan.Matrix{Dim: writeVecs.Dim, Data: writeVecs.Row(i % writeVecs.Rows())}
		t0 := time.Now()
		ids, err := in.Add(v)
		adds = append(adds, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("index add: %w", err)
		}
		if err := in.Delete(ids[0]); err != nil {
			return fmt.Errorf("index delete: %w", err)
		}
	}
	rep.set("index.add_us", median(adds), n)
	return nil
}

// replayServing times the served layers one request at a time: the
// HTTP round trip (/healthz), one-client /search on the node, and
// Router.Search against the slowest direct shard /search it fans out
// to. A workload without a router gets a two-shard one over the same
// index for this replay only.
func replayServing(rep *report, st *stack, w Workload, n int, query func(int) []float32, per map[int]map[string]time.Duration) error {
	ctx := context.Background()
	c := newClient(1)
	defer c.CloseIdleConnections()

	fleet := st
	if st.router == nil {
		aux, err := serve(Workload{Shards: 2}, st.ix, "")
		if err != nil {
			return fmt.Errorf("aux fleet: %w", err)
		}
		defer aux.close()
		fleet = aux
	}

	var rtt []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := c.Get(st.nodeURLs[0] + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		rtt = append(rtt, us(time.Since(t0)))
	}
	rttP50 := median(rtt)
	rep.set("server.http_rtt_us", rttP50, n)

	before := fleet.router.Stats()
	var nodeSearch, nodeSelf, routerSearch, routerSelf []float64
	for qi := 0; qi < n; qi++ {
		q := query(qi)
		want, err := st.ix.Internal().Query(ctx, request(w, q))
		if err != nil {
			return err
		}
		// Direct shard sub-requests, exactly as the router would send them.
		byShard := map[int][]int{}
		for _, cell := range index.RankCells(q, st.ix.Internal().Coarse)[:max(w.NProbe, 1)] {
			si := fleet.shardOf(cell)
			byShard[si] = append(byShard[si], cell)
		}
		var slowest time.Duration
		for si, cells := range byShard {
			body, _ := json.Marshal(server.SearchRequest{Query: q, K: w.K, Cells: cells})
			t0 := time.Now()
			status, out, err := post(c, fleet.nodeURLs[si]+"/search", body, nil)
			if d := time.Since(t0); d > slowest {
				slowest = d
			}
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("shard %d search: status %d err %v: %s", si, status, err, out)
			}
		}
		t0 := time.Now()
		got, err := fleet.router.Search(ctx, q, cluster.SearchOptions{K: w.K, NProbe: w.NProbe})
		routerDur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("router search: %w", err)
		}
		if !sameResults(got.Results, want.Results) {
			return fmt.Errorf("%w: query %d: router answer differs from the single node", errGate, qi)
		}
		routerSearch = append(routerSearch, us(routerDur))
		routerSelf = append(routerSelf, us(routerDur-slowest))

		// The node's own /search: the single server, or for a fleet the
		// slowest shard sub-request above.
		nodeDur := slowest
		if st.router == nil {
			t0 = time.Now()
			status, out, err := post(c, st.url+"/search", searchBody(w, q), nil)
			nodeDur = time.Since(t0)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("node search: status %d err %v: %s", status, err, out)
			}
		}
		nodeSearch = append(nodeSearch, us(nodeDur))
		nodeSelf = append(nodeSelf, us(nodeDur-per[qi]["index.query"])-rttP50)
	}
	rep.set("server.search_us", median(nodeSearch), n)
	rep.set("server.self_us", median(nodeSelf), n)
	rep.set("cluster.search_us", median(routerSearch), n)
	rep.set("cluster.self_us", median(routerSelf), n)
	if st.router == nil {
		d := fleet.router.Stats()
		rep.set("cluster.failovers", float64(d.Failovers-before.Failovers), n)
		rep.set("cluster.hedges", float64(d.Hedges-before.Hedges), n)
		rep.set("cluster.retries", float64(d.Retries-before.Retries), n)
	}
	return nil
}

// kernelNsPerCode times dispatch.Accumulate over every group of every
// scanner with fixed small tables, reps times, and returns the median
// ns per code and the codes in one pass.
func kernelNsPerCode(fss []*scan.FastScan, reps int) (float64, int) {
	var tables [128]byte
	for i := range tables {
		tables[i] = byte(i*7) % 16
	}
	codes, widest := 0, 0
	for _, fs := range fss {
		for _, g := range fs.Grouped().Groups {
			codes += g.Count
			widest = max(widest, g.BlockCount)
		}
	}
	dst := layout.AlignedBytes(widest*16, 0)
	var perCode []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, fs := range fss {
			g := fs.Grouped()
			bb := g.BlockSize()
			for _, grp := range g.Groups {
				base := grp.BlockStart * bb
				dispatch.Accumulate(dispatch.Auto, g.Blocks[base:base+grp.BlockCount*bb], bb, g.C, grp.BlockCount, &tables, dst)
			}
		}
		perCode = append(perCode, float64(time.Since(t0))/float64(max(codes, 1)))
	}
	return median(perCode), codes
}

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}
