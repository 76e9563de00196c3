package index

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// carryBackends are the native backend configurations the carried-bound
// tests run on: both SWAR pipelines, pinned through the pair-LUT size
// gate, and every available assembly backend.
func carryBackends() []struct {
	name    string
	backend Backend
	lutGate int
} {
	out := []struct {
		name    string
		backend Backend
		lutGate int
	}{
		{"swar-bytelane", BackendSWAR, 1 << 30},
		{"swar-pairlut", BackendSWAR, 0},
	}
	for _, be := range AvailableBackends() {
		if be.Asm() {
			out = append(out, struct {
				name    string
				backend Backend
				lutGate int
			}{be.String(), be, 1 << 30})
		}
	}
	return out
}

// checkCarried asserts that the native engine's one-heap answer to req
// equals the model engine's (per-cell heaps, merged) and an oracle of
// per-cell ExactNative scans merged over the same cells; that the exact
// kernel's carried scan agrees too; and that carrying the bound never
// re-checks more candidates than scanning each cell into its own heap
// (queryParallel on the same backend).
func checkCarried(t *testing.T, tag string, ix *Index, req Request) {
	t.Helper()
	ctx := context.Background()
	query := func(r Request) *Response {
		t.Helper()
		resp, err := ix.Query(ctx, r)
		if err != nil {
			t.Fatalf("%s: %+v: %v", tag, r, err)
		}
		return resp
	}
	req.Kernel, req.Engine = KernelFastScan, EngineNative
	got := query(req)

	var lists [][]topk.Result
	for _, c := range got.Partitions {
		r, _, err := ix.SearchPartitionEngine(req.Query, req.K, KernelNaive, EngineNative, c)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, r)
	}
	oracle := topk.MergeResults(req.K, lists...)
	if !slices.Equal(got.Results, oracle) {
		t.Fatalf("%s: carried Fast Scan differs from the per-cell exact oracle\n got %v\nwant %v", tag, got.Results, oracle)
	}

	model := req
	model.Engine, model.Backend = EngineModel, BackendAuto
	if m := query(model); !slices.Equal(m.Results, got.Results) {
		t.Fatalf("%s: model engine differs from carried native\n got %v\nwant %v", tag, got.Results, m.Results)
	}
	exact := req
	exact.Kernel = KernelNaive
	if e := query(exact); !slices.Equal(e.Results, got.Results) {
		t.Fatalf("%s: carried exact scan differs from carried Fast Scan", tag)
	}

	perCell := req
	perCell.Parallel = true
	pc := query(perCell)
	if !slices.Equal(pc.Results, got.Results) {
		t.Fatalf("%s: per-cell heaps differ from the carried heap", tag)
	}
	if got.Stats.Candidates > pc.Stats.Candidates {
		t.Fatalf("%s: carried bound re-checked %d candidates, per-cell heaps %d", tag, got.Stats.Candidates, pc.Stats.Candidates)
	}
	if got.Stats.Scanned != pc.Stats.Scanned {
		t.Fatalf("%s: scanned %d vectors, per-cell %d", tag, got.Stats.Scanned, pc.Stats.Scanned)
	}
}

// checkCarriedMatrix runs checkCarried over every backend, nprobe in
// {1, 2, 4, 8, all}, k in {1, 10, 100, more than live}, and explicit
// cell lists in ranked, reversed and shuffled orders.
func checkCarriedMatrix(t *testing.T, stage string, ix *Index, queries vec.Matrix) {
	t.Helper()
	r := rng.New(7)
	for _, be := range carryBackends() {
		old := scan.SetNativeLUTMinVectors(be.lutGate)
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			for _, k := range []int{1, 10, 100, ix.Live() + 5} {
				for _, np := range []int{1, 2, 4, 8, ix.Partitions()} {
					tag := fmt.Sprintf("%s/%s/q%d/k%d/np%d", stage, be.name, qi, k, np)
					checkCarried(t, tag, ix, Request{Query: q, K: k, NProbe: np, Backend: be.backend})
				}
				ranked := RankCells(q, ix.Coarse)[:5]
				reversed := slices.Clone(ranked)
				slices.Reverse(reversed)
				shuffled := slices.Clone(ranked)
				for i, j := range r.Perm(len(shuffled)) {
					shuffled[i] = ranked[j]
				}
				for oi, cells := range [][]int{ranked, reversed, shuffled} {
					tag := fmt.Sprintf("%s/%s/q%d/k%d/cells%d%v", stage, be.name, qi, k, oi, cells)
					checkCarried(t, tag, ix, Request{Query: q, K: k, Cells: cells, Backend: be.backend})
				}
			}
		}
		scan.SetNativeLUTMinVectors(old)
	}
}

// TestCarriedBoundEquivalence: scanning every probed cell into one
// query-wide heap answers exactly like per-cell heaps and like exact
// search over the union of the cells — on a fresh index, with
// tombstones, after compaction and paged from disk.
func TestCarriedBoundEquivalence(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 23, Dim: 32})
	opt := DefaultOptions()
	opt.Partitions = 10
	opt.Seed = 23
	opt.FastScan.OrderGroups = true
	ix, err := Build(gen.Generate(2500), gen.Generate(9000), opt)
	if err != nil {
		t.Fatal(err)
	}
	queries := gen.Generate(3)
	checkCarriedMatrix(t, "fresh", ix, queries)

	for id := int64(0); id < 9000; id += 7 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkCarriedMatrix(t, "tombstones", ix, queries)

	if _, err := ix.Compact(0); err != nil {
		t.Fatal(err)
	}
	checkCarriedMatrix(t, "compacted", ix, queries)

	if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	checkCarriedMatrix(t, "paged", ix, queries)
}

// TestCarriedBoundSkipsFarCell: once the near cell has filled the heap,
// a cell whose least possible distance exceeds the k-th distance is
// skipped whole — no keep phase, no exact re-checks, every vector
// counted as lower-bounded and pruned — and the answer is unchanged.
// The far cell's tables sit entirely above the carried threshold, the
// case in which §4.4's quantizer has qmax < qmin and could prune
// nothing.
func TestCarriedBoundSkipsFarCell(t *testing.T) {
	const dim = 16
	r := rng.New(5)
	gen := func(n int) vec.Matrix {
		m := vec.NewMatrix(n, dim)
		for i := 0; i < n; i++ {
			off := 0.0
			if i%2 == 1 {
				off = 1000 // the far cluster
			}
			for d := range m.Row(i) {
				m.Row(i)[d] = float32(off + r.NormFloat64())
			}
		}
		return m
	}
	opt := DefaultOptions()
	opt.Partitions = 2
	opt.Seed = 5
	ix, err := Build(gen(2000), gen(6000), opt)
	if err != nil {
		t.Fatal(err)
	}
	q := gen(1).Row(0) // near cluster
	near := ix.RoutePartition(q)
	far := 1 - near
	if ix.PartitionSizes()[far] == 0 {
		t.Fatal("far cluster has no cell of its own")
	}

	ctx := context.Background()
	for _, be := range carryBackends() {
		old := scan.SetNativeLUTMinVectors(be.lutGate)
		for _, kernel := range []Kernel{KernelFastScan, KernelNaive} {
			req := Request{Query: q, K: 10, Kernel: kernel, Engine: EngineNative, Backend: be.backend}
			req.Cells = []int{near}
			alone, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			req.Cells = []int{near, far}
			both, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			checkCarried(t, be.name, ix, Request{Query: q, K: 10, Cells: []int{near, far}, Backend: be.backend})
			if !slices.Equal(both.Results, alone.Results) {
				t.Fatalf("%s/%v: adding the far cell changed the answer", be.name, kernel)
			}
			if kernel != KernelFastScan {
				continue
			}
			n := ix.PartitionSizes()[far]
			d := both.Stats
			d.Scanned -= alone.Stats.Scanned
			d.KeepScanned -= alone.Stats.KeepScanned
			d.LowerBounds -= alone.Stats.LowerBounds
			d.Pruned -= alone.Stats.Pruned
			d.Candidates -= alone.Stats.Candidates
			d.Groups -= alone.Stats.Groups
			d.Blocks -= alone.Stats.Blocks
			want := scan.Stats{Scanned: n, LowerBounds: n, Pruned: n}
			if d != want {
				t.Fatalf("%s: far cell stats %+v, want %+v", be.name, d, want)
			}
		}
		scan.SetNativeLUTMinVectors(old)
	}
}
