package index

import (
	"context"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/scan"
)

// BenchmarkQuery times one sequential multi-probe Index.Query at the
// served benchmark's shape: 200k vectors of the default synthetic
// mixture (corpus seed 1, 20k learn), 16 cells, PQ 8×8, k=100,
// nprobe=4, Fast Scan on the native engine. After timing it runs the
// 256-query sample once more and reports that pass's scan counters, so
// they do not depend on b.N: candidates/query (exact re-checks after a
// lower bound) and pruned (the share of lower-bounded vectors whose
// re-check was avoided).
func BenchmarkQuery(b *testing.B) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 1})
	learn := gen.Generate(20000)
	base := gen.Generate(200000)
	queries := gen.Generate(256)
	opt := DefaultOptions()
	opt.Partitions = 16
	opt.Seed = 1
	ix, err := Build(learn, base, opt)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := Request{K: 100, NProbe: 4, Kernel: KernelFastScan, Engine: EngineNative}
	query := func(i int) *Response {
		r := req
		r.Query = queries.Row(i % queries.Rows())
		resp, err := ix.Query(ctx, r)
		if err != nil {
			b.Fatal(err)
		}
		return resp
	}
	for i := 0; i < queries.Rows(); i++ { // warm the Fast Scan layouts
		query(i)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.StopTimer()

	var st scan.Stats
	for i := 0; i < queries.Rows(); i++ {
		st.Merge(query(i).Stats)
	}
	b.ReportMetric(float64(st.Candidates)/float64(queries.Rows()), "candidates/query")
	b.ReportMetric(st.PrunedFraction(), "pruned")
}
