package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"pqfastscan"
	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
)

// oracle answers every query in process with Index.Query: the reference
// the served answers must equal bit for bit.
func oracle(ix *pqfastscan.Index, w Workload, queries pqfastscan.Matrix) ([][]index.Result, error) {
	out := make([][]index.Result, queries.Rows())
	for i := range out {
		resp, err := ix.Internal().Query(context.Background(), request(w, queries.Row(i)))
		if err != nil {
			return nil, fmt.Errorf("in-process query %d: %w", i, err)
		}
		out[i] = resp.Results
	}
	return out, nil
}

// sameResults reports whether two answers hold the same ids at the same
// distances in the same order.
func sameResults(got []server.SearchNeighbor, want []index.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if got[i].ID != w.ID || got[i].Distance != w.Distance {
			return false
		}
	}
	return true
}

// gate sends every query once through the served front door and checks
// each answer against the oracle. It returns the answer bodies, which
// the load phases then require byte for byte, and the answered ids.
func gate(c *http.Client, url string, bodies [][]byte, want [][]index.Result) ([][]byte, [][]int64, error) {
	raw := make([][]byte, len(bodies))
	ids := make([][]int64, len(bodies))
	for i, body := range bodies {
		status, out, err := post(c, url+"/search", body, nil)
		if err != nil || status != http.StatusOK {
			return nil, nil, fmt.Errorf("gate query %d: status %d err %v: %s", i, status, err, out)
		}
		var resp server.SearchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return nil, nil, fmt.Errorf("gate query %d: decode answer: %w", i, err)
		}
		if !sameResults(resp.Results, want[i]) {
			return nil, nil, fmt.Errorf("gate query %d: served answer differs from in-process Index.Query", i)
		}
		raw[i] = out
		ids[i] = make([]int64, len(resp.Results))
		for j, n := range resp.Results {
			ids[i][j] = n.ID
		}
	}
	return raw, ids, nil
}

// groundTruth is brute-force GroundTruth (the exact nearest neighbor of
// every query) split over workers goroutines. It is not timed.
func groundTruth(base, queries pqfastscan.Matrix, workers int) ([][]int64, error) {
	n := queries.Rows()
	out := make([][]int64, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo, hi := g*n/workers, (g+1)*n/workers
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := pqfastscan.Matrix{Dim: queries.Dim, Data: queries.Data[lo*queries.Dim : hi*queries.Dim]}
			gt, err := pqfastscan.GroundTruth(base, part, 1)
			copy(out[lo:hi], gt)
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ground truth: %w", err)
		}
	}
	return out, nil
}

// groundTruthCached is groundTruth, stored under dir and read back by
// later runs on the same inputs: the corpus and the recall sample are
// fixed, so every run would otherwise recompute the same answer. The
// file name carries a SHA-256 of both inputs. An empty dir disables
// the cache.
func groundTruthCached(dir string, base, queries pqfastscan.Matrix, workers int) ([][]int64, error) {
	if dir == "" {
		return groundTruth(base, queries, workers)
	}
	h := sha256.New()
	h.Write(floatBytes(base.Data))
	h.Write(floatBytes(queries.Data))
	path := filepath.Join(dir, fmt.Sprintf("groundtruth-%x.json", h.Sum(nil)[:16]))
	if raw, err := os.ReadFile(path); err == nil {
		var gt [][]int64
		if json.Unmarshal(raw, &gt) == nil && len(gt) == queries.Rows() {
			return gt, nil
		}
	}
	gt, err := groundTruth(base, queries, workers)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(gt)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return nil, err
	}
	return gt, os.Rename(tmp, path)
}

// floatBytes views a float32 slice as its bytes.
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

// liveCount reads the live vector total the front door reports.
func liveCount(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Live int `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decode /healthz: %w", err)
	}
	return h.Live, nil
}
