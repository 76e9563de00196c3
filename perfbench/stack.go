package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pqfastscan"
	"pqfastscan/internal/cluster"
	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
)

// stack is one workload's serving system: the index, the pqserve-style
// servers over loopback and, for a fleet, the router in front of them.
type stack struct {
	ix *pqfastscan.Index // the single node, or the fleet's whole index

	nodes    []*server.Server
	nodeURLs []string
	shards   []cluster.ShardSpec // fleet only
	router   *cluster.Router     // fleet only
	url      string              // where clients send requests

	stops []func()
}

// close stops every server and listener the stack started, newest
// first, and waits for each to exit.
func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// serveHTTP serves h on a loopback listener. The returned stop closes
// the listener and every connection and waits for Serve to return.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// buildIndex is the build half of set-up: train and encode the corpus
// with the benchmark's fixed geometry.
func buildIndex(d DataSpec, learn, base pqfastscan.Matrix) (*pqfastscan.Index, error) {
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = d.Partitions
	opt.Seed = d.CorpusSeed
	ix, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	return ix, nil
}

// serve is the serving half of set-up: attach the workload's WAL, start
// its servers (and router), and return once the front door's
// /readyz answers 200. dir is a scratch directory the stack owns.
func serve(w Workload, ix *pqfastscan.Index, dir string) (*stack, error) {
	st := &stack{ix: ix}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	if w.Shards > 1 {
		if err := st.startFleet(w.Shards); err != nil {
			return nil, err
		}
	} else {
		cfg := server.Config{Index: ix}
		if w.WAL {
			cfg.WALDir = filepath.Join(dir, "wal")
			cfg.WALSyncInterval = time.Duration(w.WALSyncIntervalMs) * time.Millisecond
			cfg.CompactInterval = time.Duration(w.CompactIntervalMs) * time.Millisecond
			cfg.CompactThreshold = w.CompactThreshold
		}
		if err := st.startNode(cfg); err != nil {
			return nil, err
		}
		st.url = st.nodeURLs[0]
	}
	if err := waitReady(st.url, time.Minute); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// startNode starts one server over loopback.
func (st *stack) startNode(cfg server.Config) error {
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	st.stops = append(st.stops, func() { _ = srv.Close() })
	url, stop, err := serveHTTP(srv.Handler())
	if err != nil {
		return err
	}
	st.stops = append(st.stops, stop)
	st.nodes = append(st.nodes, srv)
	st.nodeURLs = append(st.nodeURLs, url)
	return nil
}

// startFleet splits the index's cells into n contiguous ranges, serves
// each range from its own RestrictCells shard and puts a router in
// front.
func (st *stack) startFleet(n int) error {
	parts := st.ix.Partitions()
	lo := 0
	for i := 0; i < n; i++ {
		size := parts / n
		if i < parts%n {
			size++
		}
		spec := cluster.ShardSpec{Lo: lo, Hi: lo + size - 1}
		lo += size
		cells := spec.Cells()
		shard, err := st.ix.RestrictCells(cells...)
		if err != nil {
			return fmt.Errorf("restrict shard %d: %w", i, err)
		}
		if err := st.startNode(server.Config{Index: shard, Cells: cells}); err != nil {
			return err
		}
		spec.Endpoints = []string{st.nodeURLs[i]}
		st.shards = append(st.shards, spec)
	}
	for _, u := range st.nodeURLs {
		if err := waitReady(u, time.Minute); err != nil {
			return err
		}
	}
	router, err := cluster.New(cluster.Config{Shards: st.shards})
	if err != nil {
		return fmt.Errorf("start router: %w", err)
	}
	st.stops = append(st.stops, router.Close)
	url, stop, err := serveHTTP(router.Handler())
	if err != nil {
		return err
	}
	st.stops = append(st.stops, stop)
	st.router = router
	st.url = url
	return nil
}

// shardOf returns the index of the shard serving cell c.
func (st *stack) shardOf(c int) int {
	for i, s := range st.shards {
		if c >= s.Lo && c <= s.Hi {
			return i
		}
	}
	return -1
}

// waitReady polls url's /readyz until it answers 200.
func waitReady(url string, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v", url, limit)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// request is the in-process twin of the workload's /search request.
func request(w Workload, q []float32) index.Request {
	return index.Request{
		Query: q, K: w.K, NProbe: w.NProbe,
		Kernel: index.KernelFastScan, Engine: index.EngineNative,
	}
}

// workDir makes a fresh scratch directory under the checkout's build
// directory for one run's WAL and extent files.
func workDir() (string, error) {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
