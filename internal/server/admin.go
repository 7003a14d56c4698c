package server

// This file is the server's part of the admin endpoint strserve exposes
// next to the query port (-admin): the tree, buffer and per-op series it
// adds to the Frontend's registry, plus the admin listener and probe
// helpers the commands and selftests share.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"strtree/internal/obs"
	"strtree/internal/server/wire"
)

// registerMetrics adds the server's, buffer's and batch executor's
// counters to the Frontend's registry, next to its lifecycle series.
// Every series is Func-backed: scrapes sample the live atomics the
// serving path already maintains, so exposition never adds work to a
// request and never perturbs the counters it reports.
func (s *Server) registerMetrics() {
	r := s.Registry()
	r.CounterFunc("strserve_slow_queries_total", "Requests at or above the slow-query threshold.", s.slow.Load)

	// Per-op request, error and deadline counters plus latency summaries.
	for i := 0; i < wire.NumOps; i++ {
		op := obs.L("op", wire.Op(i+1).String())
		r.CounterFunc("strserve_requests_total", "Requests executed, by operation.", s.reqOp[i].Load, op)
		r.CounterFunc("strserve_errors_total", "Requests failed with an internal error, by operation.", s.errOp[i].Load, op)
		r.CounterFunc("strserve_deadline_exceeded_total", "Requests cut off by their deadline, by operation.", s.deadlineOp[i].Load, op)
		r.HistogramFunc("strserve_op_latency_seconds", "Request execution latency, by operation.", &s.latOp[i], op)
	}

	// Per-shard buffer counters. Each closure snapshots all shards and
	// picks its own — O(shards) per series is irrelevant at scrape rates.
	shards := len(s.tree.ShardStats())
	for i := 0; i < shards; i++ {
		i := i
		shard := obs.L("shard", strconv.Itoa(i))
		r.CounterFunc("strserve_buffer_hits_total", "Page requests served from the buffer, by shard.",
			func() uint64 {
				st := s.tree.ShardStats()[i]
				return uint64(st.LogicalReads - st.DiskReads)
			}, shard)
		r.CounterFunc("strserve_buffer_misses_total", "Page requests that went to disk, by shard.",
			func() uint64 { return uint64(s.tree.ShardStats()[i].DiskReads) }, shard)
		r.CounterFunc("strserve_buffer_evictions_total", "Frames evicted, by shard.",
			func() uint64 { return uint64(s.tree.ShardStats()[i].Evictions) }, shard)
		r.GaugeFunc("strserve_buffer_pinned_frames", "Frames pinned right now, by shard.",
			func() float64 { return float64(s.tree.ShardStats()[i].Pinned) }, shard)
	}

	// Zero-copy read path: decode and allocation counters. A growing
	// allocs-to-queries ratio under steady load means the query path
	// regressed from allocation-free operation.
	r.CounterFunc("strserve_read_queries_total", "View-path query traversals started.",
		func() uint64 { return s.tree.ReadPathStats().Queries })
	r.CounterFunc("strserve_view_pages_total", "Pages decoded in place through node views (one per node visit on the read path).",
		func() uint64 { return s.tree.ReadPathStats().ViewPages })
	r.CounterFunc("strserve_traverser_allocs_total", "Traversal-state pool misses, i.e. heap allocations of query state.",
		func() uint64 { return s.tree.ReadPathStats().TraverserAllocs })

	// Batch executor activity (OpBatch requests).
	r.CounterFunc("strserve_batch_batches_total", "Batch requests completed by the executor.",
		func() uint64 { return s.tree.BatchExecStats().BatchesDone })
	r.CounterFunc("strserve_batch_queries_total", "Individual queries completed inside batches.",
		func() uint64 { return s.tree.BatchExecStats().QueriesDone })
	r.GaugeFunc("strserve_batch_queued_queries", "Batch queries admitted but not yet claimed by a worker.",
		func() float64 { return float64(s.tree.BatchExecStats().QueuedQueries) })
	r.GaugeFunc("strserve_batch_active_workers", "Batch workers currently executing a query.",
		func() float64 { return float64(s.tree.BatchExecStats().ActiveWorkers) })

	// Served-tree shape, for dashboards joining load to index size.
	r.GaugeFunc("strserve_tree_items", "Items in the served tree.",
		func() float64 { return float64(s.tree.Len()) })
	r.GaugeFunc("strserve_tree_height", "Levels in the served tree.",
		func() float64 { return float64(s.tree.Height()) })
	r.CounterFunc("strserve_mutations_applied_total",
		"Mutations applied to the served tree (inserts plus found deletes).",
		s.MutationsApplied)
}

// StartAdmin serves h on a new listener at addr ("127.0.0.1:0" picks a
// free port) and returns its base URL and a stop function that closes it
// and reports any error the HTTP server failed with.
func StartAdmin(addr string, h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		_ = srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// HTTPGet fetches one admin URL, returning status code and body.
func HTTPGet(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// CheckHealth asks the admin endpoint at adminURL for /healthz and fails
// unless it answers want: 200 with body "ok", or 503 "draining".
func CheckHealth(adminURL string, want int) error {
	status, body, err := HTTPGet(adminURL + "/healthz")
	if err != nil {
		return fmt.Errorf("admin /healthz: %w", err)
	}
	wantBody := "ok\n"
	if want != http.StatusOK {
		wantBody = "draining\n"
	}
	if status != want || body != wantBody {
		return fmt.Errorf("admin /healthz = %d %q, want %d %q", status, body, want, wantBody)
	}
	return nil
}
