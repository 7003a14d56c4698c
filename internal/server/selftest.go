package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/histo"
	"strtree/internal/query"
)

// SelftestConfig tunes the in-process load harness behind
// `strserve -selftest`.
type SelftestConfig struct {
	// Clients is the number of concurrent client connections; 0 means 8.
	Clients int
	// QueriesPerClient is each client's query count; 0 means 200.
	QueriesPerClient int
	// Size is the packed tree's item count; 0 means 20000.
	Size int
	// Shards is the tree's buffer shard count; 0 means 8.
	Shards int
	// MaxInFlight is the server's admission cap; 0 means 2*Clients, so
	// steady load is admitted and rejections only appear under bursts.
	MaxInFlight int
	// Seed fixes data and workload generation.
	Seed int64
	// AdminAddr, when non-empty, binds the admin HTTP endpoint there
	// ("127.0.0.1:0" for an ephemeral port) and extends the selftest into
	// an admin smoke test: /healthz must answer 200 under load, /metrics
	// must expose non-zero request counters and one buffer series per
	// shard, /stats must serve JSON, and /healthz must flip to 503 the
	// moment the drain begins.
	AdminAddr string
}

func (c SelftestConfig) withDefaults() SelftestConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 200
	}
	if c.Size <= 0 {
		c.Size = 20000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * c.Clients
	}
	return c
}

// UniformItems generates n uniformly placed squares in the unit square,
// the paper's UNIFORM distribution shape, sized for ~5% total coverage.
// Both selftests and the serving tests draw their data from it.
func UniformItems(n int, seed int64) []strtree.Item {
	rng := rand.New(rand.NewSource(seed))
	side := 0.0
	if n > 0 {
		// total area 0.05 spread over n squares
		side = math.Sqrt(0.05 / float64(n))
	}
	items := make([]strtree.Item, n)
	for i := range items {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		items[i] = strtree.Item{
			Rect: geom.Rect{Min: geom.Pt2(x, y), Max: geom.Pt2(x+side, y+side)},
			ID:   uint64(i),
		}
	}
	return items
}

// Selftest packs an in-memory tree, serves it on a loopback listener,
// hammers it with cfg.Clients concurrent protocol clients, and writes a
// throughput and latency report to w. It exercises the full stack —
// codec, admission, deadlines, drain — in one process, so it doubles as
// a smoke test: any status other than OK or Overloaded fails it.
func Selftest(w io.Writer, cfg SelftestConfig) error {
	cfg = cfg.withDefaults()

	tree, err := strtree.New(strtree.Options{BufferPages: 256, BufferShards: cfg.Shards})
	if err != nil {
		return err
	}
	defer func() { _ = tree.Close() }()
	if err := tree.BulkLoad(UniformItems(cfg.Size, cfg.Seed), strtree.PackSTR); err != nil {
		return err
	}

	srv := New(tree, Config{MaxInFlight: cfg.MaxInFlight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	var adminURL string
	if cfg.AdminAddr != "" {
		url, stop, err := StartAdmin(cfg.AdminAddr, srv.AdminHandler())
		if err != nil {
			return fmt.Errorf("selftest: admin listen: %w", err)
		}
		defer func() { _ = stop() }()
		adminURL = url
		if err := CheckHealth(adminURL, http.StatusOK); err != nil {
			return fmt.Errorf("selftest: before drain: %w", err)
		}
	}

	// Workload: the paper's 1% region queries, a disjoint slice per client.
	total := cfg.Clients * cfg.QueriesPerClient
	qs := query.Regions(total, query.Extent1Pct, cfg.Seed+1)

	var (
		lat        histo.Histogram
		overloaded atomic.Uint64
		firstErr   error
		errOnce    sync.Once
		wg         sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := Dial(addr)
			defer func() { _ = cl.Close() }()
			for _, q := range qs[c*cfg.QueriesPerClient : (c+1)*cfg.QueriesPerClient] {
				t0 := time.Now()
				_, err := cl.Count(q)
				lat.Observe(time.Since(t0))
				if errors.Is(err, ErrOverloaded) {
					overloaded.Add(1)
					continue
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("client %d: %w", c, err) })
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if adminURL != "" {
		if err := verifyAdmin(w, adminURL, cfg.Shards); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
		// The k8s readiness sequence: flip /healthz before draining so
		// routers stop sending traffic, then verify the flip is visible.
		srv.MarkNotReady()
		if err := CheckHealth(adminURL, http.StatusServiceUnavailable); err != nil {
			return fmt.Errorf("selftest: after MarkNotReady: %w", err)
		}
	}

	//strlint:ignore ctxprop selftest is a self-contained harness; its shutdown deadline is the root
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("selftest: drain: %w", err)
	}
	if adminURL != "" {
		// The admin endpoint outlives the drain — scraping a draining
		// server is exactly when the numbers matter — and keeps saying 503.
		if err := CheckHealth(adminURL, http.StatusServiceUnavailable); err != nil {
			return fmt.Errorf("selftest: during drain: %w", err)
		}
		fmt.Fprintf(w, "  admin: /healthz flipped to 503 before and during drain\n")
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("selftest: serve: %w", err)
	}
	if firstErr != nil {
		return fmt.Errorf("selftest: %w", firstErr)
	}

	st := srv.Stats()
	sum := lat.Summarize()
	served := sum.Count - overloaded.Load()
	fmt.Fprintf(w, "selftest: %d clients x %d queries against %d items (%d buffer shards)\n",
		cfg.Clients, cfg.QueriesPerClient, cfg.Size, cfg.Shards)
	fmt.Fprintf(w, "  served %d, overloaded %d, wall %v, %.0f qps\n",
		served, overloaded.Load(), elapsed.Round(time.Millisecond),
		float64(served)/elapsed.Seconds())
	fmt.Fprintf(w, "  client latency: p50 %v  p95 %v  p99 %v  max %v\n",
		time.Duration(sum.P50), time.Duration(sum.P95),
		time.Duration(sum.P99), time.Duration(sum.Max))
	fmt.Fprintf(w, "  server: accepted %d rejected %d completed %d timed-out %d failed %d\n",
		st.Accepted, st.Rejected, st.Completed, st.TimedOut, st.Failed)
	fmt.Fprintf(w, "  buffer: logical %d disk %d (hit ratio %.3f)\n",
		st.LogicalReads, st.DiskReads, hitRatio(st.LogicalReads, st.DiskReads))
	if st.Failed > 0 {
		return fmt.Errorf("selftest: %d requests failed server-side", st.Failed)
	}
	return nil
}

func hitRatio(logical, disk uint64) float64 {
	if logical == 0 {
		return 0
	}
	return 1 - float64(disk)/float64(logical)
}

// verifyAdmin asserts the admin endpoint's post-load contract: /metrics
// is Prometheus text with non-zero request counters and one buffer
// series per shard, and /stats serves a JSON array.
func verifyAdmin(w io.Writer, adminURL string, shards int) error {
	status, body, err := HTTPGet(adminURL + "/metrics")
	if err != nil {
		return fmt.Errorf("admin /metrics: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("admin /metrics = %d, want 200", status)
	}
	for _, typeLine := range []string{
		"# TYPE strserve_requests_total counter",
		"# TYPE strserve_op_latency_seconds summary",
		"# TYPE strserve_buffer_hits_total counter",
		"# TYPE strserve_buffer_pinned_frames gauge",
	} {
		if !strings.Contains(body, typeLine+"\n") {
			return fmt.Errorf("admin /metrics: missing %q", typeLine)
		}
	}
	var requests float64
	hitShards := 0
	for _, line := range strings.Split(body, "\n") {
		val := func() (float64, error) {
			i := strings.LastIndexByte(line, ' ')
			return strconv.ParseFloat(line[i+1:], 64)
		}
		switch {
		case strings.HasPrefix(line, "strserve_requests_total{"):
			v, err := val()
			if err != nil {
				return fmt.Errorf("admin /metrics: bad sample %q: %w", line, err)
			}
			requests += v
		case strings.HasPrefix(line, "strserve_buffer_hits_total{"):
			if _, err := val(); err != nil {
				return fmt.Errorf("admin /metrics: bad sample %q: %w", line, err)
			}
			hitShards++
		}
	}
	if requests < 0.5 { // counters are integral; < 0.5 means none
		return fmt.Errorf("admin /metrics: strserve_requests_total is zero after load")
	}
	if hitShards != shards {
		return fmt.Errorf("admin /metrics: %d buffer hit series, want one per shard (%d)", hitShards, shards)
	}
	status, statsBody, err := HTTPGet(adminURL + "/stats")
	if err != nil {
		return fmt.Errorf("admin /stats: %w", err)
	}
	if status != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(statsBody), "[") {
		return fmt.Errorf("admin /stats = %d %.40q, want a 200 JSON array", status, statsBody)
	}
	fmt.Fprintf(w, "  admin: /metrics ok (%.0f requests, %d shard series), /stats ok\n", requests, hitShards)
	return nil
}
