package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/server"
)

// TestSelftest runs the full in-process topology proof: identity with
// the unsharded tree across all ops, pruning via backend counters, and
// the kill-one-backend failure path — including the admin smoke checks.
func TestSelftest(t *testing.T) {
	var out bytes.Buffer
	err := Selftest(&out, SelftestConfig{
		Shards:    3,
		Size:      4000,
		Queries:   40,
		Seed:      42,
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"identity:", "pruning:", "failure:", "ejections=", "drain:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest report missing %q:\n%s", want, out.String())
		}
	}
}

// TestRouterEdges drives the running topology through the edges the
// selftest's randomized workload does not pin down: a query outside
// every shard (empty fan-out), a dimensionality mismatch, and a window
// spanning all shards.
func TestRouterEdges(t *testing.T) {
	items := server.UniformItems(500, 7)
	topo, err := buildTopology(items, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	cl := topo.client

	// Outside the data extent: no shard overlaps, empty OK answer with no
	// backend round trips.
	before := topo.router.BackendStats()
	n, err := cl.Count(geom.R2(5, 5, 6, 6))
	if err != nil || n != 0 {
		t.Fatalf("count outside extent = %d, %v; want 0, nil", n, err)
	}
	items2, err := cl.Search(geom.R2(5, 5, 6, 6))
	if err != nil || len(items2) != 0 {
		t.Fatalf("search outside extent = %v, %v", items2, err)
	}
	after := topo.router.BackendStats()
	for i := range after {
		if after[i].Requests != before[i].Requests {
			t.Fatalf("backend %d contacted for a query overlapping no shard", i)
		}
	}

	// Wrong dimensionality fails in-band as a bad request, before any
	// backend sees it.
	if _, err := cl.Count(geom.Rect{Min: geom.Point{0}, Max: geom.Point{1}}); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("1-d query against 2-d map: got %v, want ErrBadRequest", err)
	}
	// The connection survives a dims rejection.
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatalf("count after dims rejection: %v", err)
	}

	// Full-extent window visits every shard and counts everything.
	full, err := cl.Count(geom.R2(0, 0, 1, 1))
	if err != nil || full != 500 {
		t.Fatalf("full-extent count = %d, %v; want 500", full, err)
	}
}

func TestNewRejectsBadMaps(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil map accepted")
	}
	items := server.UniformItems(100, 1)
	m, _, err := partitionItems(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No addresses on shard 0.
	if _, err := New(Config{Map: m}); err == nil {
		t.Error("map without backend addresses accepted")
	}
}

// TestRouterAdminSurface exercises the admin handler directly: metrics
// exposition, the JSON stats mirror, and the readiness flip.
func TestRouterAdminSurface(t *testing.T) {
	items := server.UniformItems(300, 3)
	topo, err := buildTopology(items, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	if _, err := topo.client.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	h := topo.router.AdminHandler()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"strrouter_completed_total", "strrouter_fanout_width_shards",
		"strrouter_backend_requests_total{backend=", "strrouter_healthy_backends 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var stats struct {
		Percentiles string           `json:"percentiles"`
		Families    []map[string]any `json:"families"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats is not a JSON object: %v", err)
	}
	if stats.Percentiles != "upper-bound" {
		t.Errorf("/stats percentiles = %q, want %q (folded quantiles are upper bounds)", stats.Percentiles, "upper-bound")
	}
	if len(stats.Families) == 0 {
		t.Error("/stats families empty")
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while serving = %d", code)
	}
	topo.router.MarkNotReady()
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz after MarkNotReady = %d", code)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current /metrics")

// metricsShape reduces a /metrics body to what dashboards key on: every
// # HELP and # TYPE line, and each sample's name with its label keys
// (values vary run to run), sorted and deduplicated. It matches the
// server package's golden helper.
func metricsShape(body string) string {
	labelKey := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	seen := map[string]bool{}
	var lines []string
	for _, ln := range strings.Split(body, "\n") {
		if ln == "" {
			continue
		}
		if !strings.HasPrefix(ln, "# ") {
			name, labels, _ := strings.Cut(strings.Fields(ln)[0], "{")
			var keys []string
			for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
				keys = append(keys, m[1])
			}
			ln = name + "{" + strings.Join(keys, ",") + "}"
		}
		if !seen[ln] {
			seen[ln] = true
			lines = append(lines, ln)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestRouterMetricsGolden pins the router's exposition surface (no
// family, label key, TYPE or HELP line may drift unnoticed) and the
// byte-exact envelope of its /stats mirror.
func TestRouterMetricsGolden(t *testing.T) {
	topo, err := buildTopology(server.UniformItems(300, 3), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	if _, err := topo.client.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	h := topo.router.AdminHandler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}

	got := metricsShape(get("/metrics"))
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics shape differs from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}

	stats := get("/stats")
	const open, closing = `{"percentiles":"upper-bound","families":[`, "]\n}\n"
	if !strings.HasPrefix(stats, open) || !strings.HasSuffix(stats, closing) {
		t.Errorf("/stats envelope changed: want %q ... %q, got %.60q ... %q",
			open, closing, stats, stats[max(0, len(stats)-8):])
	}
}
