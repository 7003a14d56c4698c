// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run builds one workload from a seed, drives it for a
// fixed time, checks every answer against an oracle written here, and
// prints a human report followed by one JSON result line:
//
//	go run . --workload read-spill --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, timed with no
// instrumentation installed. With --trace 1 the layers are wrapped from
// outside (storage.Pager, buffer.Manager, rtree.Orderer, the wire codec
// and the calls into rtree.Tree), spans are recorded, and the JSON carries
// the per-layer metrics; the report adds the gap report and the tracing
// overhead. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// pageSize is the index page size every workload uses (the repository's
// default, 4 KiB).
const pageSize = 4096

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // index files live here; removed by the caller
	spans    string // directory a traced run writes its spans to ("" = none)
	out      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrong marks a wrong answer: the run fails as a whole.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error {
	return &errWrong{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(runConfig) (*result, error){
	"read-spill":   runReadSpill,
	"serve-routed": runServeRouted,
	"churn":        runChurn,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-spill, serve-routed or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for inputs and queries")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for index files (removed at exit)")
	flag.StringVar(&cfg.spans, "spans", "", "directory a traced run writes <workload>.csv.gz of spans to")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.out = os.Stdout
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload read-spill|serve-routed|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(cfg.out, "# perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d go=%s %s/%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, err := run(cfg)
	if rmErr := os.RemoveAll(cfg.workdir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if wrong := (*errWrong)(nil); errors.As(err, &wrong) && res != nil {
			res.Correct = false
			printResult(cfg.out, res)
		}
		os.Exit(1)
	}
	res.Correct = true
	printResult(cfg.out, res)
}

func printResult(w io.Writer, res *result) {
	// JSON has no infinity: a latency percentile that landed on a failed
	// op (+Inf) prints as the largest float instead.
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 1) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
			res.Metrics[name] = m
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// report prints one human-readable metric line.
func report(w io.Writer, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(w, "# %-34s %14.4f %s%s\n", name, v, unit, note)
}

// ------------------------------------------------------------ latencies

// latencies collects per-op times in microseconds, with each op's kind.
// A failed or refused op is recorded as +Inf so it sorts above every real
// latency.
type latencies struct {
	us   []float64
	kind []uint8
}

func newLatencies(capacity int) *latencies {
	return &latencies{us: make([]float64, 0, capacity), kind: make([]uint8, 0, capacity)}
}

func (l *latencies) add(d time.Duration, kind uint8) {
	l.us = append(l.us, float64(d)/1e3)
	l.kind = append(l.kind, kind)
}

func (l *latencies) fail(kind uint8) {
	l.us = append(l.us, math.Inf(1))
	l.kind = append(l.kind, kind)
}

func (l *latencies) n() int { return len(l.us) }

// byKind renders the median latency of each op kind, which shows where
// the overall median falls among the kinds' modes.
func (l *latencies) byKind(name func(uint8) string) string {
	per := map[uint8][]float64{}
	for i, v := range l.us {
		per[l.kind[i]] = append(per[l.kind[i]], v)
	}
	keys := make([]int, 0, len(per))
	for k := range per {
		keys = append(keys, int(k))
	}
	slices.Sort(keys)
	out := ""
	for _, k := range keys {
		xs := per[uint8(k)]
		slices.Sort(xs)
		out += fmt.Sprintf(" %s %.1f (%.0f%%)", name(uint8(k)), pct(xs, 0.5), 100*float64(len(xs))/float64(len(l.us)))
	}
	return out
}

// pct returns the nearest-rank q-quantile; the slice must be sorted.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// summary is a latency digest: the median and the highest of p99, p95 or
// p90 that still has at least ten samples beyond it.
type summary struct {
	n        int
	p50      float64
	tail     float64
	tailName string
	mean     float64
}

func (l *latencies) summarize() summary {
	s := slices.Clone(l.us)
	slices.Sort(s)
	out := summary{n: len(s), p50: pct(s, 0.5), tail: pct(s, 0.5), tailName: "p50"}
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(s))*(1-q) >= 10 {
			out.tail, out.tailName = pct(s, q), fmt.Sprintf("p%g", q*100)
			break
		}
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	out.mean = sum / float64(len(s))
	return out
}

// ------------------------------------------------------------ windows

// windowLen is the length of the windows a timed phase is cut into for
// latency percentiles, and rateBin the length of the bins throughput is
// counted in. Both are reported as medians over windows or bins, so a
// burst of interference from outside the benchmark (another tenant
// taking the CPU for a few milliseconds, a GC cycle) moves one window or
// bin rather than the figure. Bins are short because such stalls come
// several times a second on a shared host; most 100 ms bins hold none.
const (
	windowLen = time.Second
	rateBin   = 100 * time.Millisecond
)

// window is one slice of a timed phase: the latencies its ops took.
type window struct {
	reads, writes []float64
}

// windowed is the median over windows of each percentile.
type windowed struct {
	read, write summary // p50, tail and the smallest window's sample count
}

func summarizeWindows(ws []window) windowed {
	return windowed{
		read:  windowPcts(ws, func(w window) []float64 { return w.reads }),
		write: windowPcts(ws, func(w window) []float64 { return w.writes }),
	}
}

// binRates counts the ops completed (at times done, on a phase clock that
// ran for el) in each whole rateBin and returns each bin's rate in ops/s.
func binRates(done []time.Duration, el time.Duration) []float64 {
	bins := make([]float64, int(el/rateBin))
	for _, t := range done {
		if i := int(t / rateBin); i < len(bins) {
			bins[i]++
		}
	}
	for i := range bins {
		bins[i] /= rateBin.Seconds()
	}
	return bins
}

// windowPcts takes, in every window, the median and the highest of p99,
// p95 or p90 that leaves at least ten samples beyond it in the smallest
// window, and returns their medians; n is the smallest window's count.
func windowPcts(ws []window, lat func(window) []float64) summary {
	minN := -1
	for _, w := range ws {
		if n := len(lat(w)); n > 0 && (minN < 0 || n < minN) {
			minN = n
		}
	}
	if minN < 0 {
		return summary{}
	}
	q := 0.5
	for _, c := range []float64{0.99, 0.95, 0.90} {
		if float64(minN)*(1-c) >= 10 {
			q = c
			break
		}
	}
	var p50s, tails []float64
	for _, w := range ws {
		xs := slices.Clone(lat(w))
		if len(xs) == 0 {
			continue
		}
		slices.Sort(xs)
		p50s = append(p50s, pct(xs, 0.5))
		tails = append(tails, pct(xs, q))
	}
	return summary{n: minN, p50: median(p50s), tail: median(tails), tailName: fmt.Sprintf("p%g", q*100)}
}

// ------------------------------------------------------------ runtime

// liveHeap returns the bytes of live heap objects after two collections
// (the second empties sync.Pool victim caches, so pooled buffers do not
// jitter the figure).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memDelta brackets a timed loop: allocation and GC activity.
type memDelta struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func memSnap() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{alloc: a.alloc - b.alloc, gcs: a.gcs - b.gcs, pauseNs: a.pauseNs - b.pauseNs}
}

// ratio is a/b, or 0 when b (a count) is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mix64 is the SplitMix64 finalizer, used to fold ID sets into an
// order-independent fingerprint.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// idSet is an order-independent fingerprint of a set of IDs: two sets
// with equal fingerprints are equal except with probability ~2^-128.
type idSet struct {
	n        int
	sum, xor uint64
}

func (s *idSet) add(id uint64) {
	h := mix64(id)
	s.n++
	s.sum += h
	s.xor ^= mix64(h)
}
