package main

// Shared machinery of the two in-process workloads (read-spill and
// churn): building a file-backed index the way `strload build` does and
// reopening it with the serving buffer, executing and checking ops, the
// closed loop, and the per-layer metrics of the rtree/buffer/storage
// stack.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/metrics"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// servePages is the serving buffer of both in-process workloads: the
// repository's default 256-page (1 MiB) LRU.
const servePages = 256

const knnK = 10

type opKind uint8

const (
	opPoint  opKind = iota // SearchPoint, checked as an ID set
	opCount                // Count over a window, checked exactly
	opKNN                  // NearestK(10), checked by distance sequence
	opDelete               // Delete of a live item, must report found
	opInsert               // Insert of a new item
)

func (k opKind) write() bool { return k >= opDelete }

var opNames = [...]string{"point", "count", "knn", "delete", "insert"}

// op is one operation with its expected answer.
type op struct {
	kind opKind
	q    geom.Rect  // window (opCount), point rect (opPoint), item rect (writes)
	p    geom.Point // query point (opPoint, opKNN)
	id   uint64     // item (writes)
	want int        // count (opCount) or offset of the expected distances (opKNN)
	set  idSet      // expected IDs (opPoint)
	step int64      // tape position; an item answers a read only if live then
}

// localIndex is a file-backed packed index opened for serving.
type localIndex struct {
	tree  *rtree.Tree
	pool  *buffer.Pool
	pager *storage.FilePager
}

func (ix *localIndex) close() error { return ix.pager.Close() }

// setupPhases splits one set-up into its steps.
type setupPhases struct {
	build, flush, sync, open, first time.Duration
}

func (s setupPhases) total() time.Duration { return s.build + s.flush + s.sync + s.open + s.first }

// buildIndex bulk-loads entries with STR into a new index file through a
// 256-page buffer, flushes, syncs and closes it — what `strload build`
// does. With a tracer the pager and the orderer are wrapped.
func buildIndex(path string, entries []node.Entry, tr *tracer, ph *setupPhases) (buildSecs float64, err error) {
	t0 := time.Now()
	fp, err := storage.CreateFilePager(path, pageSize)
	if err != nil {
		return 0, err
	}
	var pg storage.Pager = fp
	var ord rtree.Orderer = pack.STR{Workers: runtime.GOMAXPROCS(0)}
	if tr != nil {
		pg = tracedPager{Pager: fp, tr: tr}
		ord = tracedOrderer{Orderer: ord, tr: tr}
	}
	t, err := rtree.Create(buffer.NewPool(pg, servePages), rtree.Config{Dims: 2, Workers: runtime.GOMAXPROCS(0)})
	if err == nil {
		err = t.BulkLoad(entries, ord)
	}
	buildSecs = time.Since(t0).Seconds()
	t1 := time.Now()
	if err == nil {
		err = t.Flush()
	}
	t2 := time.Now()
	if err == nil {
		err = fp.Sync()
	}
	if cerr := fp.Close(); err == nil {
		err = cerr
	}
	ph.build, ph.flush, ph.sync = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return buildSecs, err
}

// openIndex reopens an index file behind the serving buffer. With a
// tracer both the pager and the buffer are wrapped.
func openIndex(path string, tr *tracer) (*localIndex, error) {
	fp, err := storage.OpenFilePager(path, pageSize)
	if err != nil {
		return nil, err
	}
	var pg storage.Pager = fp
	if tr != nil {
		pg = tracedPager{Pager: fp, tr: tr}
	}
	pool := buffer.NewPool(pg, servePages)
	var mgr buffer.Manager = pool
	if tr != nil {
		mgr = tracedBuffer{Manager: pool, tr: tr}
	}
	t, err := rtree.Open(mgr)
	if err != nil {
		return nil, errors.Join(err, fp.Close())
	}
	t.SetWorkers(runtime.GOMAXPROCS(0))
	return &localIndex{tree: t, pool: pool, pager: fp}, nil
}

// ------------------------------------------------------------ executor

// executor runs ops against the tree and checks each answer. The timed
// interval covers only the call into rtree.Tree; checking runs after it.
type executor struct {
	ix    *localIndex
	o     *grid
	dists []float64 // expected kNN distances, indexed by op.want
	tr    *tracer   // nil when untraced
	// live reports whether item id was live at tape position step; nil
	// means every item is always live.
	live func(id uint64, step int64) bool
	// spaceAt, when set, is bytes_per_item at a fixed tape position;
	// churn sets it after its warm-up, so the figure does not depend on
	// how many writes the timed loop got through.
	spaceAt float64

	got idSet
	cb  func(node.Entry) bool
}

func newExecutor(ix *localIndex, o *grid, dists []float64, tr *tracer) *executor {
	x := &executor{ix: ix, o: o, dists: dists, tr: tr}
	x.cb = func(e node.Entry) bool { x.got.add(e.Ref); return true }
	return x
}

// run executes o and returns the time spent inside the tree call (and,
// when traced, the op span's own cost, which the gap report shows as
// unattributed). A call
// that returns an error is a failed op (err set, not a wrong answer); a
// wrong answer returns an *errWrong.
func (x *executor) run(o *op) (time.Duration, error) {
	t := x.ix.tree
	x.got = idSet{}
	var (
		n     int
		found bool
		ids   []node.Entry
		ds    []float64
		err   error
	)
	start := time.Now()
	sp := x.tr.begin(lOp, 0)
	switch o.kind {
	case opPoint:
		err = t.SearchPoint(o.p, x.cb)
	case opCount:
		n, err = t.Count(o.q)
	case opKNN:
		ids, ds, err = t.NearestK(o.p, knnK)
	case opDelete:
		found, err = t.Delete(o.q, o.id)
	case opInsert:
		err = t.Insert(o.q, o.id)
	}
	x.tr.end(sp)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	switch o.kind {
	case opPoint:
		if x.got != o.set {
			return d, wrongf("point %v: got %d items, want %d (or different IDs)", o.p, x.got.n, o.set.n)
		}
	case opCount:
		if n != o.want {
			return d, wrongf("count %v: got %d, want %d", o.q, n, o.want)
		}
	case opKNN:
		return d, x.checkKNN(o, ids, ds)
	case opDelete:
		if !found {
			return d, wrongf("delete of live item %d reported not found", o.id)
		}
	}
	return d, nil
}

// checkKNN accepts any order among items tied at a distance: the
// distance sequence must equal the oracle's, and every returned item must
// have been live and lie at its stated distance.
func (x *executor) checkKNN(o *op, ids []node.Entry, ds []float64) error {
	want := x.dists[o.want : o.want+knnK]
	for len(want) > 0 && math.IsInf(want[len(want)-1], 1) {
		want = want[:len(want)-1]
	}
	if len(ids) != len(want) || len(ds) != len(want) {
		return wrongf("knn %v: got %d results, want %d", o.p, len(ids), len(want))
	}
	for i := range ids {
		id := ids[i].Ref
		if !sameDist(ds[i], want[i]) {
			return wrongf("knn %v: distance %d is %g, want %g", o.p, i, ds[i], want[i])
		}
		if int(id) >= len(x.o.alive) || (x.live != nil && !x.live(id, o.step)) {
			return wrongf("knn %v: item %d was not live", o.p, id)
		}
		if !sameDist(x.o.dist(o.p, id), ds[i]) {
			return wrongf("knn %v: item %d lies at %g, stated %g", o.p, id, x.o.dist(o.p, id), ds[i])
		}
		for j := 0; j < i; j++ {
			if ids[j].Ref == id {
				return wrongf("knn %v: item %d returned twice", o.p, id)
			}
		}
	}
	return nil
}

// expectKNN records the oracle's k smallest distances for p, padding with
// +Inf when fewer than k items are live, and returns their offset.
func expectKNN(o *grid, p geom.Point, dists *[]float64, buf []float64) int {
	off := len(*dists)
	best := o.knnDists(p, knnK, buf)
	*dists = append(*dists, best...)
	for i := len(best); i < knnK; i++ {
		*dists = append(*dists, math.Inf(1))
	}
	return off
}

// ------------------------------------------------------------ loop

// loopStats is what one timed closed-loop phase measured.
type loopStats struct {
	ops, failed int64 // a write step (Delete+Insert) is one op
	elapsed     time.Duration
	windows     []window
	doneAt      []time.Duration // completion of each op on the phase clock
	reads       *latencies
	writes      *latencies
	mem         memDelta
	buf         buffer.Stats
	mutBefore   rtree.MutateStats
	mutAfter    rtree.MutateStats
	readsBefore rtree.ReadStats
	readsAfter  rtree.ReadStats
	// Traced phases only: the spans' start index, and per op (by op id)
	// a copy of the op and its harness-timed latency.
	spanFrom    int
	traced      []op
	opLatencyUs []float64
}

// runPhase drives ops from next() in a closed loop until budget is spent
// (or, when traced, the span buffer fills). next returns nil when the
// tape is exhausted and more must be generated: the clock stops while
// refill() runs.
func runPhase(x *executor, budget time.Duration, next func() *op, refill func() error, traced bool) (*loopStats, error) {
	ls := &loopStats{reads: newLatencies(1 << 20), writes: newLatencies(1 << 20), doneAt: make([]time.Duration, 0, 1<<20)}
	ix := x.ix
	if x.tr != nil {
		ls.spanFrom = x.tr.len()
		x.tr.setMode(true)
		x.tr.on.Store(traced)
		defer x.tr.on.Store(false)
	}
	b0 := ix.pool.Stats()
	ls.mutBefore = ix.tree.MutateStats()
	ls.readsBefore = ix.tree.ReadStats()
	var elapsed time.Duration
	opIdx := 0
	var cutAt time.Duration // the last window boundary
	cutR, cutW := 0, 0
	closeWindow := func(now time.Duration) {
		ls.windows = append(ls.windows, window{
			reads:  ls.reads.us[cutR:len(ls.reads.us):len(ls.reads.us)],
			writes: ls.writes.us[cutW:len(ls.writes.us):len(ls.writes.us)],
		})
		cutAt, cutR, cutW = now, len(ls.reads.us), len(ls.writes.us)
	}
	for elapsed < budget {
		// Allocation and GC are counted over the timed segments only,
		// not over the refills between them.
		m0 := memSnap()
		start := time.Now()
		for elapsed+time.Since(start) < budget {
			// A full span buffer ends the phase before the next op is
			// taken from the tape: an op taken but not run would leave
			// the tree one step behind the tape (churn's final check).
			if traced && x.tr.full() {
				budget = 0
				break
			}
			o := next()
			if o == nil {
				break
			}
			if traced {
				x.tr.setOp(opIdx)
			}
			d, err := x.run(o)
			if _, wrong := err.(*errWrong); wrong {
				return ls, err
			}
			lat := ls.reads
			if o.kind.write() {
				lat = ls.writes
			}
			if err != nil {
				lat.fail(uint8(o.kind))
				ls.failed++
			} else {
				lat.add(d, uint8(o.kind))
			}
			now := elapsed + time.Since(start)
			if o.kind != opInsert {
				ls.ops++ // a write step (Delete+Insert) is one op
				ls.doneAt = append(ls.doneAt, now)
			}
			if traced {
				ls.opLatencyUs = append(ls.opLatencyUs, float64(d)/1e3)
				ls.traced = append(ls.traced, *o)
			}
			opIdx++
			if now-cutAt >= windowLen {
				closeWindow(now)
			}
		}
		elapsed += time.Since(start)
		seg := memSnap().since(m0)
		ls.mem.alloc += seg.alloc
		ls.mem.gcs += seg.gcs
		ls.mem.pauseNs += seg.pauseNs
		if elapsed < budget {
			if err := refill(); err != nil {
				return ls, err
			}
		}
	}
	ls.elapsed = elapsed
	if elapsed-cutAt >= windowLen/2 {
		closeWindow(elapsed)
	}
	b1 := ix.pool.Stats()
	ls.buf = buffer.Stats{
		LogicalReads: b1.LogicalReads - b0.LogicalReads,
		DiskReads:    b1.DiskReads - b0.DiskReads,
		DiskWrites:   b1.DiskWrites - b0.DiskWrites,
		Evictions:    b1.Evictions - b0.Evictions,
	}
	ls.mutAfter = ix.tree.MutateStats()
	ls.readsAfter = ix.tree.ReadStats()
	return ls, nil
}

// ------------------------------------------------------------ set-up

// setupStats are several set-ups of one run: the median is setup_s.
type setupStats struct {
	phases []setupPhases
	memMB  float64
}

func (s *setupStats) median() float64 {
	xs := make([]float64, len(s.phases))
	for i, p := range s.phases {
		xs[i] = p.total().Seconds()
	}
	return median(xs)
}

func (s *setupStats) print(w io.Writer) {
	var b, f, sy, o, fi []float64
	for _, p := range s.phases {
		b = append(b, p.build.Seconds())
		f = append(f, p.flush.Seconds())
		sy = append(sy, p.sync.Seconds())
		o = append(o, p.open.Seconds())
		fi = append(fi, p.first.Seconds())
	}
	fmt.Fprintf(w, "# setup medians over %d set-ups: build %.4fs flush %.4fs sync %.4fs open %.4fs first-op %.4fs\n",
		len(s.phases), median(b), median(f), median(sy), median(o), median(fi))
	fmt.Fprintf(w, "# setup_s samples:")
	for _, p := range s.phases {
		fmt.Fprintf(w, " %.4f", p.total().Seconds())
	}
	fmt.Fprintln(w)
}

// setupLocal builds and reopens the index reps times from fresh copies of
// entries and returns the last one opened, ready to serve. first is the
// first op, whose answer ends the set-up. The live heap is measured after
// the last set-up, with the working copy of the inputs released.
func setupLocal(path string, entries []node.Entry, reps int, tr *tracer, mk func(*localIndex) *executor, first *op) (*localIndex, *executor, *setupStats, float64, error) {
	st := &setupStats{}
	var ix *localIndex
	var x *executor
	var buildSecs float64
	for r := 0; r < reps; r++ {
		if ix != nil {
			if err := ix.close(); err != nil {
				return nil, nil, nil, 0, err
			}
			ix, x = nil, nil
		}
		work := slices.Clone(entries)
		if tr != nil {
			tr.setMode(false)
			tr.on.Store(true)
		}

		// Every set-up starts from a collected heap, as in a fresh
		// process: whether a GC cycle lands inside the build otherwise
		// depends on the garbage earlier set-ups left, and that cycle
		// (marking the ~140 MiB of inputs and oracle) was the main source
		// of set-up time spread.
		runtime.GC()
		var ph setupPhases
		bs, err := buildIndex(path, work, tr, &ph)
		if tr != nil {
			tr.on.Store(false)
		}
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("build: %w", err)
		}
		buildSecs = bs
		t1 := time.Now()
		ix, err = openIndex(path, tr)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("open: %w", err)
		}
		t2 := time.Now()
		x = mk(ix)
		if _, err := x.run(first); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("first op: %w", err)
		}
		ph.open, ph.first = t2.Sub(t1), time.Since(t2)
		st.phases = append(st.phases, ph)
		runtime.KeepAlive(work)
		work = nil
		st.memMB = float64(liveHeap()) / (1 << 20)
	}
	return ix, x, st, buildSecs, nil
}

// ------------------------------------------------------------ run

// runLocal drives an in-process workload's timed phases and reports. An
// untraced run is one phase with no wrapper installed. A traced run is an
// untraced half (wrappers passive) then a traced half; the difference of
// their read medians is the tracing overhead. final runs untimed checks
// after the loop.
func runLocal(cfg runConfig, x *executor, st *setupStats, buildSecs float64, items int, kfExtent float64,
	next func() *op, refill func() error, final func(io.Writer) error) (*result, error) {
	w := cfg.out
	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		ls, err := runPhase(x, budget, next, refill, false)
		if ls != nil {
			res.Attempted, res.Failed = ls.ops, ls.failed
		}
		if err != nil {
			return res, err
		}
		if err := final(w); err != nil {
			return res, err
		}
		localE2E(w, x, st, ls, res.Metrics)
		return res, nil
	}
	setupSpans := x.tr.since(0)
	setupTot, _ := analyze(setupSpans, 0, 0)
	un, err := runPhase(x, budget/2, next, refill, false)
	if un != nil {
		res.Attempted, res.Failed = un.ops, un.failed
	}
	if err != nil {
		return res, err
	}
	ls, err := runPhase(x, budget/2, next, refill, true)
	if ls != nil {
		res.Attempted += ls.ops
		res.Failed += ls.failed
	}
	if err != nil {
		return res, err
	}
	if err := final(w); err != nil {
		return res, err
	}
	fmt.Fprintln(w, "# untraced half of the traced run:")
	localE2E(w, x, st, un, map[string]metric{})
	if err := localLayers(w, x, ls, un, &setupTot, buildSecs, items, kfExtent, res.Metrics); err != nil {
		return res, err
	}
	printLayers(w, res.Metrics)
	return res, writeSpans(cfg.spans, cfg.workload, x.tr)
}

// localE2E prints every end-to-end metric of an in-process workload and
// stores the gated ones in out.
func localE2E(w io.Writer, x *executor, st *setupStats, ls *loopStats, out map[string]metric) {
	ops := float64(ls.ops)
	whole := ls.reads.summarize()
	win := summarizeWindows(ls.windows)
	set := func(name string, v float64, unit, note string) {
		report(w, name, v, unit, note)
		out[name] = metric{Value: v, Unit: unit}
	}
	set("setup_s", st.median(), "s", fmt.Sprintf("median of %d set-ups", len(st.phases)))
	set("mem_mb", st.memMB, "MiB", "live Go heap after set-up, inputs and oracle included")
	bins := binRates(ls.doneAt, ls.elapsed)
	set("ops_per_s", median(bins), "1/s", fmt.Sprintf("median of %d bins of %v; %d ops in %.2fs (%.1f/s), one goroutine", len(bins), rateBin, ls.ops, ls.elapsed.Seconds(), ops/ls.elapsed.Seconds()))
	set("read_p50_us", win.read.p50, "us", fmt.Sprintf("median of windows, >= %d reads each; whole run %.2f over %d, mean %.2f", win.read.n, whole.p50, whole.n, whole.mean))
	report(w, "read_p99_us", win.read.tail, "us", fmt.Sprintf("%s, median of windows; whole run %s %.2f; not gated", win.read.tailName, whole.tailName, whole.tail))
	opName := func(k uint8) string { return opNames[k] }
	fmt.Fprintf(w, "# read p50 by kind (share):%s\n", ls.reads.byKind(opName))
	report(w, "disk_reads_per_op", float64(ls.buf.DiskReads)/ops, "reads/op", "buffer misses, exact: one goroutine drives the tree")
	if ls.writes.n() > 0 {
		writes := ls.writes.summarize()
		report(w, "write_p50_us", win.write.p50, "us", fmt.Sprintf("median of windows, >= %d Insert/Delete calls each; whole run %.2f over %d, mean %.2f", win.write.n, writes.p50, writes.n, writes.mean))
		report(w, "write_p99_us", win.write.tail, "us", fmt.Sprintf("%s, median of windows; whole run %s %.2f", win.write.tailName, writes.tailName, writes.tail))
	}
	live := x.ix.tree.Len()
	space := float64(x.ix.pager.NumPages()*pageSize) / float64(live)
	note := fmt.Sprintf("%d pages, %d live items", x.ix.pager.NumPages(), live)
	if x.spaceAt > 0 {
		note = fmt.Sprintf("after the warm-up; %.2f at the end of the loop, %d pages", space, x.ix.pager.NumPages())
		space = x.spaceAt
	}
	set("bytes_per_item", space, "B/item", note)
	set("alloc_b_per_op", float64(ls.mem.alloc)/ops, "B/op", "")
	report(w, "fail_ratio", float64(ls.failed)/ops, "ratio", fmt.Sprintf("%d of %d ops failed", ls.failed, ls.ops))
}

// printLayers prints the per-layer metrics in name order.
func printLayers(w io.Writer, m map[string]metric) {
	fmt.Fprintln(w, "# per-layer metrics (traced half):")
	for _, name := range perLayerNames {
		v := m[name]
		report(w, name, v.Value, v.Unit, "")
	}
}

// perLayerNames lists every per-layer metric, layer by layer.
var perLayerNames = []string{
	"storage.reads_per_op", "storage.read_us_per_op", "storage.writes_per_op", "storage.write_us_per_op", "storage.build_write_s",
	"buffer.fetches_per_op", "buffer.hit_ratio", "buffer.evictions_per_op", "buffer.fetch_self_us_per_op", "buffer.writepins_per_write",
	"node.view_pages_per_op", "node.view_ns_per_page",
	"rtree.read_self_us_per_op", "rtree.write_self_us_per_op", "rtree.structural_ratio", "rtree.traverser_allocs", "rtree.kf_ratio",
	"pack.order_s", "pack.entries_per_s",
	"wire.encode_ns_per_req", "wire.decode_ns_per_resp", "wire.resp_bytes_per_op", "wire.transit_us_p50",
	"server.exec_us_p50", "server.exec_us_p99", "server.rejected_per_kop",
	"router.latency_us_p50", "router.self_us_p50", "router.merge_us_p50", "router.fanout_width_mean",
	"router.useful_fanout_ratio", "router.knn_tie_divergence_ratio",
	"loadgen.late_p99_us", "runtime.gc_cycles_per_kop", "runtime.gc_pause_us_per_kop",
}

// ------------------------------------------------------------ per layer

// localLayers computes the per-layer metrics of a traced phase of an
// in-process workload and prints the gap report.
func localLayers(w io.Writer, x *executor, ls *loopStats, untraced *loopStats, setupTr *spanTotals, buildSecs float64, items int, kfExtent float64, out map[string]metric) error {
	tr := x.tr
	spans := tr.since(ls.spanFrom)
	nops := len(ls.traced)
	tot, byOp := analyze(spans, ls.spanFrom, nops)
	ops := float64(ls.ops)
	var readOps, writeCalls, countOps float64
	var readSelf, writeSelf, countFetches float64
	fetchesByOp := make([]int, nops)
	for _, s := range spans {
		if s.layer == lFetch && s.op >= 0 && int(s.op) < nops {
			fetchesByOp[s.op]++
		}
	}
	for i := range ls.traced {
		k := ls.traced[i].kind
		switch {
		case k.write():
			writeCalls++
			writeSelf += byOp[i][lOp]
		default:
			readOps++
			readSelf += byOp[i][lOp]
		}
		if k == opCount {
			countOps++
			countFetches += float64(fetchesByOp[i])
		}
	}
	div := ratio
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }

	set("storage.reads_per_op", div(float64(tot.count[lRead]), ops), "pages/op")
	set("storage.read_us_per_op", div(tot.total[lRead]/1e3, ops), "us/op")
	set("storage.writes_per_op", div(float64(tot.count[lWrite]), ops), "pages/op")
	set("storage.write_us_per_op", div((tot.total[lWrite]+tot.total[lAlloc])/1e3, ops), "us/op")
	set("storage.build_write_s", (setupTr.total[lWrite]+setupTr.total[lAlloc])/1e9, "s")

	set("buffer.fetches_per_op", div(float64(tot.count[lFetch]), ops), "fetches/op")
	set("buffer.hit_ratio", div(float64(ls.buf.LogicalReads-ls.buf.DiskReads), float64(ls.buf.LogicalReads)), "ratio")
	set("buffer.evictions_per_op", div(float64(ls.buf.Evictions), ops), "frames/op")
	set("buffer.fetch_self_us_per_op", div(tot.bufferSelf()/1e3, ops), "us/op")
	set("buffer.writepins_per_write", div(float64(tot.count[lFetchMut]), writeCalls), "pins/call")

	viewPages := float64(ls.readsAfter.ViewPages - ls.readsBefore.ViewPages)
	set("node.view_pages_per_op", div(viewPages, readOps), "pages/op")
	viewNs, replayed, err := replayViews(x, spans, ls.traced)
	if err != nil {
		return err
	}
	set("node.view_ns_per_page", viewNs, "ns/page")

	set("rtree.read_self_us_per_op", div(readSelf/1e3, readOps), "us/op")
	set("rtree.write_self_us_per_op", div(writeSelf/1e3, writeCalls), "us/call")
	inPlace := float64(ls.mutAfter.InPlaceInserts + ls.mutAfter.InPlaceDeletes - ls.mutBefore.InPlaceInserts - ls.mutBefore.InPlaceDeletes)
	structural := float64(ls.mutAfter.StructuralInserts + ls.mutAfter.StructuralDeletes - ls.mutBefore.StructuralInserts - ls.mutBefore.StructuralDeletes)
	set("rtree.structural_ratio", div(structural, inPlace+structural), "ratio")
	set("rtree.traverser_allocs", float64(ls.readsAfter.TraverserAllocs-ls.readsBefore.TraverserAllocs), "count")
	kf := 0.0
	var expected float64
	if kfExtent > 0 && countOps > 0 {
		expected, err = metrics.ExpectedAccesses(x.ix.tree, []float64{kfExtent, kfExtent})
		if err != nil {
			return err
		}
		kf = div(countFetches/countOps, expected)
	}
	set("rtree.kf_ratio", kf, "ratio")

	set("pack.order_s", setupTr.total[lOrder]/1e9, "s")
	set("pack.entries_per_s", div(float64(items), buildSecs), "entries/s")
	for _, name := range remoteLayerNames {
		set(name, 0, remoteLayerUnits[name])
	}
	set("loadgen.late_p99_us", 0, "us")
	set("runtime.gc_cycles_per_kop", div(float64(untraced.mem.gcs), float64(untraced.ops)/1e3), "cycles/kop")
	set("runtime.gc_pause_us_per_kop", div(float64(untraced.mem.pauseNs)/1e3, float64(untraced.ops)/1e3), "us/kop")

	// Gap report.
	fmt.Fprintf(w, "# traced phase: %d ops (%d read ops, %d write calls), %d spans\n", ls.ops, int(readOps), int(writeCalls), len(spans))
	stack := func(label string, want func(opKind) bool, untracedLat *latencies) {
		var lats []float64
		for i := range ls.traced {
			if want(ls.traced[i].kind) {
				lats = append(lats, ls.opLatencyUs[i])
			}
		}
		if len(lats) == 0 {
			return
		}
		sorted := slices.Clone(lats)
		slices.Sort(sorted)
		lo, hi := pct(sorted, 0.45), pct(sorted, 0.55)
		var band perOp
		var bandLat float64
		n, bandFetches := 0, 0
		for i := range ls.traced {
			if want(ls.traced[i].kind) && ls.opLatencyUs[i] >= lo && ls.opLatencyUs[i] <= hi {
				for l := range band {
					band[l] += byOp[i][l]
				}
				bandLat += ls.opLatencyUs[i]
				bandFetches += fetchesByOp[i]
				n++
			}
		}
		us := func(ns float64) float64 { return ns / 1e3 / float64(n) }
		p50 := pct(sorted, 0.5)
		un := untracedLat.summarize().p50
		mean := bandLat / float64(n)
		fmt.Fprintf(w, "# gap report, %s: self time per op of the %d traced ops in the p45-p55 latency band (traced %s_p50_us %.2f)\n", label, n, label, p50)
		fmt.Fprintf(w, "#   band mean latency                   %10.2f us\n", mean)
		fmt.Fprintf(w, "#   rtree self                          %10.2f us\n", us(band[lOp]))
		if label == "read" && viewNs > 0 {
			pages := float64(bandFetches) / float64(n)
			fmt.Fprintf(w, "#     of which node view decode ~       %10.2f us (%.1f pages x %.0f ns, replayed over %d pages)\n", pages*viewNs/1e3, pages, viewNs, replayed)
		}
		fmt.Fprintf(w, "#   buffer self (Fetch+Release-pager)   %10.2f us\n", us(band.buffer()))
		fmt.Fprintf(w, "#   storage (pager calls)               %10.2f us\n", us(band.storage()))
		fmt.Fprintf(w, "#   unattributed (harness, span cost)   %10.2f us\n", mean-us(band[lOp]+band.buffer()+band.storage()))
		fmt.Fprintf(w, "# tracing overhead, %s: traced p50 %.2f us - untraced p50 %.2f us = %.2f us\n", label, p50, un, p50-un)
	}
	stack("read", func(k opKind) bool { return !k.write() }, untraced.reads)
	stack("write", opKind.write, untraced.writes)
	if kf > 0 {
		fmt.Fprintf(w, "# Kamel-Faloutsos: predicted %.2f node accesses per %.3g%%-area region query, measured %.2f fetches (kf_ratio %.3f)\n",
			expected, kfExtent*kfExtent*100, countFetches/countOps, kf)
	}
	return nil
}

// replayViews times node.MakeView plus IntersectsQuery over the pages the
// traced phase fetched for reads, each against the query of the op that
// fetched it (a kNN op's point stands in as a degenerate window). Page
// bytes are loaded first, outside the timed loop.
func replayViews(x *executor, spans []span, ops []op) (nsPerPage float64, pages int, err error) {
	const maxPages = 200000
	type rec struct {
		off int
		q   geom.Rect
	}
	index := map[uint32]int{}
	var data []byte
	var recs []rec
	for _, s := range spans {
		if s.layer != lFetch || s.op < 0 || int(s.op) >= len(ops) || ops[s.op].kind.write() {
			continue
		}
		off, ok := index[s.page]
		if !ok {
			off = len(data)
			data = append(data, make([]byte, pageSize)...)
			if err := x.ix.pager.ReadPage(storage.PageID(s.page), data[off:off+pageSize]); err != nil {
				return 0, 0, err
			}
			index[s.page] = off
		}
		recs = append(recs, rec{off: off, q: ops[s.op].q})
		if len(recs) == maxPages {
			break
		}
	}
	if len(recs) == 0 {
		return 0, 0, nil
	}
	// In the traced run a page is decoded right after the pager copied it
	// into its frame, so each page is replayed warm: decoded once
	// untimed, then once timed. The cost of reading the clock is
	// measured and subtracted.
	hits := 0
	decode := func(page []byte, q geom.Rect) error {
		v, err := node.MakeView(page)
		if err != nil {
			return err
		}
		for i := 0; i < v.Count(); i++ {
			if v.IntersectsQuery(q, i) {
				hits++
			}
		}
		return nil
	}
	clock := make([]float64, 1001)
	for i := range clock {
		t := time.Now()
		clock[i] = float64(time.Since(t))
	}
	var total time.Duration
	for _, r := range recs {
		page := data[r.off : r.off+pageSize]
		if err := decode(page, r.q); err != nil {
			return 0, 0, err
		}
		t := time.Now()
		_ = decode(page, r.q)
		total += time.Since(t)
	}
	runtime.KeepAlive(hits)
	return float64(total)/float64(len(recs)) - median(clock), len(recs), nil
}

// remoteLayerNames are the per-layer metrics of the wire, server and
// router layers, which the in-process workloads bypass (reported as 0).
var remoteLayerNames = []string{
	"wire.encode_ns_per_req", "wire.decode_ns_per_resp", "wire.resp_bytes_per_op", "wire.transit_us_p50",
	"server.exec_us_p50", "server.exec_us_p99", "server.rejected_per_kop",
	"router.latency_us_p50", "router.self_us_p50", "router.merge_us_p50", "router.fanout_width_mean",
	"router.useful_fanout_ratio", "router.knn_tie_divergence_ratio",
}

var remoteLayerUnits = map[string]string{
	"wire.encode_ns_per_req": "ns/req", "wire.decode_ns_per_resp": "ns/resp", "wire.resp_bytes_per_op": "B/op",
	"wire.transit_us_p50": "us", "server.exec_us_p50": "us", "server.exec_us_p99": "us",
	"server.rejected_per_kop": "1/kop", "router.latency_us_p50": "us", "router.self_us_p50": "us",
	"router.merge_us_p50": "us", "router.fanout_width_mean": "shards", "router.useful_fanout_ratio": "ratio",
	"router.knn_tie_divergence_ratio": "ratio",
}
