package main

// serve-routed: 300k uniform squares cut into 3 STR shards
// (shardmap.Partition, as `strload build -shards` does), each served by
// internal/server with a buffer that holds the whole shard, behind
// internal/router, all on loopback. The buffer always hits and storage is
// idle, so the wire codec, the connection loops, admission and the
// fan-out/merge dominate. Answers are checked against an in-process
// unsharded tree.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"strtree"
	"strtree/internal/datagen"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/query"
	"strtree/internal/router"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
	"strtree/internal/storage"
)

const (
	srItems   = 300_000
	srShards  = 3
	srConns   = 2 // load connections, at most one per core
	srDensity = 1.0
	srWindow  = 0.01 // side of the Search and Count windows (~45 items)
	srQueries = 40_000
	srSetups  = 5
	// srShardPages is each shard's buffer: it holds the whole shard
	// (~1000 pages of 100k items), so every fetch hits.
	srShardPages = 2048
	// srRate is the open-loop offered rate, far below the knee: the
	// closed loop with two connections completes 10-15k ops/s on the
	// 2-vCPU VM it was tuned on, and the margin holds when a busy host
	// halves that.
	srRate = 2000
	// Each round of the measured time is one closed-loop window then one
	// open-loop window.
	srClosedWindow = time.Second
	srOpenWindow   = 500 * time.Millisecond
)

// srMix is one cycle of the op mix: 40% window Search, 20% SearchPoint,
// 10% window Count, 30% kNN-10 (a broadcast to every shard plus a merge).
// Point and Count answer fastest and kNN slowest, so the median falls in
// the middle of the Search mode rather than on the edge between modes.
var srMix = [...]wire.Op{
	wire.OpSearch, wire.OpSearchPoint, wire.OpNearest, wire.OpSearch, wire.OpCount,
	wire.OpNearest, wire.OpSearch, wire.OpSearchPoint, wire.OpNearest, wire.OpSearch,
}

// rop is one routed request with the unsharded tree's answer.
type rop struct {
	req       wire.Request
	off, n    int // expected IDs (sorted for Search/SearchPoint, in order for kNN) in the slab; n is the count for Count
	doff      int // expected kNN distances in the dists slab
	contacted int // shards the router's pruning contacts
	useful    int // of those, shards holding at least one answer item
}

type routedRef struct {
	items []node.Entry // by ID
	ops   []rop
	ids   []uint64
	dists []float64
}

// wireConn is the load generator's client: one connection, requests
// encoded and decoded with internal/server/wire and timed per layer.
type wireConn struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	out, in   []byte
	tr        *tracer
	respBytes int64
}

func dialWire(addr string, tr *tracer) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c), tr: tr}, nil
}

func (c *wireConn) do(req *wire.Request) (*wire.Response, error) {
	s := c.tr.begin(lEncode, 0)
	payload, err := wire.AppendRequest(c.out[:0], req)
	c.tr.end(s)
	if err != nil {
		return nil, err
	}
	c.out = payload
	s = c.tr.begin(lTransit, 0)
	err = wire.WriteFrame(c.bw, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	var frame []byte
	if err == nil {
		frame, err = wire.ReadFrame(c.br, c.in)
	}
	c.tr.end(s)
	if err != nil {
		return nil, err
	}
	c.in = frame
	c.respBytes += int64(len(frame)) + 4
	s = c.tr.begin(lDecode, 0)
	resp, err := wire.ParseResponse(frame)
	c.tr.end(s)
	return resp, err
}

// topology is one set-up: shard trees, their servers, the router and the
// load connections.
type topology struct {
	trees     []*strtree.Tree
	pagers    []storage.Pager
	servers   []*server.Server
	router    *router.Router
	conns     []*wireConn
	serveWG   sync.WaitGroup
	buildSecs float64 // summed BulkLoad wall time
}

func startTopology(entries []node.Entry, tr *tracer, loadTracers []*tracer) (*topology, error) {
	t := &topology{}
	m, parts, err := shardmap.Partition(entries, srShards, 0)
	if err != nil {
		return t, err
	}
	for i, part := range parts {
		var pg storage.Pager = storage.NewMemPager(pageSize)
		if tr != nil {
			pg = tracedPager{Pager: pg, tr: tr}
		}
		t.pagers = append(t.pagers, pg)
		tree, err := strtree.NewOnPager(pg, strtree.Options{BufferPages: srShardPages})
		if err != nil {
			return t, err
		}
		t.trees = append(t.trees, tree)
		sub := make([]strtree.Item, len(part))
		for j, e := range part {
			sub[j] = strtree.Item{Rect: e.Rect, ID: e.Ref}
		}
		b0 := time.Now()
		if err := tree.BulkLoad(sub, strtree.PackSTR); err != nil {
			return t, err
		}
		t.buildSecs += time.Since(b0).Seconds()
		if pg.NumPages() > srShardPages {
			return t, fmt.Errorf("shard %d has %d pages, more than its %d-page buffer", i, pg.NumPages(), srShardPages)
		}
		srv := server.New(tree, server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return t, err
		}
		t.servers = append(t.servers, srv)
		t.serveWG.Add(1)
		go func() { defer t.serveWG.Done(); _ = srv.Serve(ln) }()
		m.Shards[i].Addrs = []string{ln.Addr().String()}
	}
	t.router, err = router.New(router.Config{Map: m})
	if err != nil {
		return t, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	t.serveWG.Add(1)
	go func() { defer t.serveWG.Done(); _ = t.router.Serve(ln) }()
	for i := 0; i < srConns; i++ {
		c, err := dialWire(ln.Addr().String(), loadTracers[i])
		if err != nil {
			return t, err
		}
		t.conns = append(t.conns, c)
	}
	return t, nil
}

// close drains the router and the servers, waits for every Serve to
// return, and closes the trees.
func (t *topology) close() error {
	var errs []error
	for _, c := range t.conns {
		errs = append(errs, c.conn.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.router != nil {
		errs = append(errs, t.router.Shutdown(ctx))
	}
	for _, s := range t.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	t.serveWG.Wait()
	for _, tree := range t.trees {
		errs = append(errs, tree.Close())
	}
	return errors.Join(errs...)
}

// stats sums the shard trees' buffer and read-path counters.
func (t *topology) stats() (strtree.IOStats, strtree.ReadPathStats) {
	var io strtree.IOStats
	var rp strtree.ReadPathStats
	for _, tree := range t.trees {
		s := tree.Stats()
		io.LogicalReads += s.LogicalReads
		io.DiskReads += s.DiskReads
		io.Evictions += s.Evictions
		r := tree.ReadPathStats()
		rp.ViewPages += r.ViewPages
		rp.TraverserAllocs += r.TraverserAllocs
	}
	return io, rp
}

func buildRoutedRef(seed int64) (*routedRef, error) {
	items := datagen.UniformSquares(srItems, srDensity, seed)
	ref, err := strtree.New(strtree.Options{BufferPages: 8192})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	pub := make([]strtree.Item, len(items))
	for i, e := range items {
		pub[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}
	if err := ref.BulkLoad(pub, strtree.PackSTR); err != nil {
		return nil, err
	}
	// The shard each item lands in and the shard MBRs, for the fan-out
	// accounting (the router contacts shards whose MBR the query meets).
	m, parts, err := shardmap.Partition(slices.Clone(items), srShards, 0)
	if err != nil {
		return nil, err
	}
	shardOf := make([]int, len(items))
	for s, part := range parts {
		for _, e := range part {
			shardOf[e.Ref] = s
		}
	}
	r := &routedRef{items: items, ops: make([]rop, srQueries)}
	pts := query.Points(srQueries, seed+1)
	wins := query.Regions(srQueries, srWindow, seed+2)
	for i := range r.ops {
		o := &r.ops[i]
		o.req.Op = srMix[i%len(srMix)]
		o.off, o.doff = len(r.ids), len(r.dists)
		var targets []int
		switch o.req.Op {
		case wire.OpSearch, wire.OpCount:
			o.req.Query = wins[i]
			targets = m.OverlapRect(o.req.Query)
			err = ref.Search(o.req.Query, func(it strtree.Item) bool { r.ids = append(r.ids, it.ID); return true })
		case wire.OpSearchPoint:
			o.req.Point = pts[i].Min
			targets = m.OverlapPoint(o.req.Point)
			err = ref.SearchPoint(o.req.Point, func(it strtree.Item) bool { r.ids = append(r.ids, it.ID); return true })
		case wire.OpNearest:
			o.req.Point, o.req.K = pts[i].Min, knnK
			targets = m.All()
			var got []strtree.Item
			var ds []float64
			got, ds, err = ref.NearestK(o.req.Point, knnK)
			for j := range got {
				r.ids = append(r.ids, got[j].ID)
			}
			r.dists = append(r.dists, ds...)
		}
		if err != nil {
			return nil, err
		}
		o.n = len(r.ids) - o.off
		if o.req.Op != wire.OpNearest {
			slices.Sort(r.ids[o.off:])
		}
		hit := map[int]bool{}
		for _, id := range r.ids[o.off:] {
			hit[shardOf[id]] = true
		}
		o.contacted, o.useful = len(targets), len(hit)
		if o.req.Op == wire.OpCount {
			r.ids = r.ids[:o.off] // a Count needs only its size
		}
	}
	return r, nil
}

// check compares a routed answer with the unsharded tree's. It returns
// whether a kNN answer's IDs differ from the unsharded tree's (ties at
// equal distance may legally order differently), and a *errWrong for a
// wrong answer.
func (r *routedRef) check(o *rop, resp *wire.Response, idBuf *[]uint64) (diverged bool, err error) {
	switch o.req.Op {
	case wire.OpCount:
		if resp.Count != uint64(o.n) {
			return false, wrongf("routed count %v: got %d, want %d", o.req.Query, resp.Count, o.n)
		}
	case wire.OpSearch, wire.OpSearchPoint:
		got := (*idBuf)[:0]
		for _, it := range resp.Items {
			got = append(got, it.ID)
		}
		slices.Sort(got)
		*idBuf = got
		if !slices.Equal(got, r.ids[o.off:o.off+o.n]) {
			return false, wrongf("routed %v: %d items differ from the unsharded tree's %d", o.req.Op, len(got), o.n)
		}
	case wire.OpNearest:
		want := r.ids[o.off : o.off+o.n]
		wantD := r.dists[o.doff : o.doff+o.n]
		if len(resp.Neighbors) != len(want) {
			return false, wrongf("routed knn %v: %d results, want %d", o.req.Point, len(resp.Neighbors), len(want))
		}
		for i, nb := range resp.Neighbors {
			id := nb.Item.ID
			if !sameDist(nb.Dist, wantD[i]) {
				return false, wrongf("routed knn %v: distance %d is %g, unsharded %g", o.req.Point, i, nb.Dist, wantD[i])
			}
			if id >= uint64(len(r.items)) || !sameDist(rectDist(o.req.Point, r.items[id].Rect), nb.Dist) {
				return false, wrongf("routed knn %v: item %d does not lie at its stated distance %g", o.req.Point, id, nb.Dist)
			}
			for j := 0; j < i; j++ {
				if resp.Neighbors[j].Item.ID == id {
					return false, wrongf("routed knn %v: item %d returned twice", o.req.Point, id)
				}
			}
			diverged = diverged || id != want[i]
		}
	}
	return diverged, nil
}

// rectDist is the point-rectangle distance in the tree kernel's order.
func rectDist(p geom.Point, r geom.Rect) float64 {
	sum := 0.0
	for d := range p {
		var g float64
		switch {
		case p[d] < r.Min[d]:
			g = r.Min[d] - p[d]
		case p[d] > r.Max[d]:
			g = p[d] - r.Max[d]
		}
		sum += g * g
	}
	return math.Sqrt(sum)
}

// loadStats is one load generator goroutine's record of a phase.
type loadStats struct {
	lat               *latencies
	late              *latencies
	doneAt            []time.Duration // completion of each op since the phase start
	ops, failed       int64
	knn, diverged     int64
	contacted, useful int64
	spanFrom          int
	err               error
}

// runLoad drives the topology from srConns goroutines, one connection
// each, until the phase ends. Ops are taken in order from a shared
// cursor. With rate 0 the loop is closed. Otherwise op j is due at
// start + j/rate and its latency counts from then, so a stall delays
// every later op's clock instead of hiding (no coordinated omission).
//
// On a 2-vCPU VM timers woke about 1 ms late, far coarser than a
// request, so the
// open loop keeps a virtual clock per connection: a request starts at
// its due time or when its connection's previous request would have
// finished on an exact schedule, whichever is later, and takes its
// measured service time (send to answer). The timer's slip is reported
// apart as the generator's lateness.
func runLoad(t *topology, ref *routedRef, cursor *atomic.Int64, budget time.Duration, rate float64, traced bool) ([]*loadStats, time.Duration, memDelta) {
	// Room for 50k ops/s per connection, several times what a 2-vCPU VM
	// serves, so the records never grow inside the timed loop.
	room := int(budget.Seconds()*50000) + 1024
	stats := make([]*loadStats, srConns)
	for g := range stats {
		stats[g] = &loadStats{lat: newLatencies(room), late: newLatencies(int(budget.Seconds()*rate) + 1024), doneAt: make([]time.Duration, 0, room)}
	}
	var wg sync.WaitGroup
	var taken atomic.Int64
	m0 := memSnap()
	start := time.Now()
	end := start.Add(budget)
	for g := range stats {
		ls := stats[g]
		c := t.conns[g]
		if c.tr != nil {
			ls.spanFrom = c.tr.len()
			c.tr.setMode(true)
			c.tr.on.Store(traced)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if c.tr != nil {
					c.tr.on.Store(false)
				}
			}()
			var idBuf []uint64
			vFree := start
			for {
				due := time.Now()
				if rate > 0 {
					j := taken.Add(1) - 1
					due = start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else if !due.Before(end) {
					return
				}
				if traced && c.tr.full() {
					return
				}
				i := cursor.Add(1) - 1
				o := &ref.ops[i%int64(len(ref.ops))]
				req := o.req
				sent := time.Now()
				if traced {
					c.tr.setOp(int(ls.ops))
				}
				sp := c.tr.begin(lOp, 0)
				resp, err := c.do(&req)
				c.tr.end(sp)
				done := time.Now()
				ls.ops++
				ls.doneAt = append(ls.doneAt, done.Sub(start))
				lat := done.Sub(sent)
				if rate > 0 {
					vStart := due
					if vFree.After(vStart) {
						vStart = vFree
					}
					vFree = vStart.Add(lat)
					lat = vFree.Sub(due)
					ls.late.add(sent.Sub(vStart), uint8(req.Op))
				}
				if err != nil || resp.Status != wire.StatusOK {
					ls.failed++
					ls.lat.fail(uint8(req.Op))
					if err != nil {
						ls.err = err
						return
					}
					continue
				}
				ls.lat.add(lat, uint8(req.Op))
				diverged, werr := ref.check(o, resp, &idBuf)
				if werr != nil {
					ls.err = werr
					return
				}
				if o.req.Op == wire.OpNearest {
					ls.knn++
					if diverged {
						ls.diverged++
					}
				}
				ls.contacted += int64(o.contacted)
				ls.useful += int64(o.useful)
			}
		}()
	}
	wg.Wait()
	el := time.Since(start)
	return stats, el, memSnap().since(m0)
}

// add folds s into m.
func (m *loadStats) add(s *loadStats) {
	m.doneAt = append(m.doneAt, s.doneAt...)
	m.lat.us = append(m.lat.us, s.lat.us...)
	m.lat.kind = append(m.lat.kind, s.lat.kind...)
	m.late.us = append(m.late.us, s.late.us...)
	m.late.kind = append(m.late.kind, s.late.kind...)
	m.ops += s.ops
	m.failed += s.failed
	m.knn += s.knn
	m.diverged += s.diverged
	m.contacted += s.contacted
	m.useful += s.useful
}

// merged folds the goroutines' records of one phase.
func merged(stats []*loadStats) (*loadStats, error) {
	m := &loadStats{lat: newLatencies(0), late: newLatencies(0)}
	for _, s := range stats {
		m.add(s)
		if s.err != nil {
			var wrong *errWrong
			if errors.As(s.err, &wrong) || m.err == nil {
				m.err = s.err
			}
		}
	}
	return m, m.err
}

func runServeRouted(cfg runConfig) (res *result, err error) {
	w := cfg.out
	g0 := time.Now()
	ref, err := buildRoutedRef(cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# inputs: %d uniform squares (density %g), %d distinct ops with unsharded-tree answers, generated in %.2fs (not in setup_s)\n",
		len(ref.items), srDensity, len(ref.ops), time.Since(g0).Seconds())

	var tr *tracer
	loadTr := make([]*tracer, srConns)
	reps := srSetups
	if cfg.trace {
		tr, reps = newTracer(1<<16), 1
		for i := range loadTr {
			loadTr[i] = newTracer(1 << 20)
		}
	}
	var topo *topology
	var setups []float64
	var cursor atomic.Int64
	for r := 0; r < reps; r++ {
		if topo != nil {
			if err := topo.close(); err != nil {
				return nil, err
			}
			topo = nil
		}
		entries := slices.Clone(ref.items)
		runtime.GC() // every set-up starts from a collected heap
		if tr != nil {
			tr.setMode(false)
			tr.on.Store(true)
		}
		start := time.Now()
		topo, err = startTopology(entries, tr, loadTr)
		if tr != nil {
			tr.on.Store(false)
		}
		if err != nil {
			if topo != nil {
				err = errors.Join(err, topo.close())
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		resp, err := topo.conns[0].do(&ref.ops[0].req)
		if err == nil && resp.Status != wire.StatusOK {
			err = fmt.Errorf("first op: status %v: %s", resp.Status, resp.Err)
		}
		if err == nil {
			var idBuf []uint64
			_, err = ref.check(&ref.ops[0], resp, &idBuf)
		}
		if err != nil {
			return nil, errors.Join(err, topo.close())
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := topo.close(); err == nil {
			err = cerr
		}
	}()
	cursor.Store(1)
	memMB := float64(liveHeap()) / (1 << 20)
	pages := 0
	for _, pg := range topo.pagers {
		pages += pg.NumPages()
	}
	fmt.Fprintf(w, "# setup_s samples:")
	for _, s := range setups {
		fmt.Fprintf(w, " %.4f", s)
	}
	fmt.Fprintf(w, "\n# topology: %d shards, %d index pages in all, %d-page buffer per shard; %d connections; mix search/point/count/knn-10 = 40/20/10/30; open loop at %d ops/s\n",
		len(topo.trees), pages, srShardPages, srConns, srRate)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	res = &result{Metrics: map[string]metric{}}
	io0, _ := topo.stats()
	if !cfg.trace {
		// Rounds of one closed-loop window and one open-loop window, so
		// drift in the host's speed hits both loops alike, and medians
		// over windows shed the bursts of interference a shared host
		// brings. The gated latencies come from the closed loop: on this
		// 2-core VM the open loop's tail is set by how fast the host wakes
		// an idle vCPU, which varied 0.4-7 ms from run to run (README).
		rounds := int(math.Max(1, math.Round(budget.Seconds()/(srOpenWindow+srClosedWindow).Seconds())))
		var closedW, openW []window
		var closedRates []float64
		closed := &loadStats{lat: newLatencies(0), late: newLatencies(0)}
		open := &loadStats{lat: newLatencies(0), late: newLatencies(0)}
		var alloc uint64
		for r := 0; r < 2*rounds; r++ {
			closedLoop := r%2 == 0
			rate, length, into, ws := 0.0, srClosedWindow, closed, &closedW
			if !closedLoop {
				rate, length, into, ws = srRate, srOpenWindow, open, &openW
			}
			gs, el, mem := runLoad(topo, ref, &cursor, length, rate, false)
			m, err := merged(gs)
			into.add(m)
			*ws = append(*ws, window{reads: m.lat.us})
			if closedLoop {
				alloc += mem.alloc
				closedRates = append(closedRates, binRates(m.doneAt, el)...)
			}
			res.Attempted, res.Failed = closed.ops+open.ops, closed.failed+open.failed
			if err != nil {
				return res, err
			}
		}
		io1, _ := topo.stats()
		set := func(name string, v float64, unit, note string) {
			report(w, name, v, unit, note)
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
		cw := summarizeWindows(closedW)
		whole := closed.lat.summarize()
		ow, owhole := summarizeWindows(openW).read, open.lat.summarize()
		set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		set("mem_mb", memMB, "MiB", "live Go heap after set-up, inputs and reference tree answers included")
		set("ops_per_s", median(closedRates), "1/s", fmt.Sprintf("closed loop, %d connections, median of %d bins of %v; %d ops in all", srConns, len(closedRates), rateBin, closed.ops))
		set("read_p50_us", cw.read.p50, "us", fmt.Sprintf("closed loop, median of %d windows of >= %d; whole %.2f over %d, mean %.2f", len(closedW), cw.read.n, whole.p50, whole.n, whole.mean))
		report(w, "read_p99_us", cw.read.tail, "us", fmt.Sprintf("%s, median of windows; whole %s %.2f; not gated", cw.read.tailName, whole.tailName, whole.tail))
		report(w, "disk_reads_per_op", float64(io1.DiskReads-io0.DiskReads)/float64(res.Attempted), "reads/op", "shard buffers hold every page")
		set("bytes_per_item", float64(pages*pageSize)/float64(len(ref.items)), "B/item", fmt.Sprintf("%d pages over %d shards", pages, len(topo.trees)))
		set("alloc_b_per_op", float64(alloc)/float64(closed.ops), "B/op", "closed loop; client, router and servers in one process")
		report(w, "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", fmt.Sprintf("%d of %d ops failed or refused", res.Failed, res.Attempted))
		opName := func(k uint8) string { return wire.Op(k).String() }
		fmt.Fprintf(w, "# read p50 by op (share):%s\n", closed.lat.byKind(opName))
		late := open.late.summarize()
		fmt.Fprintf(w, "# open loop at %d ops/s, from intended send time (not gated): p50 %.2f us, %s %.2f us, median of %d windows of >= %d; whole p50 %.2f, %s %.2f over %d\n",
			srRate, ow.p50, ow.tailName, ow.tail, len(openW), ow.n, owhole.p50, owhole.tailName, owhole.tail, owhole.n)
		fmt.Fprintf(w, "# open loop: generator late p50 %.1f us, %s %.1f us; by op (share):%s\n", late.p50, late.tailName, late.tail, open.lat.byKind(opName))
		fmt.Fprintf(w, "# kNN answers whose IDs differ from the unsharded tree (ties): %d of %d\n", closed.diverged+open.diverged, closed.knn+open.knn)
		return res, nil
	}

	// Traced run: an untraced closed-loop phase, a traced one, then an
	// untraced open-loop phase for the generator's lateness.
	half := budget * 2 / 5
	unStats, _, unMem := runLoad(topo, ref, &cursor, half, 0, false)
	un, uerr := merged(unStats)
	respBytes := func() (n int64) {
		for _, c := range topo.conns {
			n += c.respBytes
		}
		return n
	}
	io1, rp1 := topo.stats()
	rejected0, bytes0 := topo.rejected(), respBytes()
	rawB, _, _ := runLoad(topo, ref, &cursor, half, 0, true)
	tb, terr := merged(rawB)
	io2, rp2 := topo.stats()
	rejected, tracedBytes := topo.rejected()-rejected0, respBytes()-bytes0
	// The router's and the servers' latency summaries run from set-up;
	// read them before the open-loop phase adds to them.
	rs, rerr := routerSummaries(topo.router)
	var execP50, execP99, execN float64
	for _, s := range topo.servers {
		st := s.Stats()
		n := float64(st.Latency.Count)
		execP50 += n * float64(st.Latency.P50) / 1e3
		execP99 += n * float64(st.Latency.P99) / 1e3
		execN += n
	}
	openStats, _, _ := runLoad(topo, ref, &cursor, budget-2*half, srRate, false)
	op, oerr := merged(openStats)
	res.Attempted, res.Failed = un.ops+tb.ops+op.ops, un.failed+tb.failed+op.failed
	if err := errors.Join(uerr, terr, oerr, rerr); err != nil {
		return res, err
	}
	out := res.Metrics
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	div := ratio
	ops := float64(tb.ops)
	var tot spanTotals
	var transit []float64
	var rtt []float64
	for g, c := range topo.conns {
		spans := c.tr.since(rawB[g].spanFrom)
		t, _ := analyze(spans, rawB[g].spanFrom, 0)
		for l := range tot.count {
			tot.count[l] += t.count[l]
			tot.total[l] += t.total[l]
			tot.self[l] += t.self[l]
		}
		for _, s := range spans {
			switch s.layer {
			case lTransit:
				transit = append(transit, float64(s.end-s.start)/1e3)
			case lOp:
				rtt = append(rtt, float64(s.end-s.start)/1e3)
			}
		}
	}
	setupTot, _ := analyze(tr.since(0), 0, 0)
	slices.Sort(transit)
	slices.Sort(rtt)
	execP50, execP99 = div(execP50, execN), div(execP99, execN)

	set("storage.reads_per_op", 0, "pages/op")
	set("storage.read_us_per_op", 0, "us/op")
	set("storage.writes_per_op", 0, "pages/op")
	set("storage.write_us_per_op", 0, "us/op")
	set("storage.build_write_s", (setupTot.total[lWrite]+setupTot.total[lAlloc])/1e9, "s")
	set("buffer.fetches_per_op", div(float64(io2.LogicalReads-io1.LogicalReads), ops), "fetches/op")
	set("buffer.hit_ratio", div(float64(io2.LogicalReads-io1.LogicalReads-(io2.DiskReads-io1.DiskReads)), float64(io2.LogicalReads-io1.LogicalReads)), "ratio")
	set("buffer.evictions_per_op", div(float64(io2.Evictions-io1.Evictions), ops), "frames/op")
	set("buffer.fetch_self_us_per_op", 0, "us/op")
	set("buffer.writepins_per_write", 0, "pins/call")
	set("node.view_pages_per_op", div(float64(rp2.ViewPages-rp1.ViewPages), ops), "pages/op")
	set("node.view_ns_per_page", 0, "ns/page")
	set("rtree.read_self_us_per_op", 0, "us/op")
	set("rtree.write_self_us_per_op", 0, "us/call")
	set("rtree.structural_ratio", 0, "ratio")
	set("rtree.traverser_allocs", float64(rp2.TraverserAllocs-rp1.TraverserAllocs), "count")
	set("rtree.kf_ratio", 0, "ratio")
	var order time.Duration
	for _, tree := range topo.trees {
		order += tree.LastBuildStats().Order
	}
	set("pack.order_s", order.Seconds(), "s")
	set("pack.entries_per_s", div(float64(len(ref.items)), topo.buildSecs), "entries/s")
	set("wire.encode_ns_per_req", div(tot.total[lEncode], float64(tot.count[lEncode])), "ns/req")
	set("wire.decode_ns_per_resp", div(tot.total[lDecode], float64(tot.count[lDecode])), "ns/resp")
	set("wire.resp_bytes_per_op", div(float64(tracedBytes), ops), "B/op")
	set("wire.transit_us_p50", pct(transit, 0.5)-rs.latencyP50, "us")
	set("server.exec_us_p50", execP50, "us")
	set("server.exec_us_p99", execP99, "us")
	set("server.rejected_per_kop", div(float64(rejected), ops/1e3), "1/kop")
	set("router.latency_us_p50", rs.latencyP50, "us")
	set("router.self_us_p50", rs.latencyP50-execP50, "us")
	set("router.merge_us_p50", rs.mergeP50, "us")
	set("router.fanout_width_mean", rs.fanoutMean, "shards")
	set("router.useful_fanout_ratio", div(float64(tb.useful+un.useful), float64(tb.contacted+un.contacted)), "ratio")
	set("router.knn_tie_divergence_ratio", div(float64(tb.diverged+un.diverged), float64(tb.knn+un.knn)), "ratio")
	set("loadgen.late_p99_us", op.late.summarize().tail, "us")
	set("runtime.gc_cycles_per_kop", div(float64(unMem.gcs), float64(un.ops)/1e3), "cycles/kop")
	set("runtime.gc_pause_us_per_kop", div(float64(unMem.pauseNs)/1e3, float64(un.ops)/1e3), "us/kop")

	unR, tR := un.lat.summarize(), tb.lat.summarize()
	codec := div(tot.total[lEncode]+tot.total[lDecode], ops) / 1e3
	rttP50 := pct(rtt, 0.5)
	fmt.Fprintf(w, "# closed loop, untraced: read_p50_us %.2f, %s %.2f (%d samples); traced: read_p50_us %.2f (%d samples)\n",
		unR.p50, unR.tailName, unR.tail, unR.n, tR.p50, tR.n)
	fmt.Fprintf(w, "# gap report, serve-routed (traced closed loop; medians except the codec mean):\n")
	fmt.Fprintf(w, "#   client RTT p50                      %10.2f us\n", rttP50)
	fmt.Fprintf(w, "#   wire codec, client side (mean)      %10.2f us\n", codec)
	fmt.Fprintf(w, "#   transit (frame RTT - router latency)%10.2f us\n", pct(transit, 0.5)-rs.latencyP50)
	fmt.Fprintf(w, "#   router self (latency - backend exec)%10.2f us\n", rs.latencyP50-execP50)
	fmt.Fprintf(w, "#   backend exec p50                    %10.2f us\n", execP50)
	fmt.Fprintf(w, "#   unattributed                        %10.2f us\n", rttP50-codec-pct(transit, 0.5))
	fmt.Fprintf(w, "# tracing overhead: traced read_p50_us %.2f - untraced %.2f = %.2f us\n", tR.p50, unR.p50, tR.p50-unR.p50)
	printLayers(w, out)
	loadTracers := make([]*tracer, 0, len(topo.conns)+1)
	loadTracers = append(loadTracers, tr)
	for _, c := range topo.conns {
		loadTracers = append(loadTracers, c.tr)
	}
	return res, writeSpans(cfg.spans, cfg.workload, loadTracers...)
}

// rejected sums the backends' admission refusals.
func (t *topology) rejected() uint64 {
	var n uint64
	for _, s := range t.servers {
		n += s.Stats().Rejected
	}
	return n
}

type routerStats struct {
	latencyP50, mergeP50, fanoutMean float64 // us, us, shards
}

// routerSummaries reads the router's own latency, merge and fan-out
// summaries from its metrics registry.
func routerSummaries(r *router.Router) (routerStats, error) {
	var buf bytes.Buffer
	if err := r.Registry().WriteJSON(&buf); err != nil {
		return routerStats{}, err
	}
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Count uint64   `json:"count"`
			Sum   float64  `json:"sum_seconds"`
			P50   *float64 `json:"p50_seconds"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		return routerStats{}, err
	}
	var rs routerStats
	for _, f := range fams {
		if len(f.Series) != 1 || f.Series[0].P50 == nil {
			continue
		}
		s := f.Series[0]
		switch f.Name {
		case "strrouter_latency_seconds":
			rs.latencyP50 = *s.P50 * 1e6
		case "strrouter_merge_seconds":
			rs.mergeP50 = *s.P50 * 1e6
		case "strrouter_fanout_width_shards":
			if s.Count > 0 {
				rs.fanoutMean = s.Sum / float64(s.Count)
			}
		}
	}
	return rs, nil
}
