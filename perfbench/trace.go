package main

// Tracing from outside the program: wrappers around the layers' public
// interfaces record one span per call. A span holds its layer, start,
// end, parent span and op id; spans stay in a preallocated slice and are
// written out when the run ends. Untraced runs install no wrapper at all,
// so their timings carry no instrumentation.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

type layer uint8

const (
	lOp       layer = iota // one call into rtree.Tree, or one client request
	lFetch                 // buffer.Manager.Fetch
	lFetchMut              // buffer.Manager.FetchMut (write pin)
	lCreate                // buffer.Manager.Create
	lRelease               // buffer.Manager.Release / ReleaseMut
	lRead                  // storage.Pager.ReadPage
	lWrite                 // storage.Pager.WritePage
	lAlloc                 // storage.Pager.Alloc
	lOrder                 // rtree.Orderer.Order
	lEncode                // wire.AppendRequest
	lTransit               // wire frame written and answer frame read
	lDecode                // wire.ParseResponse
	numLayers
)

var layerNames = [numLayers]string{
	"op", "buffer.Fetch", "buffer.FetchMut", "buffer.Create", "buffer.Release",
	"storage.ReadPage", "storage.WritePage", "storage.Alloc", "pack.Order",
	"wire.Encode", "wire.Transit", "wire.Decode",
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for none
	op         int32 // op id the harness set, -1 outside ops
	page       uint32
	layer      layer
}

// tracer records spans. In nesting mode one goroutine drives it and each
// span's parent is the innermost open span; in flat mode (bulk load, where
// the write-behind goroutine runs beside the packer) spans have no parent.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	nest  bool    // guarded by mu
	op    int32   // guarded by mu
	spans []span  // guarded by mu; never grows past its capacity
	stack []int32 // guarded by mu
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, capacity)}
}

// setMode switches nesting and clears the op id.
func (t *tracer) setMode(nest bool) {
	t.mu.Lock()
	t.nest, t.op, t.stack = nest, -1, t.stack[:0]
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

// spanHeadroom is the room a traced phase keeps for the op in flight: it
// takes no new op once fewer spans are left, so no op loses spans to a
// full buffer.
const spanHeadroom = 1 << 12

// full reports whether the span buffer has no room for another op.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.spans)-len(t.spans) < spanHeadroom
}

func (t *tracer) begin(l layer, page uint32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.mu.Unlock()
		return -1
	}
	s := span{start: now, parent: -1, op: t.op, page: page, layer: l}
	idx := int32(len(t.spans))
	if t.nest {
		if n := len(t.stack); n > 0 {
			s.parent = t.stack[n-1]
		}
		t.stack = append(t.stack, idx)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[idx].end = now
	if t.nest && len(t.stack) > 0 {
		t.stack = t.stack[:len(t.stack)-1]
	}
	t.mu.Unlock()
}

// since returns the spans recorded from index from on.
func (t *tracer) since(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[from:]
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeSpans writes every tracer's spans to dir/<workload>.csv.gz, one
// CSV row per span.
func writeSpans(dir, workload string, tracers ...*tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".csv.gz"))
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level never errs
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "tracer,layer,op,parent,page,start_ns,end_ns")
	for ti, t := range tracers {
		for _, s := range t.since(0) {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d\n", ti, layerNames[s.layer], s.op, s.parent, s.page, s.start, s.end)
		}
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ------------------------------------------------------------ wrappers

// tracedPager times the calls into storage.Pager.
type tracedPager struct {
	storage.Pager
	tr *tracer
}

func (p tracedPager) ReadPage(id storage.PageID, buf []byte) error {
	s := p.tr.begin(lRead, uint32(id))
	err := p.Pager.ReadPage(id, buf)
	p.tr.end(s)
	return err
}

func (p tracedPager) WritePage(id storage.PageID, buf []byte) error {
	s := p.tr.begin(lWrite, uint32(id))
	err := p.Pager.WritePage(id, buf)
	p.tr.end(s)
	return err
}

func (p tracedPager) Alloc() (storage.PageID, error) {
	s := p.tr.begin(lAlloc, 0)
	id, err := p.Pager.Alloc()
	p.tr.end(s)
	return id, err
}

// tracedBuffer times the calls into buffer.Manager.
type tracedBuffer struct {
	buffer.Manager
	tr *tracer
}

func (b tracedBuffer) Fetch(id storage.PageID) (*buffer.Frame, error) {
	s := b.tr.begin(lFetch, uint32(id))
	f, err := b.Manager.Fetch(id)
	b.tr.end(s)
	return f, err
}

func (b tracedBuffer) FetchMut(id storage.PageID) (*buffer.Frame, error) {
	s := b.tr.begin(lFetchMut, uint32(id))
	f, err := b.Manager.FetchMut(id)
	b.tr.end(s)
	return f, err
}

func (b tracedBuffer) Create() (*buffer.Frame, error) {
	s := b.tr.begin(lCreate, 0)
	f, err := b.Manager.Create()
	b.tr.end(s)
	return f, err
}

func (b tracedBuffer) Release(f *buffer.Frame) {
	s := b.tr.begin(lRelease, uint32(f.ID()))
	b.Manager.Release(f)
	b.tr.end(s)
}

func (b tracedBuffer) ReleaseMut(f *buffer.Frame) error {
	s := b.tr.begin(lRelease, uint32(f.ID()))
	err := b.Manager.ReleaseMut(f)
	b.tr.end(s)
	return err
}

// tracedOrderer times rtree.Orderer.Order, the packing layer.
type tracedOrderer struct {
	rtree.Orderer
	tr *tracer
}

func (o tracedOrderer) Order(entries []node.Entry, n, level int) {
	s := o.tr.begin(lOrder, 0)
	o.Orderer.Order(entries, n, level)
	o.tr.end(s)
}

// ------------------------------------------------------------ analysis

// spanTotals aggregates spans per layer: call count, total duration and
// self time (duration minus the part covered by child spans), in ns.
type spanTotals struct {
	count [numLayers]int
	total [numLayers]float64
	self  [numLayers]float64
}

// perOp is one op's self time per layer, in ns.
type perOp [numLayers]float64

// analyze folds spans into per-layer totals and, for spans carrying an
// op id in [0, ops), per-op self times. Parent indexes are relative to
// the start of spans (the caller passes one phase's slice, and every span
// in it whose parent precedes the phase is treated as a root).
func analyze(spans []span, base int, ops int) (spanTotals, []perOp) {
	var tot spanTotals
	child := make([]float64, len(spans))
	for _, s := range spans {
		if p := int(s.parent) - base; p >= 0 && s.end > 0 {
			child[p] += float64(s.end - s.start)
		}
	}
	byOp := make([]perOp, ops)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := float64(s.end - s.start)
		self := d - child[i]
		tot.count[s.layer]++
		tot.total[s.layer] += d
		tot.self[s.layer] += self
		if s.op >= 0 && int(s.op) < ops {
			byOp[s.op][s.layer] += self
		}
	}
	return tot, byOp
}

func (t *spanTotals) bufferSelf() float64 {
	sum := 0.0
	for l := lFetch; l <= lRelease; l++ {
		sum += t.self[l]
	}
	return sum
}

func (p *perOp) buffer() float64 {
	return p[lFetch] + p[lFetchMut] + p[lCreate] + p[lRelease]
}

func (p *perOp) storage() float64 { return p[lRead] + p[lWrite] + p[lAlloc] }
