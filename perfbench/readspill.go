package main

// read-spill: the paper's own setting. 1M TIGER-like rectangles are
// STR-packed into a file-backed index (~9.9k pages) served through the
// default 256-page buffer, so the working set is far larger than the
// buffer and rtree traversal, buffer misses and storage reads dominate.
// The wire, server and router layers are idle.

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"strtree/internal/datagen"
	"strtree/internal/query"
)

const (
	rsItems   = 1_000_000
	rsQueries = 20_000 // distinct ops with oracle answers, cycled
	rsSetups  = 5
)

// rsMix is one cycle of the op mix: 40% point queries, 40% Count over a
// 1%-area region, 20% kNN-10. Point queries and kNN are cheap, region
// counts touch ~50-200 pages, so the median falls inside the kNN mode
// rather than on the edge between two modes.
var rsMix = [...]opKind{opPoint, opCount, opKNN, opCount, opPoint}

func runReadSpill(cfg runConfig) (*result, error) {
	w := cfg.out
	g0 := time.Now()
	items := datagen.Tiger(rsItems, cfg.seed)
	o := newGrid(len(items))
	for _, e := range items {
		o.add(e.Ref, e.Rect)
	}
	points := query.Points(rsQueries, cfg.seed+1)
	regions := query.Regions(rsQueries, query.Extent1Pct, cfg.seed+2)
	ops := make([]op, rsQueries)
	var dists []float64
	knnBuf := make([]float64, 0, knnK)
	for i := range ops {
		p := &ops[i]
		p.kind = rsMix[i%len(rsMix)]
		p.p, p.q = points[i].Min, points[i]
		switch p.kind {
		case opPoint:
			o.search(p.q, func(id uint32) { p.set.add(uint64(id)) })
		case opCount:
			p.q = regions[i]
			p.want = o.count(p.q)
		case opKNN:
			p.want = expectKNN(o, p.p, &dists, knnBuf)
		}
	}
	fmt.Fprintf(w, "# inputs: %d TIGER-like rectangles, %d distinct ops with oracle answers, generated in %.2fs (not in setup_s)\n",
		len(items), len(ops), time.Since(g0).Seconds())

	var tr *tracer
	reps := rsSetups
	if cfg.trace {
		tr, reps = newTracer(1<<21), 1
	}
	mk := func(ix *localIndex) *executor { return newExecutor(ix, o, dists, tr) }
	ix, x, st, buildSecs, err := setupLocal(filepath.Join(cfg.workdir, "read-spill.idx"), items, reps, tr, mk, &ops[0])
	if err != nil {
		return nil, err
	}
	defer ix.close() // a throwaway index: its file is removed unflushed
	st.print(w)
	fmt.Fprintf(w, "# index: %d pages (%.1f MiB) against a %d-page buffer; op mix point/count(1%%)/knn-10 = 40/40/20\n",
		ix.pager.NumPages(), float64(ix.pager.NumPages()*pageSize)/(1<<20), servePages)

	i := 1
	next := func() *op { p := &ops[i%len(ops)]; i++; return p }
	noRefill := func() error { return nil }
	return runLocal(cfg, x, st, buildSecs, len(items), 0.1, next, noRefill, func(io.Writer) error { return nil })
}
