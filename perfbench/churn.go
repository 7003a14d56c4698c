package main

// churn: 200k uniform squares STR-packed into a file-backed index behind
// the 256-page buffer, then a closed loop of 50% reads and 50% write
// steps. A write step deletes a random live item and inserts a new one,
// so the tree size stays constant. The rtree/buffer/storage layers serve
// writes here: the in-place MutableView tier against structural splits
// and condense, write pins and dirty write-back. A read-path gain that
// costs writes shows up here, and so does space growth.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"strtree/internal/datagen"
	"strtree/internal/geom"
	"strtree/internal/invariant"
	"strtree/internal/node"
)

const (
	chItems   = 200_000
	chDensity = 1.0    // total square area over the unit square
	chWindow  = 0.01   // side of the small read windows (~30 items)
	chChunk   = 20_000 // tape ops generated per refill, off the clock
	// chSetups is higher than the other workloads' 5: a churn set-up
	// takes ~0.15 s, short enough that a stolen vCPU moves single
	// samples by half.
	chSetups = 15
	// chWarm write steps run untimed before the measured loop. Right
	// after the bulk load every leaf is full, so the first insert into
	// each leaf splits it; this transient costs ~4x the steady state
	// and fades after about ten thousand write steps.
	chWarm = 20_000
)

// churnTape generates the op tape from the oracle's live set, so every
// expected answer is known before the tree runs the op.
type churnTape struct {
	o       *grid
	rng     *rand.Rand
	live    []uint64 // live IDs, for uniform deletion
	livePos []int32  // index of an ID in live
	born    []int64  // tape step of the insert (-1 for the packed items)
	died    []int64  // tape step of the delete (MaxInt64 while live)
	nextID  uint64
	step    int64
	ops     []op
	dists   []float64
	knnBuf  []float64
}

func newChurnTape(items []node.Entry, seed int64) *churnTape {
	c := &churnTape{o: newGrid(len(items)), rng: rand.New(rand.NewSource(seed)), knnBuf: make([]float64, 0, knnK)}
	for _, e := range items {
		c.add(e.Ref, e.Rect, -1)
	}
	c.nextID = uint64(len(items))
	return c
}

func (c *churnTape) add(id uint64, r geom.Rect, step int64) {
	c.o.add(id, r)
	for int(id) >= len(c.born) {
		c.born = append(c.born, 0)
		c.died = append(c.died, math.MaxInt64)
		c.livePos = append(c.livePos, -1)
	}
	c.born[id] = step
	c.livePos[id] = int32(len(c.live))
	c.live = append(c.live, id)
}

func (c *churnTape) remove(id uint64, step int64) {
	c.o.remove(id)
	c.died[id] = step
	i := c.livePos[id]
	last := c.live[len(c.live)-1]
	c.live[i] = last
	c.livePos[last] = i
	c.live = c.live[:len(c.live)-1]
}

// isLive reports whether id answered reads at tape step s.
func (c *churnTape) isLive(id uint64, s int64) bool {
	return int(id) < len(c.born) && c.born[id] < s && s < c.died[id]
}

// fill replaces the tape with n more ops: reads and write steps
// alternate; a read is a small-window Count (1 in 3) or a kNN-10 (2 in
// 3). The two kinds' latencies form separate modes; at 50/50 the median
// would sit on the edge between them.
func (c *churnTape) fill(n int) {
	c.ops, c.dists = c.ops[:0], c.dists[:0]
	avgArea := chDensity / chItems
	for len(c.ops) < n {
		if c.step%3 == 0 { // read
			var o op
			o.step = c.step
			x, y := c.rng.Float64(), c.rng.Float64()
			if c.rng.Intn(3) == 0 {
				o.kind = opCount
				o.q = geom.R2(x*(1-chWindow), y*(1-chWindow), x*(1-chWindow)+chWindow, y*(1-chWindow)+chWindow)
				o.want = c.o.count(o.q)
			} else {
				o.kind, o.p, o.q = opKNN, geom.Pt2(x, y), geom.PointRect(geom.Pt2(x, y))
				o.want = expectKNN(c.o, o.p, &c.dists, c.knnBuf)
			}
			c.ops = append(c.ops, o)
			c.step++
			continue
		}
		// A write step: delete a random live item, insert a new one.
		victim := c.live[c.rng.Intn(len(c.live))]
		c.ops = append(c.ops, op{kind: opDelete, q: c.o.rect(victim), id: victim, step: c.step})
		c.remove(victim, c.step)
		c.step++
		x, y := c.rng.Float64(), c.rng.Float64()
		side := math.Sqrt(c.rng.Float64() * 2 * avgArea)
		r := geom.R2(x, y, math.Min(x+side, 1), math.Min(y+side, 1))
		id := c.nextID
		c.nextID++
		c.ops = append(c.ops, op{kind: opInsert, q: r, id: id, step: c.step})
		c.add(id, r, c.step)
		c.step++
	}
}

func runChurn(cfg runConfig) (*result, error) {
	w := cfg.out
	g0 := time.Now()
	items := datagen.UniformSquares(chItems, chDensity, cfg.seed)
	c := newChurnTape(items, cfg.seed+1)
	c.fill(chChunk)
	fmt.Fprintf(w, "# inputs: %d uniform squares (density %g), tape of %d ops per refill, generated in %.2fs (not in setup_s)\n",
		len(items), chDensity, chChunk, time.Since(g0).Seconds())

	var tr *tracer
	reps := chSetups
	if cfg.trace {
		tr, reps = newTracer(1<<21), 1
	}
	mk := func(ix *localIndex) *executor {
		x := newExecutor(ix, c.o, c.dists, tr)
		x.live = c.isLive
		return x
	}
	ix, x, st, buildSecs, err := setupLocal(filepath.Join(cfg.workdir, "churn.idx"), items, reps, tr, mk, &c.ops[0])
	if err != nil {
		return nil, err
	}
	defer ix.close() // a throwaway index: its file is removed unflushed
	st.print(w)
	fmt.Fprintf(w, "# index: %d pages (%.1f MiB) against a %d-page buffer; ops alternate read, write step (Delete+Insert); reads are window(%.2f) Count or kNN-10, 1/3 vs 2/3\n",
		ix.pager.NumPages(), float64(ix.pager.NumPages()*pageSize)/(1<<20), servePages, chWindow)

	i := 1
	next := func() *op {
		if i == len(c.ops) {
			return nil
		}
		i++
		return &c.ops[i-1]
	}
	refill := func() error {
		c.fill(chChunk)
		x.dists, i = c.dists, 0
		return nil
	}
	w0 := time.Now()
	for steps := 0; steps < chWarm; {
		o := next()
		if o == nil {
			if err := refill(); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := x.run(o); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if o.kind == opInsert {
			steps++
		}
	}
	x.spaceAt = float64(ix.pager.NumPages()*pageSize) / float64(ix.tree.Len())
	fmt.Fprintf(w, "# warm-up: %d write steps untimed (%.2fs); %d pages after it\n", chWarm, time.Since(w0).Seconds(), ix.pager.NumPages())
	// After the loop the tree must hold exactly the items live at the
	// first tape step it did not run, and pass CheckInvariants.
	final := func(w io.Writer) error {
		t0 := time.Now()
		end := c.step
		if i < len(c.ops) {
			end = c.ops[i].step
		}
		want := 0
		for id := range c.born {
			if c.born[id] < end && end <= c.died[id] {
				want++
			}
		}
		got, stale := 0, int64(-1)
		err := ix.tree.Scan(func(e node.Entry) bool {
			if id := e.Ref; int(id) >= len(c.born) || c.born[id] >= end || end > c.died[id] {
				stale = int64(id)
				return false
			}
			got++
			return true
		})
		if err != nil {
			return err
		}
		if stale >= 0 {
			return wrongf("tree holds item %d, which is not live", stale)
		}
		if got != want || ix.tree.Len() != want {
			return wrongf("tree holds %d items (Len %d), %d are live", got, ix.tree.Len(), want)
		}
		if err := invariant.Check(ix.tree, invariant.Config{}); err != nil {
			return wrongf("invariants after churn: %v", err)
		}
		fmt.Fprintf(w, "# after the loop: tree holds exactly the %d live items, CheckInvariants ok (%.2fs, untimed)\n", want, time.Since(t0).Seconds())
		return nil
	}
	return runLocal(cfg, x, st, buildSecs, len(items), chWindow, next, refill, final)
}
