package main

// The answer oracle: a hierarchy of uniform bucket grids over the unit
// square, independent of the tree code. Each item sits in the bucket of
// its lower-left corner on the finest grid whose cells are at least as
// wide as the item, so a query on that grid only grows by one cell. A
// bucket wholly inside a window counts without testing its items (their
// lower-left corners lie inside the window). Items can be added and
// removed, so the churn workload keeps the oracle's live set in step
// with the tree.

import (
	"math"

	"strtree/internal/geom"
)

type gridLevel struct {
	g     int
	cellW float64
	cells [][]uint32
}

func (l *gridLevel) cell(v float64) int {
	c := int(v * float64(l.g))
	if c < 0 {
		return 0
	}
	if c >= l.g {
		return l.g - 1
	}
	return c
}

type grid struct {
	levels []gridLevel // finest first
	coords []float64   // minX, minY, maxX, maxY per item ID
	alive  []bool
	level  []uint8
	pos    []int32 // index of the item within its bucket
	live   int
}

// newGrid sizes the finest level for about four items per bucket.
func newGrid(items int) *grid {
	o := &grid{}
	for g := int(math.Sqrt(float64(items) / 4)); ; g /= 2 {
		if g < 1 {
			g = 1
		}
		o.levels = append(o.levels, gridLevel{g: g, cellW: 1 / float64(g), cells: make([][]uint32, g*g)})
		if g == 1 {
			return o
		}
	}
}

func (o *grid) bucket(id uint64) (*gridLevel, int) {
	c := o.coords[4*id : 4*id+4]
	l := &o.levels[o.level[id]]
	return l, l.cell(c[1])*l.g + l.cell(c[0])
}

func (o *grid) add(id uint64, r geom.Rect) {
	for int(id) >= len(o.alive) {
		o.coords = append(o.coords, 0, 0, 0, 0)
		o.alive = append(o.alive, false)
		o.level = append(o.level, 0)
		o.pos = append(o.pos, -1)
	}
	c := o.coords[4*id : 4*id+4]
	c[0], c[1], c[2], c[3] = r.Min[0], r.Min[1], r.Max[0], r.Max[1]
	ext := math.Max(c[2]-c[0], c[3]-c[1])
	lv := 0
	for lv < len(o.levels)-1 && o.levels[lv].cellW < ext {
		lv++
	}
	o.level[id] = uint8(lv)
	l, k := o.bucket(id)
	o.pos[id] = int32(len(l.cells[k]))
	l.cells[k] = append(l.cells[k], uint32(id))
	o.alive[id] = true
	o.live++
}

func (o *grid) remove(id uint64) {
	l, k := o.bucket(id)
	cell := l.cells[k]
	i := o.pos[id]
	last := cell[len(cell)-1]
	cell[i] = last
	o.pos[last] = i
	l.cells[k] = cell[:len(cell)-1]
	o.alive[id] = false
	o.live--
}

func (o *grid) rect(id uint64) geom.Rect {
	c := o.coords[4*id : 4*id+4]
	return geom.R2(c[0], c[1], c[2], c[3])
}

func (o *grid) hit(id uint32, q geom.Rect) bool {
	c := o.coords[4*id : 4*id+4]
	return c[0] <= q.Max[0] && q.Min[0] <= c[2] && c[1] <= q.Max[1] && q.Min[1] <= c[3]
}

// visit calls bulk for every bucket wholly inside q (margin included, so
// rounding at bucket edges cannot misplace an item) and test for every
// other bucket that may hold an item intersecting q.
func (o *grid) visit(q geom.Rect, bulk func([]uint32), test func([]uint32)) {
	const margin = 1e-9
	for li := range o.levels {
		l := &o.levels[li]
		x0, x1 := l.cell(q.Min[0]-l.cellW), l.cell(q.Max[0])
		y0, y1 := l.cell(q.Min[1]-l.cellW), l.cell(q.Max[1])
		for cy := y0; cy <= y1; cy++ {
			yIn := float64(cy)*l.cellW > q.Min[1]+margin && float64(cy+1)*l.cellW < q.Max[1]-margin
			for cx := x0; cx <= x1; cx++ {
				ids := l.cells[cy*l.g+cx]
				if len(ids) == 0 {
					continue
				}
				if yIn && float64(cx)*l.cellW > q.Min[0]+margin && float64(cx+1)*l.cellW < q.Max[0]-margin {
					bulk(ids)
				} else {
					test(ids)
				}
			}
		}
	}
}

// search calls fn for every live item intersecting q (closed intervals,
// as the tree defines intersection).
func (o *grid) search(q geom.Rect, fn func(id uint32)) {
	each := func(ids []uint32) {
		for _, id := range ids {
			fn(id)
		}
	}
	o.visit(q, each, func(ids []uint32) {
		for _, id := range ids {
			if o.hit(id, q) {
				fn(id)
			}
		}
	})
}

func (o *grid) count(q geom.Rect) int {
	n := 0
	o.visit(q, func(ids []uint32) { n += len(ids) }, func(ids []uint32) {
		for _, id := range ids {
			if o.hit(id, q) {
				n++
			}
		}
	})
	return n
}

// dist is the Euclidean distance from p to item id's rectangle, computed
// in the same order as the tree's kernel (sum of squared gaps, then sqrt).
func (o *grid) dist(p geom.Point, id uint64) float64 {
	c := o.coords[4*id : 4*id+4]
	sum := 0.0
	for d := 0; d < 2; d++ {
		var g float64
		switch {
		case p[d] < c[d]:
			g = c[d] - p[d]
		case p[d] > c[d+2]:
			g = p[d] - c[d+2]
		}
		sum += g * g
	}
	return math.Sqrt(sum)
}

// knnDists returns the k smallest distances from p to live items, in
// ascending order. On each level it scans rings of buckets outward until
// no unscanned item of that level can be closer than the current k-th
// distance. dst is reused.
func (o *grid) knnDists(p geom.Point, k int, dst []float64) []float64 {
	best := dst[:0]
	for li := range o.levels {
		l := &o.levels[li]
		cx, cy := l.cell(p[0]), l.cell(p[1])
		consider := func(x, y int) {
			if x < 0 || y < 0 || x >= l.g || y >= l.g {
				return
			}
			for _, id := range l.cells[y*l.g+x] {
				d := o.dist(p, uint64(id))
				if len(best) == k && d >= best[k-1] {
					continue
				}
				if len(best) < k {
					best = append(best, d)
				} else {
					best[k-1] = d
				}
				for i := len(best) - 1; i > 0 && best[i] < best[i-1]; i-- {
					best[i], best[i-1] = best[i-1], best[i]
				}
			}
		}
		for r := 0; ; r++ {
			if r == 0 {
				consider(cx, cy)
			} else {
				for x := cx - r; x <= cx+r; x++ {
					consider(x, cy-r)
					consider(x, cy+r)
				}
				for y := cy - r + 1; y <= cy+r-1; y++ {
					consider(cx-r, y)
					consider(cx+r, y)
				}
			}
			// Items in rings beyond r lie at least r buckets from p's
			// bucket, less one bucket width (an item is no wider than
			// its level's buckets and extends up and right).
			if r >= l.g || (len(best) == k && best[k-1] <= float64(r-1)*l.cellW) {
				break
			}
		}
	}
	return best
}

// sameDist compares a tree distance with an oracle distance. The kernels
// run the same float sequence; the tolerance only absorbs a compiler's
// freedom to fuse the multiply-add.
func sameDist(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
}
