package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"strtree/internal/geom"
)

// marshalSample serializes a sample node into a fresh page.
func marshalSample(t *testing.T, level, dims, count int, seed int64) ([]byte, *Node) {
	t.Helper()
	n := sampleNode(level, dims, count, rand.New(rand.NewSource(seed)))
	page := make([]byte, 4096)
	if err := Marshal(n, page); err != nil {
		t.Fatal(err)
	}
	return page, n
}

func TestViewAccessorsMatchUnmarshal(t *testing.T) {
	for _, tc := range []struct{ level, dims, count int }{
		{0, 2, 0},
		{0, 2, 1},
		{0, 2, 37},
		{3, 2, 102},
		{0, 1, 10},
		{2, 5, 8},
		{0, 8, 4},
	} {
		page, _ := marshalSample(t, tc.level, tc.dims, tc.count, int64(tc.level*1000+tc.dims*100+tc.count))
		var n Node
		if err := Unmarshal(page, &n); err != nil {
			t.Fatal(err)
		}
		v, err := MakeView(page)
		if err != nil {
			t.Fatalf("MakeView rejected a valid page: %v", err)
		}
		if v.Level() != n.Level || v.Dims() != n.Dims || v.Count() != len(n.Entries) {
			t.Fatalf("header mismatch: view (%d,%d,%d) vs node (%d,%d,%d)",
				v.Level(), v.Dims(), v.Count(), n.Level, n.Dims, len(n.Entries))
		}
		if v.IsLeaf() != n.IsLeaf() {
			t.Fatal("IsLeaf mismatch")
		}
		scratch := geom.Rect{Min: make(geom.Point, v.Dims()), Max: make(geom.Point, v.Dims())}
		for i, e := range n.Entries {
			if v.EntryRef(i) != e.Ref || v.EntryID(i) != e.Ref {
				t.Fatalf("entry %d ref mismatch", i)
			}
			if !v.EntryRect(i).Equal(e.Rect) {
				t.Fatalf("entry %d EntryRect mismatch", i)
			}
			v.EntryRectInto(i, &scratch)
			if !scratch.Equal(e.Rect) {
				t.Fatalf("entry %d EntryRectInto mismatch", i)
			}
			for d := 0; d < v.Dims(); d++ {
				//strlint:ignore floateq decode must be bit-exact
				if v.EntryMin(i, d) != e.Rect.Min[d] || v.EntryMax(i, d) != e.Rect.Max[d] {
					t.Fatalf("entry %d axis %d coordinate mismatch", i, d)
				}
			}
			coords := v.AppendEntryCoords(nil, i)
			for d := 0; d < v.Dims(); d++ {
				//strlint:ignore floateq decode must be bit-exact
				if coords[d] != e.Rect.Min[d] || coords[v.Dims()+d] != e.Rect.Max[d] {
					t.Fatalf("entry %d AppendEntryCoords mismatch", i)
				}
			}
		}
		if tc.count > 0 {
			v.MBRInto(&scratch)
			if !scratch.Equal(n.MBR()) {
				t.Fatalf("MBRInto %v != MBR %v", scratch, n.MBR())
			}
		}
	}
}

func TestViewIntersectsQueryMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range []int{1, 2, 3, 5} {
		page, n := marshalSample(t, 0, dims, 30, int64(dims))
		v, err := MakeView(page)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			lo := make(geom.Point, dims)
			hi := make(geom.Point, dims)
			for d := range lo {
				lo[d] = rng.Float64() * 1.5
				hi[d] = lo[d] + rng.Float64()*0.5
			}
			q := geom.Rect{Min: lo, Max: hi}
			for i, e := range n.Entries {
				if got, want := v.IntersectsQuery(q, i), q.Intersects(e.Rect); got != want {
					t.Fatalf("dims %d entry %d query %v: IntersectsQuery=%v, geom=%v", dims, i, q, got, want)
				}
			}
		}
		// Touching edges intersect (closed-box semantics).
		e0 := n.Entries[0].Rect
		touch := geom.Rect{Min: e0.Max.Clone(), Max: e0.Max.Clone()}
		if !v.IntersectsQuery(touch, 0) {
			t.Fatal("touching edge did not intersect")
		}
	}
}

func TestViewMinDistMatchesRect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	page, n := marshalSample(t, 0, 2, 25, 11)
	v, err := MakeView(page)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		p := geom.Point{rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		for i, e := range n.Entries {
			want := refMinDist(p, e.Rect)
			//strlint:ignore floateq both sides run the identical float sequence on identical words
			if got := v.MinDist(p, i); got != want {
				t.Fatalf("entry %d point %v: MinDist=%g, ref=%g", i, p, got, want)
			}
		}
	}
}

// refMinDist mirrors internal/rtree's minDist formula.
func refMinDist(p geom.Point, r geom.Rect) float64 {
	sum := 0.0
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// TestViewRejectsWhatUnmarshalRejects corrupts a valid page every way
// Unmarshal detects and checks MakeView returns the same sentinel.
func TestViewRejectsWhatUnmarshalRejects(t *testing.T) {
	page, _ := marshalSample(t, 1, 2, 12, 3)
	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), page...)
		mutate(c)
		return c
	}
	cases := []struct {
		name string
		page []byte
		want error
	}{
		{"short", []byte{0x54, 0x52}, ErrCorrupt},
		{"magic", corrupt(func(p []byte) { p[0] = 0 }), ErrBadMagic},
		{"version", corrupt(func(p []byte) { p[2] = 99 }), ErrBadVersion},
		{"zero dims", corrupt(func(p []byte) { p[3] = 0 }), ErrCorrupt},
		{"count overflow", corrupt(func(p []byte) { p[6] = 0xFF; p[7] = 0xFF }), ErrCorrupt},
		{"payload flip", corrupt(func(p []byte) { p[100] ^= 0xFF }), ErrBadChecksum},
	}
	for _, tc := range cases {
		if _, err := MakeView(tc.page); !errors.Is(err, tc.want) {
			t.Errorf("%s: MakeView err %v, want %v", tc.name, err, tc.want)
		}
		var n Node
		if err := Unmarshal(tc.page, &n); !errors.Is(err, tc.want) {
			t.Errorf("%s: Unmarshal err %v, want %v (equivalence baseline)", tc.name, err, tc.want)
		}
	}

	// An invalid rectangle behind a recomputed CRC: both parsers must
	// reject with ErrCorrupt.
	bad, _ := marshalSample(t, 1, 2, 12, 3)
	writeInvertedEntry(bad)
	if _, err := MakeView(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inverted rect: MakeView err %v, want ErrCorrupt", err)
	}
	var n Node
	if err := Unmarshal(bad, &n); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inverted rect: Unmarshal err %v, want ErrCorrupt", err)
	}
}

// writeInvertedEntry swaps entry 0's axis-0 interval so Min > Max and
// recomputes the payload CRC, producing a page that passes the checksum
// but fails rectangle validation.
func writeInvertedEntry(page []byte) {
	dims := int(page[3])
	count := int(binary.LittleEndian.Uint16(page[6:]))
	off := HeaderSize
	lo := binary.LittleEndian.Uint64(page[off:])
	hi := binary.LittleEndian.Uint64(page[off+8:])
	if math.Float64frombits(lo) == math.Float64frombits(hi) {
		// Degenerate interval: force a strict inversion instead of a swap.
		hi = math.Float64bits(math.Float64frombits(lo) - 1)
	}
	binary.LittleEndian.PutUint64(page[off:], hi)
	binary.LittleEndian.PutUint64(page[off+8:], lo)
	end := HeaderSize + count*EntrySize(dims)
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[HeaderSize:end]))
}

// TestViewZeroAllocAccess pins the zero-copy property: iterating a page
// through a View with reused scratch performs no heap allocations.
func TestViewZeroAllocAccess(t *testing.T) {
	page, _ := marshalSample(t, 0, 2, 102, 5)
	q := geom.R2(0.2, 0.2, 1.4, 1.4)
	scratch := geom.Rect{Min: make(geom.Point, 2), Max: make(geom.Point, 2)}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		v, err := MakeView(page)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < v.Count(); i++ {
			if v.IntersectsQuery(q, i) {
				v.EntryRectInto(i, &scratch)
				sink += v.EntryRef(i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("view iteration allocated %.1f times per run", allocs)
	}
	_ = sink
}

// perEntryMatches is the reference AppendMatches is pinned to: the
// per-entry IntersectsQuery loop over every entry, in entry order.
func perEntryMatches(v View, q geom.Rect) []uint16 {
	var out []uint16
	for i := 0; i < v.Count(); i++ {
		if v.IntersectsQuery(q, i) {
			out = append(out, uint16(i))
		}
	}
	return out
}

// cube returns the rectangle with the interval [lo, hi] on every axis.
func cube(dims int, lo, hi float64) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		r.Min[d], r.Max[d] = lo, hi
	}
	return r
}

// TestAppendMatchesMatchesIntersectsQuery pins the match kernel to the
// per-entry IntersectsQuery verdict over dims 1–4 on the boundary cases
// of closed-box intersection: touching edges, point queries, infinite
// bounds, signed zeros and zero-width entries, plus random full pages.
func TestAppendMatchesMatchesIntersectsQuery(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	for dims := 1; dims <= 4; dims++ {
		// Entry 8 matches the others on axis 0 only, so a query can touch
		// it there and miss it on the last axis.
		split := cube(dims, 0, 1)
		split.Min[dims-1], split.Max[dims-1] = 5, 6
		rects := []geom.Rect{
			cube(dims, 0, 1),
			cube(dims, 1, 2), // touches entry 0 at 1
			cube(dims, 0.5, 0.5),
			cube(dims, negZero, 0),
			cube(dims, 0, negZero),
			cube(dims, -inf, -1),
			cube(dims, 2, inf),
			cube(dims, -inf, inf),
			split,
			cube(dims, 3, 3),
		}
		n := &Node{Level: 0, Dims: dims}
		for i, r := range rects {
			n.Entries = append(n.Entries, Entry{Rect: r, Ref: uint64(i)})
		}
		page := make([]byte, 4096)
		if err := Marshal(n, page); err != nil {
			t.Fatal(err)
		}
		v, err := MakeView(page)
		if err != nil {
			t.Fatal(err)
		}
		last := cube(dims, 0, 1)
		last.Min[dims-1], last.Max[dims-1] = 6, 7 // touches entry 8's last axis
		queries := []struct {
			name string
			q    geom.Rect
		}{
			{"touching edge", cube(dims, 1, 1)},
			{"touching from below", cube(dims, -1, 0)},
			{"point at 0.5", cube(dims, 0.5, 0.5)},
			{"point at +0", cube(dims, 0, 0)},
			{"point at -0", cube(dims, negZero, negZero)},
			{"signed-zero interval", cube(dims, negZero, 0)},
			{"everything", cube(dims, -inf, inf)},
			{"point at -inf", cube(dims, -inf, -inf)},
			{"point at +inf", cube(dims, inf, inf)},
			{"lower half line", cube(dims, -inf, negZero)},
			{"upper half line", cube(dims, 2, inf)},
			{"gap", cube(dims, 3.5, 4)},
			{"zero-width entry only", cube(dims, 3, 3)},
			{"last axis touch", last},
		}
		for _, tc := range queries {
			want := perEntryMatches(v, tc.q)
			got := v.AppendMatches(tc.q, nil)
			if !slices.Equal(got, want) {
				t.Errorf("dims %d %s: AppendMatches %v, per-entry loop %v", dims, tc.name, got, want)
			}
			for i, r := range rects {
				if hit := slices.Contains(got, uint16(i)); hit != tc.q.Intersects(r) {
					t.Errorf("dims %d %s: entry %d matched=%v, geom.Intersects=%v", dims, tc.name, i, hit, !hit)
				}
			}
			// Appending keeps what dst already held.
			if got := v.AppendMatches(tc.q, []uint16{999}); !slices.Equal(got, append([]uint16{999}, want...)) {
				t.Errorf("dims %d %s: AppendMatches dropped the existing prefix: %v", dims, tc.name, got)
			}
		}

		// Random full pages and queries.
		page, _ = marshalSample(t, 0, dims, Capacity(len(page), dims), int64(dims))
		if v, err = MakeView(page); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dims)))
		for trial := 0; trial < 100; trial++ {
			q := cube(dims, 0, 0)
			for d := 0; d < dims; d++ {
				q.Min[d] = rng.Float64() * 1.5
				q.Max[d] = q.Min[d] + rng.Float64()*0.3
			}
			if got, want := v.AppendMatches(q, nil), perEntryMatches(v, q); !slices.Equal(got, want) {
				t.Fatalf("dims %d random query %v: AppendMatches %v, per-entry loop %v", dims, q, got, want)
			}
		}
	}
}

// TestValidationKernelRejects puts a NaN or an inverted interval at the
// first, a middle and the last entry of a page, on the first and the last
// axis, behind a recomputed CRC. MakeView's one-pass validation and
// Unmarshal's per-entry check must reject each page with the same sentinel
// and the same message, naming the same entry.
func TestValidationKernelRejects(t *testing.T) {
	nan := math.NaN()
	for dims := 1; dims <= 4; dims++ {
		const count = 9
		for _, at := range []int{0, count / 2, count - 1} {
			for _, axis := range []int{0, dims - 1} {
				for _, bad := range []struct {
					name   string
					lo, hi float64
				}{
					{"NaN min", nan, 1},
					{"NaN max", 0, nan},
					{"inverted", 2, 1},
				} {
					page, _ := marshalSample(t, 0, dims, count, int64(dims))
					off := HeaderSize + at*EntrySize(dims) + 16*axis
					binary.LittleEndian.PutUint64(page[off:], math.Float64bits(bad.lo))
					binary.LittleEndian.PutUint64(page[off+8:], math.Float64bits(bad.hi))
					page = resealCRC(page)

					_, vErr := MakeView(page)
					var n Node
					uErr := Unmarshal(page, &n)
					if !errors.Is(vErr, ErrCorrupt) || !errors.Is(uErr, ErrCorrupt) {
						t.Fatalf("dims %d entry %d axis %d %s: MakeView err %v, Unmarshal err %v, want ErrCorrupt",
							dims, at, axis, bad.name, vErr, uErr)
					}
					if vErr.Error() != uErr.Error() {
						t.Fatalf("dims %d entry %d axis %d %s: messages differ: MakeView %q, Unmarshal %q",
							dims, at, axis, bad.name, vErr, uErr)
					}
					if want := fmt.Sprintf("entry %d has invalid rectangle", at); !strings.Contains(vErr.Error(), want) {
						t.Fatalf("dims %d %s: MakeView err %q does not name entry %d", dims, bad.name, vErr, at)
					}
				}
			}
		}
	}
}
