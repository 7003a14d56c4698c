package strtree

// Allocation-regression gate at the public API level: steady-state Search,
// Count and CountContext (the serving layer's count path) through the
// strtree wrappers must not allocate. The same gate
// exists inside internal/rtree (TestSearchZeroAlloc there); this level
// additionally catches regressions in the root wrappers — a closure that
// starts escaping, a stats path that starts boxing — that the inner gate
// cannot see.

import (
	"context"
	"testing"
)

// zeroAllocTree builds a packed 2-d tree big enough to be multi-level,
// with a buffer pool that holds every page, and runs one warm-up query so
// the traverser pool and the buffer are both hot.
func zeroAllocTree(tb testing.TB) *Tree {
	tb.Helper()
	tr, err := New(Options{Dims: 2, Capacity: 102, BufferPages: 512})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(randItems(20000, 1), PackSTR); err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Count(R2(0, 0, 1, 1)); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// queryAllocs is one query kind's measured allocations per warm call.
type queryAllocs struct {
	name   string
	allocs float64
}

// searchAllocsPerRun measures allocations per warm Search, Count and
// CountContext under a live context.
func searchAllocsPerRun(tb testing.TB, tr *Tree) []queryAllocs {
	tb.Helper()
	q := R2(0.3, 0.3, 0.6, 0.6)
	found := 0
	searchAllocs := testing.AllocsPerRun(50, func() {
		found = 0
		if err := tr.Search(q, func(Item) bool { found++; return true }); err != nil {
			tb.Fatal(err)
		}
	})
	if found == 0 {
		tb.Fatal("query matched nothing; the gate exercised no emission path")
	}
	countAllocs := testing.AllocsPerRun(50, func() {
		if _, err := tr.Count(q); err != nil {
			tb.Fatal(err)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	counted := 0
	countCtxAllocs := testing.AllocsPerRun(50, func() {
		var err error
		if counted, err = tr.CountContext(ctx, q); err != nil {
			tb.Fatal(err)
		}
	})
	if counted != found {
		tb.Fatalf("CountContext counted %d, Search found %d", counted, found)
	}
	return []queryAllocs{{"Search", searchAllocs}, {"Count", countAllocs}, {"CountContext", countCtxAllocs}}
}

// zeroAllocErrors reports each measured query kind that allocated.
func zeroAllocErrors(t *testing.T, measured []queryAllocs, where string) {
	t.Helper()
	for _, m := range measured {
		if m.allocs != 0 {
			t.Errorf("warm %s%s allocated %.1f times per query, want 0", m.name, where, m.allocs)
		}
	}
}

// TestSearchViewZeroAlloc enforces the acceptance criterion in CI ("View"
// in the name places it in check.sh's root race list, where it skips:
// allocation counts are meaningless under the race detector).
func TestSearchViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := zeroAllocTree(t)
	defer func() {
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	zeroAllocErrors(t, searchAllocsPerRun(t, tr), "")
}

// TestSearchMutatedViewZeroAlloc is the write path's read-side guarantee:
// a tree that has been mutated (in-place appends, patched MBRs, splits,
// condensations) and re-verified must serve warm Search and Count at zero
// allocations per query, exactly like a freshly packed one. "Mutate" and
// "View" in the name place it in check.sh's root race list, where the
// alloc assertion skips.
func TestSearchMutatedViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := zeroAllocTree(t)
	defer func() {
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	// Churn the tree: enough inserts to split leaves and enough deletes
	// to patch MBRs in place, then prove it is still structurally sound.
	items := randItems(2000, 99)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.ID+1<<32); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:1000] {
		found, err := tr.Delete(it.Rect, it.ID+1<<32)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("churn delete of id %d not found", it.ID)
		}
	}
	ms := tr.MutatePathStats()
	if ms.InPlaceInserts == 0 || ms.InPlaceDeletes == 0 {
		t.Fatalf("churn exercised no in-place mutations: %+v", ms)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
	if _, err := tr.Count(R2(0, 0, 1, 1)); err != nil { // re-warm after churn
		t.Fatal(err)
	}
	zeroAllocErrors(t, searchAllocsPerRun(t, tr), " on a mutated tree")
}

// BenchmarkSearchZeroAlloc is the benchmark-suite guard: it fails outright
// if a steady-state Search, Count or CountContext allocates, so an allocation regression
// breaks the bench job even when nobody inspects allocs/op columns.
func BenchmarkSearchZeroAlloc(b *testing.B) {
	tr := zeroAllocTree(b)
	defer func() {
		if err := tr.Close(); err != nil {
			b.Error(err)
		}
	}()
	if !raceEnabled {
		for _, m := range searchAllocsPerRun(b, tr) {
			if m.allocs != 0 {
				b.Fatalf("steady-state allocations regressed: %s %.1f allocs per query, want 0", m.name, m.allocs)
			}
		}
	}
	q := R2(0.3, 0.3, 0.6, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tr.Search(q, func(Item) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}
