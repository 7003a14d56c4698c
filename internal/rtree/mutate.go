package rtree

// Mutation fast paths: the common-case Insert (a leaf with room) and Delete
// (a leaf that stays adequately full) patch pages in place through
// node.MutableView under buffer write pins instead of the Unmarshal →
// mutate → Marshal round trip insert.go and delete.go take. The fast path
// is purely an encoding shortcut: it makes exactly the placement decisions
// the slow path would make — the same chooseSubtree comparisons over the
// same float64 values, the same DFS find-leaf order — so the resulting tree
// is byte-for-byte identical to slow-path output (the differential tests in
// mutateoracle_test.go and the benchmark baseline's Guttman-built trees
// both pin this). Structural changes — node splits, forced reinsertion,
// underfull condensation, root growth or collapse — fall back to the slow
// path, which materializes nodes anyway.

import (
	"errors"
	"fmt"
	"math"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// MutateStats counts how dynamic mutations were executed: in place through
// MutableView patches, or structurally through the materializing slow path
// (splits, reinsertion, condensation, tree growth/collapse, bootstraps).
type MutateStats struct {
	InPlaceInserts    uint64
	StructuralInserts uint64
	InPlaceDeletes    uint64
	StructuralDeletes uint64
}

// MutateStats returns the tree's mutation-path counters.
func (t *Tree) MutateStats() MutateStats {
	return MutateStats{
		InPlaceInserts:    t.mutStats.inPlaceInserts.Load(),
		StructuralInserts: t.mutStats.structuralInserts.Load(),
		InPlaceDeletes:    t.mutStats.inPlaceDeletes.Load(),
		StructuralDeletes: t.mutStats.structuralDeletes.Load(),
	}
}

// SetInPlaceMutation toggles the MutableView fast paths. On by default;
// disabling forces every mutation through the materializing slow path. The
// differential tests run identical op sequences both ways and require
// byte-identical trees; it is also an escape hatch for ablation benches.
func (t *Tree) SetInPlaceMutation(enabled bool) { t.noInPlace = !enabled }

// mutStep is one node on the root-to-leaf path of an in-place mutation.
type mutStep struct {
	id  storage.PageID
	idx int // chosen (insert) or matched (delete) entry index in this node
	// grow is set on insert descent when the chosen entry's rectangle must
	// be enlarged to cover the new entry. Covers-propagation makes the
	// flags monotone up the path: once an ancestor covers the new
	// rectangle, every higher ancestor does too.
	grow bool
	// count is the node's entry count, recorded on the delete find so the
	// minFill decision needs no refetch.
	count int
}

// mutScratch lazily sizes the reusable rectangles to the tree's dims.
func (t *Tree) mutScratch() {
	if t.mut.r1.Dim() != t.dims {
		t.mut.r1 = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
		t.mut.r2 = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
	}
}

// insertFast attempts the in-place leaf append. It reports whether the
// insert was fully handled; false means the structural slow path must run
// (empty tree, or the chosen leaf is full). On success it has already
// bumped the entry count and persisted the metadata.
func (t *Tree) insertFast(r geom.Rect, ref uint64) (bool, error) {
	if t.height == 0 || t.noInPlace {
		return false, nil
	}
	t.mutScratch()
	path := t.mut.path[:0]
	defer func() { t.mut.path = path[:0] }()

	// Descent: replicate chooseSubtree's exact comparisons over lazily
	// decoded views, recording the chosen child at each internal node.
	id := t.root
	for {
		f, err := t.pool.Fetch(id)
		if err != nil {
			return false, err
		}
		v, err := node.MakeView(f.Data())
		if err != nil {
			t.pool.Release(f)
			return false, fmt.Errorf("rtree: page %d: %w", id, err)
		}
		if v.IsLeaf() {
			full := v.Count() >= t.capacity
			t.pool.Release(f)
			if full {
				return false, nil // split or forced reinsertion: slow path
			}
			path = append(path, mutStep{id: id, idx: -1})
			break
		}
		best, grow := chooseSubtreeView(v, r, &t.mut.r1)
		child := storage.PageID(v.EntryRef(best))
		t.pool.Release(f)
		path = append(path, mutStep{id: id, idx: best, grow: grow})
		id = child
	}

	// Patch bottom-up under write pins: append on the leaf, then enlarge
	// each ancestor's entry rectangle until one already covers r.
	if err := t.patchAppend(path[len(path)-1].id, r, ref); err != nil {
		return false, err
	}
	for j := len(path) - 2; j >= 0; j-- {
		if !path[j].grow {
			break
		}
		if err := t.patchGrow(path[j].id, path[j].idx, r); err != nil {
			return false, err
		}
	}
	t.count++
	t.mutStats.inPlaceInserts.Add(1)
	return true, t.writeMeta()
}

// patchAppend write-pins the leaf and appends (r, ref) in place.
func (t *Tree) patchAppend(id storage.PageID, r geom.Rect, ref uint64) error {
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return err
	}
	mv, err := node.MakeMutableView(f.Data())
	if err == nil {
		err = mv.AppendEntry(r, ref)
	}
	if err != nil {
		err = fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return errors.Join(err, t.pool.ReleaseMut(f))
}

// patchGrow write-pins an internal node and unions r into entry idx's
// rectangle — the in-place form of the slow path's MBR adjustment. The
// union of the stored rectangle (the child's tight MBR) with r equals the
// child's recomputed MBR, so the bytes match the slow path's.
func (t *Tree) patchGrow(id storage.PageID, idx int, r geom.Rect) error {
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return err
	}
	mv, err := node.MakeMutableView(f.Data())
	if err == nil {
		mv.EntryRectInto(idx, &t.mut.r1)
		t.mut.r1.UnionInPlace(r)
		err = mv.SetEntryRect(idx, t.mut.r1)
	}
	if err != nil {
		err = fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return errors.Join(err, t.pool.ReleaseMut(f))
}

// chooseSubtreeView is chooseSubtree over a lazily decoded view: least
// enlargement, ties by least area, same float64 comparisons on the same
// values. It also reports whether the chosen entry must grow to cover r.
func chooseSubtreeView(v node.View, r geom.Rect, scratch *geom.Rect) (best int, grow bool) {
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i := 0; i < v.Count(); i++ {
		v.EntryRectInto(i, scratch)
		enl := scratch.Enlargement(r)
		area := scratch.Area()
		//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman; must mirror chooseSubtree bit-for-bit
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	v.EntryRectInto(best, scratch)
	return best, !scratch.Contains(r)
}

// deleteFast attempts the in-place leaf removal. handled reports whether
// the delete was fully answered (including "not found"); handled == false
// means the condensing slow path must run. On a successful removal it has
// already decremented the entry count and persisted the metadata.
func (t *Tree) deleteFast(r geom.Rect, ref uint64) (handled, found bool, err error) {
	if t.height == 0 || t.noInPlace {
		return false, false, nil
	}
	t.mutScratch()
	path := t.mut.path[:0]
	defer func() { t.mut.path = path[:0] }()

	found, err = t.findLeafFast(t.root, r, ref, &path)
	if err != nil {
		return false, false, err
	}
	if !found {
		return true, false, nil
	}
	leaf := path[len(path)-1]
	isRoot := leaf.id == t.root
	after := leaf.count - 1
	if (!isRoot && after < t.minFill) || (isRoot && after == 0) {
		return false, false, nil // condensation or root collapse: slow path
	}

	// Remove on the leaf and compute its shrunken MBR into r1.
	if err := t.patchRemove(leaf.id, leaf.idx, &t.mut.r1); err != nil {
		return false, false, err
	}
	// Tighten ancestors bottom-up until one's stored rectangle already
	// equals the child's new MBR (nothing above can change past that).
	for j := len(path) - 2; j >= 0; j-- {
		changed, err := t.patchShrink(path[j].id, path[j].idx, &t.mut.r1)
		if err != nil {
			return false, false, err
		}
		if !changed {
			break
		}
	}
	t.count--
	t.mutStats.inPlaceDeletes.Add(1)
	return true, true, t.writeMeta()
}

// findLeafFast is the view-based FindLeaf: depth-first over intersecting
// children in entry order — delete.go's exact traversal — recording the
// path to the first leaf holding (r, ref). Candidate children are banked
// while the node is pinned so at most one pin is held at any moment.
func (t *Tree) findLeafFast(id storage.PageID, r geom.Rect, ref uint64, path *[]mutStep) (bool, error) {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return false, err
	}
	v, err := node.MakeView(f.Data())
	if err != nil {
		t.pool.Release(f)
		return false, fmt.Errorf("rtree: page %d: %w", id, err)
	}
	if v.IsLeaf() {
		for i := 0; i < v.Count(); i++ {
			if v.EntryRef(i) == ref {
				v.EntryRectInto(i, &t.mut.r2)
				if t.mut.r2.Equal(r) {
					count := v.Count()
					t.pool.Release(f)
					*path = append(*path, mutStep{id: id, idx: i, count: count})
					return true, nil
				}
			}
		}
		t.pool.Release(f)
		return false, nil
	}
	type cand struct {
		idx int
		id  storage.PageID
	}
	t.mut.idx = v.AppendMatches(r, t.mut.idx[:0])
	cands := make([]cand, len(t.mut.idx))
	for k, i := range t.mut.idx {
		cands[k] = cand{idx: int(i), id: storage.PageID(v.EntryRef(int(i)))}
	}
	t.pool.Release(f)
	for _, c := range cands {
		*path = append(*path, mutStep{id: id, idx: c.idx})
		found, err := t.findLeafFast(c.id, r, ref, path)
		if err != nil || found {
			return found, err
		}
		*path = (*path)[:len(*path)-1]
	}
	return false, nil
}

// patchRemove write-pins the leaf, removes entry idx in place, and computes
// the leaf's new MBR into newMBR. The caller guarantees the leaf keeps at
// least one entry.
func (t *Tree) patchRemove(id storage.PageID, idx int, newMBR *geom.Rect) error {
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return err
	}
	mv, err := node.MakeMutableView(f.Data())
	if err == nil {
		err = mv.RemoveEntry(idx)
	}
	if err == nil {
		mv.MBRInto(newMBR)
	}
	if err != nil {
		err = fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return errors.Join(err, t.pool.ReleaseMut(f))
}

// patchShrink write-pins an internal node and replaces entry idx's
// rectangle with the child's new MBR, then overwrites newMBR with this
// node's own recomputed MBR for the next level up. It reports whether the
// stored rectangle actually changed; when it did not, ancestors above are
// untouched by construction.
func (t *Tree) patchShrink(id storage.PageID, idx int, newMBR *geom.Rect) (bool, error) {
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return false, err
	}
	mv, err := node.MakeMutableView(f.Data())
	if err != nil {
		return false, errors.Join(fmt.Errorf("rtree: page %d: %w", id, err), t.pool.ReleaseMut(f))
	}
	mv.EntryRectInto(idx, &t.mut.r2)
	if t.mut.r2.Equal(*newMBR) {
		return false, t.pool.ReleaseMut(f)
	}
	err = mv.SetEntryRect(idx, *newMBR)
	if err == nil {
		mv.MBRInto(newMBR)
	}
	if err != nil {
		err = fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return true, errors.Join(err, t.pool.ReleaseMut(f))
}
