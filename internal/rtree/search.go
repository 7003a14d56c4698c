package rtree

import (
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Search reports every data entry whose rectangle intersects q, using the
// paper's procedure: starting at the root, retrieve all rectangles stored
// at a node that intersect Q; descend into the subtrees of retrieved
// internal rectangles; report retrieved leaf rectangles. Returning false
// from fn stops the search early.
//
// The traversal runs on the zero-copy read path (traverse.go): pages are
// decoded in place through node.View and all traversal state is pooled, so
// a steady-state Search allocates nothing. Node visits happen in exactly
// the order of the recursive reference implementation (SearchUnmarshal),
// so the pool's DiskReads delta after a Search is still exactly the
// paper's "number of disk accesses to satisfy the query".
//
// The entry passed to fn aliases pooled traversal storage and is valid
// only during the callback; Clone its rectangle to retain it.
func (t *Tree) Search(q geom.Rect, fn func(e node.Entry) bool) error {
	_, err := t.searchView(nil, q, fn)
	return err
}

// SearchUnmarshal is the recursive, materializing reference
// implementation of Search: every visited page is decoded with
// node.Unmarshal into a fresh node.Node. It visits the same pages in the
// same order and reports the same entries as Search, which the
// differential tests (TestSearchResultsIdentical) assert; it is retained
// as the oracle for those tests and allocates per visited node, so query
// paths should use Search.
func (t *Tree) SearchUnmarshal(q geom.Rect, fn func(e node.Entry) bool) error {
	if err := t.checkEntry(q); err != nil {
		return err
	}
	if t.height == 0 {
		return nil
	}
	_, err := t.searchRec(t.root, q, fn)
	return err
}

func (t *Tree) searchRec(id storage.PageID, q geom.Rect, fn func(node.Entry) bool) (more bool, err error) {
	var n node.Node
	if err := t.readNode(id, &n); err != nil {
		return false, err
	}
	if n.IsLeaf() {
		for _, e := range n.Entries {
			if !q.Intersects(e.Rect) {
				continue
			}
			if !fn(e) {
				return false, nil
			}
		}
		return true, nil
	}
	for _, e := range n.Entries {
		if !q.Intersects(e.Rect) {
			continue
		}
		more, err := t.searchRec(storage.PageID(e.Ref), q, fn)
		if err != nil || !more {
			return more, err
		}
	}
	return true, nil
}

// SearchWithin reports every data entry whose rectangle is fully
// contained in q (window containment, as opposed to Search's
// intersection semantics). The traversal still descends by intersection:
// a subtree whose MBR merely overlaps q can hold fully contained entries.
func (t *Tree) SearchWithin(q geom.Rect, fn func(e node.Entry) bool) error {
	return t.Search(q, func(e node.Entry) bool {
		if !q.Contains(e.Rect) {
			return true
		}
		return fn(e)
	})
}

// SearchPoint reports every data entry whose rectangle contains p: the
// paper's "point query".
func (t *Tree) SearchPoint(p geom.Point, fn func(e node.Entry) bool) error {
	return t.Search(geom.PointRect(p), fn)
}

// Count returns the number of data entries intersecting q. It runs
// Search's traversal in count mode: the same pages in the same order, but
// leaves only count their matches, so nothing is copied out of the page
// and no callback runs. It allocates nothing at steady state.
func (t *Tree) Count(q geom.Rect) (int, error) {
	return t.searchView(nil, q, nil)
}

// All collects every data entry intersecting q. For large result sets
// prefer Search with a streaming callback.
func (t *Tree) All(q geom.Rect) ([]node.Entry, error) {
	var out []node.Entry
	err := t.Search(q, func(e node.Entry) bool {
		e.Rect = e.Rect.Clone()
		out = append(out, e)
		return true
	})
	return out, err
}
