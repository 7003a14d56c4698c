package node

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/geom"
)

// FuzzViewEquivalence throws arbitrary bytes at both page parsers and
// requires them to agree byte-for-byte: MakeView accepts exactly the pages
// Unmarshal accepts (and rejects with the same sentinel error and the same
// message), and on accepted pages every View accessor returns exactly what
// the materialized Node holds and AppendMatches selects exactly the entries
// the per-entry IntersectsQuery loop accepts. Each input is checked twice:
// as given, and with its payload CRC re-sealed, so mutated coordinates
// reach entry validation instead of dying on the checksum. This is the
// corruption-safety half of the zero-copy read path's correctness argument
// — the traversal half is pinned by internal/rtree's differential tests.
// The committed corpus under testdata/fuzz/FuzzViewEquivalence seeds valid
// pages of several shapes plus targeted mutations (header fields, payload,
// truncation).
func FuzzViewEquivalence(f *testing.F) {
	// Valid pages across levels, dimensionalities and fills.
	for _, tc := range []struct{ level, dims, count int }{
		{0, 2, 0}, {0, 2, 1}, {0, 2, 50}, {2, 2, 102}, {0, 1, 5}, {1, 8, 3},
	} {
		page := make([]byte, 4096)
		n := sampleNode(tc.level, tc.dims, tc.count, rand.New(rand.NewSource(int64(tc.level+tc.dims+tc.count))))
		if err := Marshal(n, page); err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	// Mutations of a valid page: header bytes, payload, truncations.
	base := make([]byte, 1024)
	if err := Marshal(sampleNode(1, 2, 20, rand.New(rand.NewSource(42))), base); err != nil {
		f.Fatal(err)
	}
	for _, at := range []int{0, 2, 3, 4, 6, 8, 12, 200} {
		mut := append([]byte(nil), base...)
		mut[at] ^= 0xFF
		f.Add(mut)
	}
	f.Add(base[:HeaderSize-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, page []byte) {
		checkViewEquivalence(t, page)
		if sealed := resealCRC(page); sealed != nil {
			checkViewEquivalence(t, sealed)
		}
	})
}

// resealCRC returns a copy of page with the header CRC recomputed over the
// payload the header describes, or nil when the header is too damaged to
// locate a payload.
func resealCRC(page []byte) []byte {
	if len(page) < HeaderSize || page[3] == 0 {
		return nil
	}
	count := int(binary.LittleEndian.Uint16(page[6:]))
	end := HeaderSize + count*EntrySize(int(page[3]))
	if end > len(page) {
		return nil
	}
	sealed := append([]byte(nil), page...)
	binary.LittleEndian.PutUint32(sealed[8:], crc32.ChecksumIEEE(sealed[HeaderSize:end]))
	return sealed
}

// checkViewEquivalence is FuzzViewEquivalence's property for one page.
func checkViewEquivalence(t *testing.T, page []byte) {
	t.Helper()
	var n Node
	uErr := Unmarshal(page, &n)
	v, vErr := MakeView(page)

	if (uErr == nil) != (vErr == nil) {
		t.Fatalf("acceptance disagrees: Unmarshal err %v, MakeView err %v", uErr, vErr)
	}
	if uErr != nil {
		// Same sentinel class on rejection.
		for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrCorrupt} {
			if errors.Is(uErr, sentinel) != errors.Is(vErr, sentinel) {
				t.Fatalf("rejection class disagrees for %v: Unmarshal %v, MakeView %v", sentinel, uErr, vErr)
			}
		}
		if uErr.Error() != vErr.Error() {
			t.Fatalf("rejection message disagrees: Unmarshal %q, MakeView %q", uErr, vErr)
		}
		return
	}

	// Accepted: every accessor must match the materialized node.
	if v.Level() != n.Level || v.Dims() != n.Dims || v.Count() != len(n.Entries) {
		t.Fatalf("header disagrees: view (%d,%d,%d), node (%d,%d,%d)",
			v.Level(), v.Dims(), v.Count(), n.Level, n.Dims, len(n.Entries))
	}
	for i, e := range n.Entries {
		if v.EntryRef(i) != e.Ref {
			t.Fatalf("entry %d ref disagrees", i)
		}
		if !v.EntryRect(i).Equal(e.Rect) {
			t.Fatalf("entry %d rect disagrees", i)
		}
		for d := 0; d < n.Dims; d++ {
			//strlint:ignore floateq decode must be bit-exact
			if v.EntryMin(i, d) != e.Rect.Min[d] || v.EntryMax(i, d) != e.Rect.Max[d] {
				t.Fatalf("entry %d axis %d disagrees", i, d)
			}
		}
	}

	// The match kernel against the per-entry loop, for queries taken from
	// the page itself: a middle entry's rectangle (its neighbours touch
	// or overlap it in packed pages) and the lower corner of the first.
	if len(n.Entries) == 0 {
		return
	}
	mid := n.Entries[len(n.Entries)/2].Rect
	corner := geom.Rect{Min: n.Entries[0].Rect.Min, Max: n.Entries[0].Rect.Min}
	for _, q := range []geom.Rect{mid, corner} {
		if got, want := v.AppendMatches(q, nil), perEntryMatches(v, q); !slices.Equal(got, want) {
			t.Fatalf("AppendMatches(%v) = %v, per-entry loop %v", q, got, want)
		}
	}
}
