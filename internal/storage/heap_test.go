package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/bullfrogdb/bullfrog/internal/types"
)

func row(v int64) types.Row { return types.Row{types.NewInt(v)} }

func TestTIDOrdinalRoundTrip(t *testing.T) {
	f := func(ord int64, pageSizeSeed uint8) bool {
		if ord < 0 {
			ord = -ord
		}
		pageSize := uint32(pageSizeSeed)%1000 + 1
		// Page numbers are uint32, so keep the ordinal inside addressable range.
		ord %= int64(pageSize) * (1 << 31)
		tid := TIDFromOrdinal(ord, pageSize)
		return tid.Ordinal(pageSize) == ord
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	tid := TID{Page: 3, Slot: 7}
	if tid.String() != "(3,7)" {
		t.Errorf("TID.String() = %q", tid.String())
	}
}

func TestInsertAndView(t *testing.T) {
	h := NewHeap(4)
	var tids []TID
	for i := int64(0); i < 10; i++ {
		tids = append(tids, h.Insert(1, row(i)))
	}
	if h.NumSlots() != 10 {
		t.Errorf("NumSlots = %d", h.NumSlots())
	}
	if h.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3 (page size 4)", h.NumPages())
	}
	for i, tid := range tids {
		var got int64
		if err := h.View(tid, func(v *Version) { got = v.Row[0].Int() }); err != nil {
			t.Fatal(err)
		}
		if got != int64(i) {
			t.Errorf("tuple %d: got %d", i, got)
		}
	}
	if err := h.View(TID{Page: 99, Slot: 0}, func(*Version) {}); err != ErrNoSuchTuple {
		t.Errorf("View on missing page: %v", err)
	}
	if err := h.View(TID{Page: 0, Slot: 99}, func(*Version) {}); err != ErrNoSuchTuple {
		t.Errorf("View on missing slot: %v", err)
	}
}

func TestUpdateChainAndUndo(t *testing.T) {
	h := NewHeap(0)
	tid := h.Insert(1, row(10))

	// Txn 2 updates the tuple.
	if err := h.Mutate(tid, func(s Slot) error {
		s.Push(2, row(20))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h.View(tid, func(v *Version) {
		if v.XMin != 2 || v.Row[0].Int() != 20 {
			t.Errorf("head after update: %+v", v)
		}
		if v.Next == nil || v.Next.XMax != 2 || v.Next.Row[0].Int() != 10 {
			t.Errorf("old version after update: %+v", v.Next)
		}
	})

	// Txn 2 aborts: pop restores the old version.
	h.Mutate(tid, func(s Slot) error {
		if !s.Pop(2) {
			t.Error("Pop should succeed for the owning txn")
		}
		return nil
	})
	h.View(tid, func(v *Version) {
		if v.XMin != 1 || v.XMax != 0 || v.Row[0].Int() != 10 {
			t.Errorf("after undo: %+v", v)
		}
	})

	// Pop by a non-owner is refused.
	h.Mutate(tid, func(s Slot) error {
		if s.Pop(99) {
			t.Error("Pop by non-owner should fail")
		}
		return nil
	})
}

func TestDeleteAndUndo(t *testing.T) {
	h := NewHeap(0)
	tid := h.Insert(1, row(5))
	if err := h.Mutate(tid, func(s Slot) error { return s.SetXMax(7) }); err != nil {
		t.Fatal(err)
	}
	// A second deleter must be refused.
	err := h.Mutate(tid, func(s Slot) error { return s.SetXMax(8) })
	if err == nil {
		t.Error("second SetXMax should fail")
	}
	// Idempotent for the same txn.
	if err := h.Mutate(tid, func(s Slot) error { return s.SetXMax(7) }); err != nil {
		t.Errorf("same-txn SetXMax should be idempotent: %v", err)
	}
	// Undo.
	h.Mutate(tid, func(s Slot) error { s.ClearXMax(7); return nil })
	h.View(tid, func(v *Version) {
		if v.XMax != 0 {
			t.Errorf("XMax not cleared: %+v", v)
		}
	})
	// ClearXMax by non-owner is a no-op.
	h.Mutate(tid, func(s Slot) error { return s.SetXMax(7) })
	h.Mutate(tid, func(s Slot) error { s.ClearXMax(9); return nil })
	h.View(tid, func(v *Version) {
		if v.XMax != 7 {
			t.Error("ClearXMax by non-owner should not clear")
		}
	})
}

func TestScanOrderAndRange(t *testing.T) {
	h := NewHeap(4)
	const n = 21
	for i := int64(0); i < n; i++ {
		h.Insert(1, row(i))
	}
	var seen []int64
	h.Scan(func(tid TID, v *Version) error {
		seen = append(seen, v.Row[0].Int())
		return nil
	})
	if len(seen) != n {
		t.Fatalf("Scan saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("Scan out of TID order at %d: %d", i, v)
		}
	}

	var got []int64
	h.ScanRange(5, 13, func(tid TID, v *Version) error {
		got = append(got, v.Row[0].Int())
		return nil
	})
	if len(got) != 8 || got[0] != 5 || got[7] != 12 {
		t.Errorf("ScanRange(5,13) = %v", got)
	}

	// Range clamped to the heap size.
	got = nil
	h.ScanRange(18, 1000, func(tid TID, v *Version) error {
		got = append(got, v.Row[0].Int())
		return nil
	})
	if len(got) != 3 {
		t.Errorf("clamped ScanRange returned %d tuples, want 3", len(got))
	}

	// Error propagation stops the scan.
	count := 0
	err := h.Scan(func(TID, *Version) error {
		count++
		if count == 3 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if err == nil || count != 3 {
		t.Errorf("Scan error propagation: err=%v count=%d", err, count)
	}
}

func TestConcurrentInsertsGetDistinctTIDs(t *testing.T) {
	h := NewHeap(8)
	const workers, per = 8, 500
	tidsCh := make(chan TID, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tidsCh <- h.Insert(uint64(w+1), row(int64(i)))
			}
		}(w)
	}
	wg.Wait()
	close(tidsCh)
	seen := make(map[TID]bool)
	for tid := range tidsCh {
		if seen[tid] {
			t.Fatalf("duplicate TID %v", tid)
		}
		seen[tid] = true
	}
	if len(seen) != workers*per {
		t.Errorf("got %d distinct TIDs, want %d", len(seen), workers*per)
	}
	if h.NumSlots() != workers*per {
		t.Errorf("NumSlots = %d", h.NumSlots())
	}
	// Every slot must be readable after concurrent growth.
	n := 0
	h.Scan(func(TID, *Version) error { n++; return nil })
	if n != workers*per {
		t.Errorf("Scan found %d tuples, want %d", n, workers*per)
	}
}

func TestVacuum(t *testing.T) {
	h := NewHeap(0)
	tid := h.Insert(1, row(1))
	// Build a chain of 4 versions.
	for v := int64(2); v <= 4; v++ {
		h.Mutate(tid, func(s Slot) error {
			s.Push(uint64(v), row(v*10))
			return nil
		})
	}
	// Prune everything older than the newest two versions.
	pruned := h.Vacuum(func(v *Version) bool { return v.XMin <= 2 }, nil)
	if pruned != 2 {
		t.Errorf("pruned %d versions, want 2", pruned)
	}
	depth := 0
	h.View(tid, func(v *Version) {
		for ; v != nil; v = v.Next {
			depth++
		}
	})
	if depth != 2 {
		t.Errorf("chain depth after vacuum = %d, want 2", depth)
	}
}

func TestMutateMissingTuple(t *testing.T) {
	h := NewHeap(0)
	if err := h.Mutate(TID{Page: 0, Slot: 0}, func(Slot) error { return nil }); err != ErrNoSuchTuple {
		t.Errorf("Mutate on empty heap: %v", err)
	}
}

// TestVacuumReclaim: a slot whose head is prunable is emptied and reported
// with no survivors; a cut chain reports its head and the removed versions
// on a page marked by MarkKeysMoved only; a page where nothing changed since
// the last vacuum is not visited.
func TestVacuumReclaim(t *testing.T) {
	h := NewHeap(4)
	deleted := h.Insert(1, row(1))
	updated := h.Insert(1, row(2))
	h.Insert(1, row(3))
	h.Insert(1, row(4))
	unmarked := h.Insert(1, row(5)) // second page
	h.Mutate(deleted, func(s Slot) error { return s.SetXMax(2) })
	h.Mutate(updated, func(s Slot) error { s.Push(3, row(20)); s.MarkKeysMoved(); return nil })
	h.Mutate(unmarked, func(s Slot) error { s.Push(3, row(50)); return nil })

	type call struct {
		tid        TID
		live, dead int
	}
	var calls []call
	visited := map[uint64]bool{}
	dead := func(v *Version) bool {
		visited[v.XMin] = true
		return v.XMax != 0 && v.XMax <= 3
	}
	pruned := h.Vacuum(dead, func(tid TID, live, dead *Version) {
		calls = append(calls, call{tid, chainLen(live), chainLen(dead)})
	})
	if pruned != 3 {
		t.Errorf("pruned %d versions, want 3", pruned)
	}
	want := []call{{deleted, 0, 1}, {updated, 1, 1}}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("reclaim calls %v, want %v", calls, want)
	}
	if err := h.View(deleted, func(*Version) {}); err != ErrNoSuchTuple {
		t.Errorf("View of an emptied slot: %v, want ErrNoSuchTuple", err)
	}
	n := 0
	h.Scan(func(TID, *Version) error { n++; return nil })
	if n != 4 {
		t.Errorf("Scan visits %d tuples after vacuum, want 4", n)
	}

	// Nothing changed since: no page has a chain, so no version is looked at.
	visited = map[uint64]bool{}
	if pruned := h.Vacuum(dead, nil); pruned != 0 || len(visited) != 0 {
		t.Errorf("second vacuum pruned %d and inspected %v, want nothing", pruned, visited)
	}
}
