package txn

import (
	"errors"
	"sync"
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

func row(v int64) types.Row { return types.Row{types.NewInt(v)} }

func TestCommitVisibility(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)

	w := m.Begin()
	tid := h.Insert(w.ID(), row(1))

	// A reader that started before the writer commits must not see the row.
	r1 := m.Begin()
	h.View(tid, func(v *storage.Version) {
		if _, ok := r1.VisibleRow(v); ok {
			t.Error("uncommitted insert visible to concurrent reader")
		}
	})
	// The writer sees its own insert.
	h.View(tid, func(v *storage.Version) {
		if _, ok := w.VisibleRow(v); !ok {
			t.Error("writer cannot see its own insert")
		}
	})

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// r1's snapshot predates the commit.
	h.View(tid, func(v *storage.Version) {
		if _, ok := r1.VisibleRow(v); ok {
			t.Error("commit visible to older snapshot")
		}
	})
	// A new reader sees it.
	r2 := m.Begin()
	h.View(tid, func(v *storage.Version) {
		if got, ok := r2.VisibleRow(v); !ok || got[0].Int() != 1 {
			t.Errorf("committed insert not visible to new reader: %v %v", got, ok)
		}
	})
	r1.Abort()
	r2.Abort()
}

func TestAbortedInsertInvisible(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)
	w := m.Begin()
	tid := h.Insert(w.ID(), row(9))
	w.Abort()
	r := m.Begin()
	h.View(tid, func(v *storage.Version) {
		if _, ok := r.VisibleRow(v); ok {
			t.Error("aborted insert visible")
		}
	})
	if m.StatusOf(w.ID()) != StatusAborted {
		t.Error("status should be aborted")
	}
}

func TestUpdateVisibilityChain(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)

	w1 := m.Begin()
	tid := h.Insert(w1.ID(), row(10))
	w1.Commit()

	rOld := m.Begin() // snapshot with value 10

	w2 := m.Begin()
	h.Mutate(tid, func(s storage.Slot) error {
		s.Push(w2.ID(), row(20))
		return nil
	})
	w2.Commit()

	rNew := m.Begin()
	h.View(tid, func(v *storage.Version) {
		if got, _ := rOld.VisibleRow(v); got[0].Int() != 10 {
			t.Errorf("old snapshot sees %v, want 10", got)
		}
		if got, _ := rNew.VisibleRow(v); got[0].Int() != 20 {
			t.Errorf("new snapshot sees %v, want 20", got)
		}
	})
	rOld.Abort()
	rNew.Abort()
}

func TestDeleteVisibility(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)
	w := m.Begin()
	tid := h.Insert(w.ID(), row(5))
	w.Commit()

	rBefore := m.Begin()
	d := m.Begin()
	h.Mutate(tid, func(s storage.Slot) error { return s.SetXMax(d.ID()) })
	// Deleter no longer sees the row.
	h.View(tid, func(v *storage.Version) {
		if _, ok := d.VisibleRow(v); ok {
			t.Error("deleter still sees its deleted row")
		}
	})
	d.Commit()

	rAfter := m.Begin()
	h.View(tid, func(v *storage.Version) {
		if _, ok := rBefore.VisibleRow(v); !ok {
			t.Error("pre-delete snapshot should still see the row")
		}
		if _, ok := rAfter.VisibleRow(v); ok {
			t.Error("post-delete snapshot should not see the row")
		}
	})
	rBefore.Abort()
	rAfter.Abort()
}

func TestCheckWritable(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)
	w := m.Begin()
	tid := h.Insert(w.ID(), row(1))
	w.Commit()

	// t1 snapshots, then t2 updates and commits, then t1 tries to write.
	t1 := m.Begin()
	t2 := m.Begin()
	h.Mutate(tid, func(s storage.Slot) error {
		ok, err := t2.CheckWritable(s.Head())
		if !ok || err != nil {
			t.Fatalf("t2 should be able to write: %v %v", ok, err)
		}
		s.Push(t2.ID(), row(2))
		return nil
	})
	t2.Commit()

	h.Mutate(tid, func(s storage.Slot) error {
		ok, err := t1.CheckWritable(s.Head())
		if ok || !errors.Is(err, ErrSerialization) {
			t.Errorf("first-updater-wins violated: ok=%v err=%v", ok, err)
		}
		return nil
	})
	t1.Abort()

	// A fresh txn can write the new head.
	t3 := m.Begin()
	h.Mutate(tid, func(s storage.Slot) error {
		ok, err := t3.CheckWritable(s.Head())
		if !ok || err != nil {
			t.Errorf("t3 should write cleanly: %v %v", ok, err)
		}
		return nil
	})
	t3.Abort()
}

func TestOnAbortUndoOrderAndOnCommit(t *testing.T) {
	m := NewManager()
	var order []int
	tx := m.Begin()
	tx.OnAbort(func() { order = append(order, 1) })
	tx.OnAbort(func() { order = append(order, 2) })
	tx.Abort()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("undo order = %v, want [2 1]", order)
	}

	committed := false
	tx2 := m.Begin()
	tx2.OnCommit(func() { committed = true })
	tx2.Commit()
	if !committed {
		t.Error("OnCommit did not run")
	}

	// Finished txns refuse further work.
	if err := tx2.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
	tx2.Abort() // no-op, must not panic
	if err := tx2.Lock(LockKey{}); !errors.Is(err, ErrTxnDone) {
		t.Errorf("lock after commit: %v", err)
	}
}

func TestOldestActiveSnapshotAndPrune(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	aSnap := a.Snapshot().Seq
	b := m.Begin()
	b.Commit()
	if m.OldestActiveSnapshot() != aSnap {
		t.Errorf("OldestActiveSnapshot = %d, want %d", m.OldestActiveSnapshot(), aSnap)
	}
	if m.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d", m.ActiveCount())
	}
	a.Commit()
	horizon := m.CurrentSeq()
	pruned := m.PruneStates(horizon)
	if pruned < 2 {
		t.Errorf("pruned %d states, want >= 2", pruned)
	}
	// Pruned committed txns are still reported committed.
	if m.StatusOf(a.ID()) != StatusCommitted {
		t.Error("pruned txn should report committed")
	}
}

func TestStatusString(t *testing.T) {
	if StatusActive.String() != "active" || StatusCommitted.String() != "committed" ||
		StatusAborted.String() != "aborted" || Status(9).String() != "unknown" {
		t.Error("Status.String() labels wrong")
	}
}

// TestSnapshotIsolationInvariant runs concurrent transfer transactions
// between two "accounts" and checks that every reader sees a constant total —
// the classic SI invariant.
func TestSnapshotIsolationInvariant(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)
	setup := m.Begin()
	acctA := h.Insert(setup.ID(), row(500))
	acctB := h.Insert(setup.ID(), row(500))
	setup.Commit()

	readRow := func(tx *Txn, tid storage.TID) (int64, bool) {
		var v int64
		var ok bool
		h.View(tid, func(head *storage.Version) {
			var r types.Row
			r, ok = tx.VisibleRow(head)
			if ok {
				v = r[0].Int()
			}
		})
		return v, ok
	}

	// transfer moves amount from A to B in one transaction; reports commit.
	transfer := func(amount int64) bool {
		tx := m.Begin()
		for _, tid := range []storage.TID{acctA, acctB} {
			if err := tx.Lock(LockKey{Space: 1, A: uint64(tid.Page), B: uint64(tid.Slot)}); err != nil {
				tx.Abort()
				return false
			}
		}
		for i, tid := range []storage.TID{acctA, acctB} {
			delta := amount
			if i == 0 {
				delta = -amount
			}
			tid := tid
			err := h.Mutate(tid, func(s storage.Slot) error {
				ok, err := tx.CheckWritable(s.Head())
				if err != nil || !ok {
					return ErrSerialization
				}
				s.Push(tx.ID(), row(s.Head().Row[0].Int()+delta))
				return nil
			})
			if err != nil {
				tx.Abort()
				return false
			}
			tx.OnAbort(func() {
				h.Mutate(tid, func(sl storage.Slot) error {
					sl.Pop(tx.ID())
					return nil
				})
			})
		}
		tx.Commit()
		return true
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(amount int64) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				transfer(amount)
			}
		}(int64(w + 1))
	}

	stop := make(chan struct{})
	readerErr := make(chan error, 2)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := m.Begin()
				a, okA := readRow(tx, acctA)
				b, okB := readRow(tx, acctB)
				tx.Abort()
				if !okA || !okB {
					readerErr <- errors.New("row disappeared")
					return
				}
				if a+b != 1000 {
					readerErr <- errors.New("invariant broken: total != 1000")
					return
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
}

// A migration pass scans, claims, then reads: after Resnapshot the read must
// see a commit that landed between Begin and the claim.
func TestResnapshotSeesEarlierCommits(t *testing.T) {
	m := NewManager()
	h := storage.NewHeap(0)

	r := m.Begin()
	w := m.Begin()
	tid := h.Insert(w.ID(), row(5))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	visible := func() bool {
		var ok bool
		h.View(tid, func(v *storage.Version) { _, ok = r.VisibleRow(v) })
		return ok
	}
	if visible() {
		t.Fatal("commit after Begin visible before Resnapshot")
	}
	if err := r.Resnapshot(); err != nil {
		t.Fatal(err)
	}
	if !visible() {
		t.Error("commit before Resnapshot not visible")
	}
	if got, want := m.OldestActiveSnapshot(), m.CurrentSeq(); got != want {
		t.Errorf("vacuum horizon = %d, want %d", got, want)
	}

	r.AppendRedo(wal.Record{Type: wal.RecInsert})
	if err := r.Resnapshot(); err == nil {
		t.Error("Resnapshot after a write succeeded")
	}
	r.Abort()
	if err := r.Resnapshot(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Resnapshot on a finished txn: %v", err)
	}
}
