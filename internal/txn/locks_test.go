package txn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockAcquireReleaseReentrant(t *testing.T) {
	lt := NewLockTable()
	key := LockKey{Space: 1, A: 2, B: 3}
	if err := lt.Acquire(10, key, time.Second); err != nil {
		t.Fatal(err)
	}
	// Reentrant.
	if err := lt.Acquire(10, key, time.Second); err != nil {
		t.Fatal(err)
	}
	if lt.Owner(key) != 10 {
		t.Errorf("Owner = %d", lt.Owner(key))
	}
	// Another txn times out.
	if err := lt.Acquire(11, key, 10*time.Millisecond); !errors.Is(err, ErrLockTimeout) {
		t.Errorf("expected timeout, got %v", err)
	}
	lt.Release(10, key)
	if lt.Owner(key) != 0 {
		t.Error("lock not released")
	}
	if err := lt.Acquire(11, key, time.Second); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
}

func TestReleaseByNonOwnerIsNoOp(t *testing.T) {
	lt := NewLockTable()
	key := LockKey{Space: 1}
	lt.Acquire(1, key, time.Second)
	lt.Release(2, key)
	if lt.Owner(key) != 1 {
		t.Error("non-owner release changed ownership")
	}
	lt.Release(1, key)
}

func TestTryAcquire(t *testing.T) {
	lt := NewLockTable()
	key := LockKey{Space: 5}
	if !lt.TryAcquire(1, key) {
		t.Error("TryAcquire on free lock should succeed")
	}
	if !lt.TryAcquire(1, key) {
		t.Error("TryAcquire re-entrant should succeed")
	}
	if lt.TryAcquire(2, key) {
		t.Error("TryAcquire on held lock should fail")
	}
}

func TestLockHandoffUnderContention(t *testing.T) {
	lt := NewLockTable()
	key := LockKey{Space: 9}
	var counter int64
	var inCrit atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= 16; w++ {
		wg.Add(1)
		go func(xid uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := lt.Acquire(xid, key, 5*time.Second); err != nil {
					t.Error(err)
					return
				}
				if inCrit.Add(1) != 1 {
					t.Error("mutual exclusion violated")
				}
				counter++
				inCrit.Add(-1)
				lt.Release(xid, key)
			}
		}(uint64(w))
	}
	wg.Wait()
	if counter != 16*50 {
		t.Errorf("counter = %d, want %d", counter, 16*50)
	}
}

func TestTxnLockReleasedAtEnd(t *testing.T) {
	m := NewManager()
	key := LockKey{Space: 2, A: 7}
	t1 := m.Begin()
	if err := t1.Lock(key); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if t2.TryLock(key) {
		t.Error("t2 should not get t1's lock")
	}
	t1.Commit()
	if !t2.TryLock(key) {
		t.Error("t2 should get the lock after t1 commits")
	}
	t2.Abort()
	if m.Locks().Owner(key) != 0 {
		t.Error("abort should release locks")
	}
}

func TestTxnLockBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	key := LockKey{Space: 3}
	t1 := m.Begin()
	t1.Lock(key)
	acquired := make(chan struct{})
	t2 := m.Begin()
	go func() {
		if err := t2.LockTimeout(key, 5*time.Second); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("t2 acquired while t1 held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	t1.Abort()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("t2 never acquired after release")
	}
	t2.Abort()
}

func TestTryLockRegistersForRelease(t *testing.T) {
	m := NewManager()
	key := LockKey{Space: 4}
	tx := m.Begin()
	if !tx.TryLock(key) || !tx.TryLock(key) {
		t.Fatal("TryLock should succeed")
	}
	tx.Abort()
	if m.Locks().Owner(key) != 0 {
		t.Error("TryLock'd key not released at abort")
	}
	done := m.Begin()
	done.Commit()
	if done.TryLock(key) {
		t.Error("TryLock on finished txn should fail")
	}
}

// TestRelockRegistersOnce: a transaction that locks the same keys again
// records each lock once and releases every one at its end.
func TestRelockRegistersOnce(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 100; i++ {
			if err := tx.Lock(LockKey{Space: 1, A: i}); err != nil {
				t.Fatal(err)
			}
			if !tx.TryLock(LockKey{Space: 2, A: i}) {
				t.Fatal("TryLock of a free key failed")
			}
		}
	}
	if len(tx.lockKeys) != 200 {
		t.Errorf("registered %d locks, want 200", len(tx.lockKeys))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	other := m.Begin()
	defer other.Abort()
	for i := uint64(0); i < 100; i++ {
		if !other.TryLock(LockKey{Space: 1, A: i}) || !other.TryLock(LockKey{Space: 2, A: i}) {
			t.Fatalf("key %d still held after commit", i)
		}
	}
}
