package txn

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/obs/trace"
)

// ErrLockTimeout is returned when a lock cannot be acquired before the
// deadline. Timeouts double as deadlock resolution: the timed-out transaction
// aborts and retries, breaking any cycle.
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// LockKey identifies a lockable object. Space distinguishes tables and
// indexes; A/B carry the tuple TID or a key hash.
type LockKey struct {
	Space uint64
	A, B  uint64
}

const lockShardCount = 128

type lockEntry struct {
	owner    uint64
	released chan struct{} // closed when the owner releases
}

type lockShard struct {
	mu    sync.Mutex
	locks map[LockKey]*lockEntry
}

// LockTable is a sharded table of exclusive locks keyed by LockKey. Locks are
// owned by transaction ids and held until explicitly released (normally at
// transaction end). Create with NewLockTable.
type LockTable struct {
	shards [lockShardCount]lockShard
}

// NewLockTable returns an initialized lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	for i := range lt.shards {
		lt.shards[i].locks = make(map[LockKey]*lockEntry)
	}
	return lt
}

func (lt *LockTable) shardFor(k LockKey) *lockShard {
	h := k.Space*0x9E3779B97F4A7C15 ^ k.A*0xBF58476D1CE4E5B9 ^ k.B*0x94D049BB133111EB
	return &lt.shards[h%lockShardCount]
}

// Acquire obtains the exclusive lock for key on behalf of xid, waiting up to
// timeout. Re-acquiring a lock already held by xid succeeds immediately.
func (lt *LockTable) Acquire(xid uint64, key LockKey, timeout time.Duration) error {
	return lt.AcquireContext(nil, xid, key, timeout)
}

// AcquireContext is Acquire bounded by a context: a waiter parked in the lock
// queue wakes as soon as ctx is done and returns context.Cause(ctx) — not
// ErrLockTimeout, so callers can tell cancellation from deadlock resolution.
// A nil ctx waits with only the timeout bound. Cancellation never perturbs
// the queue: a cancelled waiter held nothing, and the owner's release channel
// still wakes every remaining waiter.
func (lt *LockTable) AcquireContext(ctx context.Context, xid uint64, key LockKey, timeout time.Duration) error {
	_, err := lt.acquire(ctx, xid, key, timeout)
	return err
}

// acquire is AcquireContext that also reports whether the lock was newly
// taken, as opposed to already held by xid.
func (lt *LockTable) acquire(ctx context.Context, xid uint64, key LockKey, timeout time.Duration) (fresh bool, err error) {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, context.Cause(ctx)
		}
		done = ctx.Done()
	}
	s := lt.shardFor(key)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		s.mu.Lock()
		e := s.locks[key]
		if e == nil {
			s.locks[key] = &lockEntry{owner: xid, released: make(chan struct{})}
			s.mu.Unlock()
			return true, nil
		}
		if e.owner == xid {
			s.mu.Unlock()
			return false, nil
		}
		ch := e.released
		s.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
		}
		select {
		case <-ch:
			// Owner released; loop and retry.
		case <-timer.C:
			return false, ErrLockTimeout
		case <-done:
			return false, context.Cause(ctx)
		}
	}
}

// TryAcquire obtains the lock only if it is free (or already ours),
// reporting success.
func (lt *LockTable) TryAcquire(xid uint64, key LockKey) bool {
	ok, _ := lt.tryAcquire(xid, key)
	return ok
}

// tryAcquire is TryAcquire that also reports whether the lock was newly
// taken.
func (lt *LockTable) tryAcquire(xid uint64, key LockKey) (ok, fresh bool) {
	s := lt.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.locks[key]
	if e == nil {
		s.locks[key] = &lockEntry{owner: xid, released: make(chan struct{})}
		return true, true
	}
	return e.owner == xid, false
}

// Release frees the lock if xid owns it, waking all waiters.
func (lt *LockTable) Release(xid uint64, key LockKey) {
	s := lt.shardFor(key)
	s.mu.Lock()
	e := s.locks[key]
	if e != nil && e.owner == xid {
		delete(s.locks, key)
		close(e.released)
	}
	s.mu.Unlock()
}

// Owner reports the current owner of the key's lock, or 0.
func (lt *LockTable) Owner(key LockKey) uint64 {
	s := lt.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.locks[key]; e != nil {
		return e.owner
	}
	return 0
}

// DefaultLockTimeout is how long a transaction waits for a row or key lock
// before giving up (and typically aborting). It bounds deadlock stalls.
const DefaultLockTimeout = 250 * time.Millisecond

// Lock acquires key for the transaction through the manager's shared lock
// table, registering it for release at transaction end.
func (t *Txn) Lock(key LockKey) error {
	return t.LockTimeout(key, DefaultLockTimeout)
}

// LockTimeout is Lock with an explicit wait bound. Contended acquisitions
// feed the lock-wait histogram; the uncontended fast path records nothing.
// The wait is additionally bounded by the transaction's statement context
// (SetContext): a cancelled statement stops waiting in the lock queue
// immediately, returning the context's cause.
func (t *Txn) LockTimeout(key LockKey, timeout time.Duration) error {
	if t.done {
		return ErrTxnDone
	}
	if ok, fresh := t.m.locks.tryAcquire(t.id, key); ok {
		t.registerLock(key, fresh)
		return nil
	}
	start := time.Now()
	fresh, err := t.m.locks.acquire(t.ctx, t.id, key, timeout)
	d := time.Since(start)
	t.m.metrics.LockWait.Observe(int64(d))
	if sp := trace.FromContext(t.ctx); sp != nil {
		sp.Add(trace.PhaseLockWait, d)
	}
	if err != nil {
		if errors.Is(err, ErrLockTimeout) {
			t.m.metrics.LockTimeouts.Inc()
		}
		return err
	}
	t.registerLock(key, fresh)
	return nil
}

// TryLock acquires the key only if free, registering it on success.
func (t *Txn) TryLock(key LockKey) bool {
	if t.done {
		return false
	}
	ok, fresh := t.m.locks.tryAcquire(t.id, key)
	if ok {
		t.registerLock(key, fresh)
	}
	return ok
}

// registerLock records a lock for release at transaction end. Every lock a
// transaction holds is taken through it, so a lock it already held (fresh
// false) is already recorded: skipping it keeps registration constant-time
// instead of a scan of every lock the transaction holds, which made a
// transaction's cost quadratic in the rows it writes.
func (t *Txn) registerLock(key LockKey, fresh bool) {
	if fresh {
		t.lockKeys = append(t.lockKeys, key)
	}
}

// Locks exposes the manager's lock table (used by the engine's unique-key
// arbitration and by tests).
func (m *Manager) Locks() *LockTable { return m.locks }
