// Package txn implements snapshot-isolation transaction management: begin /
// commit / abort, commit-sequence snapshots, MVCC visibility over storage
// version chains, and a sharded lock table with timeout-based deadlock
// resolution.
//
// BullFrog's migration machinery (paper §3.2) runs each unit of migration
// work in its own transaction, separate from the client transaction, so this
// package is exercised heavily by internal/core.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// Status is a transaction's lifecycle state.
type Status uint8

// Transaction statuses.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ErrTxnDone is returned when operating on a finished transaction.
var ErrTxnDone = errors.New("txn: transaction already finished")

// ErrSerialization is returned on a first-updater-wins write-write conflict;
// the client should retry the transaction.
var ErrSerialization = errors.New("txn: could not serialize access due to concurrent update")

const stateShards = 64

type txnState struct {
	status    Status
	commitSeq uint64
}

type stateShard struct {
	mu     sync.RWMutex
	states map[uint64]txnState
}

// Manager coordinates transactions. The zero value is not usable; call
// NewManager.
type Manager struct {
	nextID    atomic.Uint64
	commitSeq atomic.Uint64
	commitMu  sync.Mutex // serializes commit-sequence assignment with status publication

	shards [stateShards]stateShard
	locks  *LockTable

	metrics *obs.TxnMetrics

	activeMu sync.Mutex
	active   map[uint64]uint64 // txn id -> snapshot seq, for the vacuum horizon
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	m := &Manager{active: make(map[uint64]uint64), locks: NewLockTable(), metrics: &obs.TxnMetrics{}}
	for i := range m.shards {
		m.shards[i].states = make(map[uint64]txnState)
	}
	return m
}

// Obs returns the manager's transaction metrics. Never nil.
func (m *Manager) Obs() *obs.TxnMetrics { return m.metrics }

func (m *Manager) shardFor(xid uint64) *stateShard {
	return &m.shards[xid%stateShards]
}

func (m *Manager) setState(xid uint64, st txnState) {
	s := m.shardFor(xid)
	s.mu.Lock()
	s.states[xid] = st
	s.mu.Unlock()
}

func (m *Manager) state(xid uint64) (txnState, bool) {
	s := m.shardFor(xid)
	s.mu.RLock()
	st, ok := s.states[xid]
	s.mu.RUnlock()
	return st, ok
}

// StatusOf reports a transaction's status. Unknown ids (e.g. pruned history)
// report committed, since pruning only removes durably committed history.
func (m *Manager) StatusOf(xid uint64) Status {
	st, ok := m.state(xid)
	if !ok {
		return StatusCommitted
	}
	return st.status
}

// committedBefore reports whether xid committed with sequence <= seq.
func (m *Manager) committedBefore(xid, seq uint64) bool {
	st, ok := m.state(xid)
	if !ok {
		return true // pruned: committed before any live snapshot
	}
	return st.status == StatusCommitted && st.commitSeq <= seq
}

// Snapshot captures a visibility horizon: all transactions that committed
// with sequence <= Seq are visible.
type Snapshot struct {
	Seq uint64
}

// Txn is a single transaction handle. It is not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	m       *Manager
	id      uint64
	snap    Snapshot
	done    bool
	aborted bool

	// ctx is the statement context bounding this transaction's blocking waits
	// (lock-queue parking in LockTimeout). nil means no cancellation bound.
	// Set per statement by the engine's ExecPreparedContext; because a Txn is
	// single-goroutine by contract, no synchronization is needed.
	ctx context.Context

	lockKeys []LockKey
	undo     []func() // run in reverse order on abort
	onCommit []func() // run after the transaction becomes visible

	// redo buffers the transaction's WAL records until commit: the engine
	// appends the whole batch (plus the commit record) to the log in one
	// atomic, durable write, so aborted transactions never reach the log and
	// recovery replays in a single pass. Single-goroutine like the Txn.
	redo []wal.Record
}

// AppendRedo buffers a redo record for commit-time logging.
func (t *Txn) AppendRedo(rec wal.Record) { t.redo = append(t.redo, rec) }

// TakeRedo returns the buffered redo records and clears the buffer; the
// engine calls this once at commit.
func (t *Txn) TakeRedo() []wal.Record {
	r := t.redo
	t.redo = nil
	return r
}

// Begin starts a new transaction with a fresh snapshot.
func (m *Manager) Begin() *Txn {
	id := m.nextID.Add(1)
	snap := Snapshot{Seq: m.commitSeq.Load()}
	m.setState(id, txnState{status: StatusActive})
	m.activeMu.Lock()
	m.active[id] = snap.Seq
	m.activeMu.Unlock()
	m.metrics.Begins.Inc()
	return &Txn{m: m, id: id, snap: snap}
}

// Resnapshot moves the transaction's snapshot up to the current commit
// sequence, as if it had begun now. It is for a transaction that has read
// only to decide what to claim (a migration pass claims granules, then
// reads them): the read after the claim must see every commit that
// preceded the claim. Locks taken so far are kept. It fails once the
// transaction has written, since its writes were checked against the old
// snapshot.
func (t *Txn) Resnapshot() error {
	if t.done {
		return ErrTxnDone
	}
	if len(t.undo) > 0 || len(t.redo) > 0 {
		return errors.New("txn: resnapshot after write")
	}
	t.m.activeMu.Lock()
	t.snap = Snapshot{Seq: t.m.commitSeq.Load()}
	t.m.active[t.id] = t.snap.Seq
	t.m.activeMu.Unlock()
	return nil
}

// ID returns the transaction id (xid). IDs start at 1; 0 is never a valid
// xid, so storage uses 0 as "no transaction".
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the transaction's visibility snapshot.
func (t *Txn) Snapshot() Snapshot { return t.snap }

// Manager returns the owning manager.
func (t *Txn) Manager() *Manager { return t.m }

// SetContext installs ctx as the transaction's statement context — the
// cancellation bound for its blocking waits (see LockTimeout) — and returns
// the previous one so callers can scope the context to a single statement:
//
//	prev := tx.SetContext(ctx)
//	defer tx.SetContext(prev)
//
// A nil ctx removes the bound. Like every Txn method, it must only be called
// from the transaction's own goroutine.
func (t *Txn) SetContext(ctx context.Context) context.Context {
	prev := t.ctx
	t.ctx = ctx
	return prev
}

// Context returns the transaction's statement context (nil when unbounded).
func (t *Txn) Context() context.Context { return t.ctx }

// Done reports whether the transaction has committed or aborted.
func (t *Txn) Done() bool { return t.done }

// Aborted reports whether the transaction ended in abort.
func (t *Txn) Aborted() bool { return t.aborted }

// OnAbort registers an undo action, run in reverse registration order if the
// transaction aborts.
func (t *Txn) OnAbort(f func()) { t.undo = append(t.undo, f) }

// OnCommit registers an action run immediately after the transaction commits
// (becomes visible).
func (t *Txn) OnCommit(f func()) { t.onCommit = append(t.onCommit, f) }

// Commit makes the transaction's effects visible to later snapshots and
// releases its locks.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.m.commitMu.Lock()
	seq := t.m.commitSeq.Load() + 1
	t.m.setState(t.id, txnState{status: StatusCommitted, commitSeq: seq})
	t.m.commitSeq.Store(seq)
	t.m.commitMu.Unlock()
	t.m.metrics.Commits.Inc()
	t.finish()
	for _, f := range t.onCommit {
		f()
	}
	return nil
}

// Abort rolls back the transaction: undo actions run in reverse order, then
// the transaction is marked aborted and locks are released.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.m.setState(t.id, txnState{status: StatusAborted})
	t.aborted = true
	t.m.metrics.Aborts.Inc()
	t.finish()
}

func (t *Txn) finish() {
	t.done = true
	t.m.activeMu.Lock()
	delete(t.m.active, t.id)
	t.m.activeMu.Unlock()
	for _, k := range t.lockKeys {
		t.m.locks.Release(t.id, k)
	}
	t.lockKeys = nil
	t.undo = nil
	t.redo = nil
}

// OldestActiveSnapshot returns the smallest snapshot sequence among active
// transactions, or the current commit sequence when none are active. Versions
// dead before this horizon can be vacuumed.
func (m *Manager) OldestActiveSnapshot() uint64 {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	min := m.commitSeq.Load()
	for _, seq := range m.active {
		if seq < min {
			min = seq
		}
	}
	return min
}

// CurrentSeq returns the latest commit sequence.
func (m *Manager) CurrentSeq() uint64 { return m.commitSeq.Load() }

// InstallBarrier reserves the next commit sequence for a non-transactional
// publication (a catalog version install), runs publish(seq) while holding
// the commit mutex so no transaction can commit at or after seq until
// publish returns, then consumes seq. The effect: every snapshot taken
// before the barrier sees the world without the publication, every snapshot
// taken after sees it — the versioned-catalog equivalent of a schema flip at
// a commit timestamp. publish must not block (no I/O, no lock waits); on
// error the sequence is not consumed and the error is returned.
func (m *Manager) InstallBarrier(publish func(seq uint64) error) (uint64, error) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	seq := m.commitSeq.Load() + 1
	if err := publish(seq); err != nil {
		return 0, err
	}
	m.commitSeq.Store(seq)
	return seq, nil
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	return len(m.active)
}

// --- MVCC visibility ---

// visibleCreated reports whether a version's creator is visible to the txn.
func (t *Txn) visibleCreated(v *storage.Version) bool {
	return v.XMin == t.id || t.m.committedBefore(v.XMin, t.snap.Seq)
}

// visibleDeleted reports whether a version's deletion is visible to the txn.
func (t *Txn) visibleDeleted(v *storage.Version) bool {
	if v.XMax == 0 {
		return false
	}
	return v.XMax == t.id || t.m.committedBefore(v.XMax, t.snap.Seq)
}

// VisibleRow walks a version chain (newest first) and returns the row
// visible under the transaction's snapshot, or ok=false if the logical tuple
// does not exist for this transaction. Must be called under the page latch
// (i.e. inside heap View/Mutate/Scan callbacks).
func (t *Txn) VisibleRow(head *storage.Version) (types.Row, bool) {
	for v := head; v != nil; v = v.Next {
		if !t.visibleCreated(v) {
			continue
		}
		if t.visibleDeleted(v) {
			return nil, false
		}
		return v.Row, true
	}
	return nil, false
}

// CheckWritable verifies the head version can be updated or deleted by this
// transaction under first-updater-wins rules, assuming the tuple's write
// lock is already held. It returns ErrSerialization when a concurrent
// transaction committed a newer version after our snapshot, and ok=false
// (no error) when the tuple is invisible or already deleted for us.
func (t *Txn) CheckWritable(head *storage.Version) (bool, error) {
	_, ok := t.VisibleRow(head)
	if !ok {
		// Distinguish "never existed for us" from "someone newer touched it".
		if head.XMin != t.id && !t.m.committedBefore(head.XMin, t.snap.Seq) && t.m.StatusOf(head.XMin) == StatusCommitted {
			t.m.metrics.WriteConflicts.Inc()
			return false, ErrSerialization
		}
		if head.XMax != 0 && head.XMax != t.id && t.m.StatusOf(head.XMax) == StatusCommitted && !t.m.committedBefore(head.XMax, t.snap.Seq) {
			t.m.metrics.WriteConflicts.Inc()
			return false, ErrSerialization
		}
		return false, nil
	}
	// Visible, but only the head version may be written: if the visible
	// version is not the head, the head was written after our snapshot.
	if head.XMin != t.id && !t.m.committedBefore(head.XMin, t.snap.Seq) {
		t.m.metrics.WriteConflicts.Inc()
		return false, ErrSerialization
	}
	// The head is visible but a deletion committed after our snapshot: the
	// row is gone for every later writer, so this is a write-write conflict.
	if head.XMax != 0 && head.XMax != t.id && t.m.StatusOf(head.XMax) == StatusCommitted {
		t.m.metrics.WriteConflicts.Inc()
		return false, ErrSerialization
	}
	return true, nil
}

// CommittedAtOrBefore reports whether xid committed with sequence <= seq.
// Unknown (pruned) ids report true, since pruning only removes history below
// every live horizon.
func (m *Manager) CommittedAtOrBefore(xid, seq uint64) bool {
	return m.committedBefore(xid, seq)
}

// PruneStates drops state entries for transactions that finished and whose
// outcome can no longer matter: committed entries below the oldest active
// snapshot are only needed until their versions are stamped/vacuumed, so this
// should be called by vacuum after chains are pruned. Aborted entries are
// kept (their versions may still exist until vacuumed) unless force is set.
func (m *Manager) PruneStates(horizon uint64) (pruned int) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for xid, st := range s.states {
			if st.status == StatusCommitted && st.commitSeq <= horizon {
				delete(s.states, xid)
				pruned++
			}
		}
		s.mu.Unlock()
	}
	return pruned
}

// String describes the txn for debugging.
func (t *Txn) String() string {
	return fmt.Sprintf("txn(%d, snap=%d, done=%v)", t.id, t.snap.Seq, t.done)
}
