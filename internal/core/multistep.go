package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// MultiStep implements the multi-step migration baseline of §4: the schema
// change is registered ahead of time, a background copier synchronizes the
// new schema, and writes performed during the window are propagated to both
// schemas ("reads are served from the old schema, while writes go to both
// schemas"). When the copier catches up, the system switches over.
//
// The write-propagation protocol avoids the lost-update race: the copier
// claims a granule/group (in-progress) before it takes the snapshot it
// reads with (Txn.Resnapshot after the claim loop), and a writer checks the
// tracker state only after its old-schema commit. If the
// state is still not-started, any later copy begins after the commit and
// sees it; if in-progress or copied, the writer waits (if needed) and then
// recomputes the affected output rows from current old-schema state.
type MultiStep struct {
	ctrl     *Controller
	bg       *Background
	mig      *Migration
	switched atomic.Bool
	// ctx is cancelled by Stop so an in-flight Switch catch-up drain cannot
	// outlive an abandoned migration.
	ctx    context.Context
	cancel context.CancelFunc
}

// StartMultiStep registers the migration and immediately starts the copier
// (the paper notes multi-step background threads start at migration time,
// unlike BullFrog's delayed background process). ctx is the parent of the
// migration's lifetime context — pass the DB's close context so Switch
// drains die with the database; nil falls back to an unbounded root. Stop
// still cancels the migration's own context either way.
func StartMultiStep(ctx context.Context, db *engine.DB, m *Migration) (*MultiStep, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	shadow := *m
	shadow.RetireInputs = nil // inputs stay live until the switch
	shadow.DropInputsOnComplete = false
	ctrl := NewController(db, DetectEarly)
	ctrl.shadow = true
	if err := ctrl.Start(&shadow); err != nil {
		return nil, err
	}
	ms := &MultiStep{ctrl: ctrl, mig: m}
	ms.ctx, ms.cancel = context.WithCancel(ctx)
	ms.bg = NewBackground(ctrl, 0)
	// The copier is paced by default: a real multi-step migration deliberately
	// trickles the copy to bound its impact, which is also what makes its
	// window long enough for dual-write amplification to show (paper §4.1:
	// multi-step takes longer than lazy migration to complete).
	ms.bg.ChunkGranules = 32
	ms.bg.ChunkTuples = 2048
	ms.bg.Interval = 2 * time.Millisecond
	ms.bg.Start()
	return ms, nil
}

// Copier exposes the background copier for pacing adjustments.
func (ms *MultiStep) Copier() *Background { return ms.bg }

// Controller exposes the underlying trackers (stats, tests).
func (ms *MultiStep) Controller() *Controller { return ms.ctrl }

// Complete reports whether the copier has fully synchronized the new schema.
func (ms *MultiStep) Complete() bool { return ms.ctrl.Complete() }

// CompletedAt reports when the copy finished.
func (ms *MultiStep) CompletedAt() time.Time { return ms.ctrl.CompletedAt() }

// Stop halts the copier and cancels any in-flight Switch drain (e.g. to
// abandon the migration).
func (ms *MultiStep) Stop() {
	ms.cancel()
	ms.bg.Stop()
}

// Switched reports whether the switch-over happened.
func (ms *MultiStep) Switched() bool { return ms.switched.Load() }

// Switch performs the cut-over once the copy is complete: a final catch-up
// pass covers anything committed after the copier's last sweep (the caller
// must have quiesced client writes, e.g. by holding the Gate exclusively —
// this is the "lock the source table briefly" step of multi-step tools),
// then old tables are retired and the application flips to new-schema
// transactions.
func (ms *MultiStep) Switch() error {
	if !ms.Complete() {
		return fmt.Errorf("core: multi-step switch before copy completed")
	}
	ms.bg.Stop()
	for _, rt := range ms.ctrl.Runtimes() {
		if err := rt.CatchUp(ms.ctx); err != nil {
			return fmt.Errorf("core: multi-step final catch-up: %w", err)
		}
	}
	for _, name := range ms.mig.RetireInputs {
		tbl, err := ms.ctrl.db.Catalog().Table(name)
		if err != nil {
			return err
		}
		tbl.SetRetired(true)
		if ms.mig.DropInputsOnComplete {
			if err := ms.ctrl.db.Catalog().DropTable(name); err != nil {
				return err
			}
		}
	}
	// Retires and drops bypassed the SQL DDL path; drop stale cached plans.
	ms.ctrl.db.InvalidatePlans()
	ms.switched.Store(true)
	return nil
}

// NoteWrite propagates a committed old-schema write into the new schema.
// The application calls it after committing a transaction that wrote the
// given tuples of the named input table. It blocks while the copier holds
// the affected granules/groups and then recomputes their output rows.
func (ms *MultiStep) NoteWrite(table string, tids []storage.TID, rows []types.Row) error {
	if ms.switched.Load() {
		return nil
	}
	for _, rt := range ms.ctrl.Runtimes() {
		// Writes to the secondary input of a join statement (e.g. stock)
		// also invalidate copied groups; the group key is derived from the
		// secondary table's own group columns.
		if rt.seedTbl != nil && norm(rt.seedTbl.Def.Name) == norm(table) {
			seen := map[string]bool{}
			for _, row := range rows {
				key := make(types.Row, len(rt.seedOrds))
				for i, ord := range rt.seedOrds {
					key[i] = row[ord]
				}
				k := types.EncodeKey(nil, key)
				if seen[string(k)] {
					continue
				}
				seen[string(k)] = true
				if err := ms.propagateGroup(rt, k); err != nil {
					return err
				}
			}
			continue
		}
		if norm(rt.drivingTbl.Def.Name) != norm(table) {
			continue
		}
		if rt.bitmap != nil {
			seen := map[int64]bool{}
			for _, tid := range tids {
				g := rt.bitmap.GranuleOf(tid.Ordinal(rt.drivingTbl.Heap.PageSize()))
				if seen[g] {
					continue
				}
				seen[g] = true
				if err := ms.propagateGranule(rt, g); err != nil {
					return err
				}
			}
		} else {
			seen := map[string]bool{}
			for _, row := range rows {
				k := rt.groupKeyOf(row)
				if seen[string(k)] {
					continue
				}
				seen[string(k)] = true
				if err := ms.propagateGroup(rt, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// retryTransient re-runs f until it succeeds or fails with a non-transient
// error. Propagation runs AFTER the client transaction committed, so a
// serialization conflict or lock timeout must never bubble up to the client
// (a driver retry would re-execute an already-committed transaction).
func (ms *MultiStep) retryTransient(f func() error) error {
	deadline := time.Now().Add(5 * time.Second)
	backoff := ms.ctrl.backoff
	for {
		err := f()
		if err == nil {
			return nil
		}
		if !errors.Is(err, txn.ErrSerialization) && !errors.Is(err, txn.ErrLockTimeout) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: dual-write propagation starved: %w", err)
		}
		time.Sleep(backoff)
		if backoff < 10*time.Millisecond {
			backoff *= 2
		}
	}
}

// propagateGranule waits out an in-flight copy of the granule and, if it has
// been copied, recomputes its output rows from current old-schema state.
func (ms *MultiStep) propagateGranule(rt *StmtRuntime, g int64) error {
	for {
		switch rt.bitmap.state(g) {
		case stateNone:
			return nil // not yet copied: the copier will read post-commit state
		case stateInProgress:
			time.Sleep(ms.ctrl.backoff)
			continue
		case stateMigrated:
			return ms.retryTransient(func() error { return ms.recomputeGranule(rt, g) })
		}
	}
}

func (ms *MultiStep) propagateGroup(rt *StmtRuntime, key []byte) error {
	for {
		switch rt.hash.TryClaim(key) {
		case Busy:
			time.Sleep(ms.ctrl.backoff)
			continue
		case Done:
			return ms.retryTransient(func() error { return ms.recomputeGroup(rt, key) })
		case Claimed:
			// Not copied yet (we accidentally claimed it): undo the claim
			// and let the copier handle it later with post-commit state.
			rt.hash.ReleaseAbort(key)
			return nil
		}
	}
}

// recomputeGranule deletes the output rows derived from the granule's
// driving tuples and re-runs the transform — the "write goes to both
// schemas" half of multi-step migration. Recomputations of the same granule
// serialize on a lock-table key.
func (ms *MultiStep) recomputeGranule(rt *StmtRuntime, g int64) error {
	tx := rt.ctrl.beginMigTxn(ms.ctx)
	defer func() {
		if !tx.Done() {
			rt.ctrl.abortMigTxn(tx)
		}
	}()
	if err := tx.Lock(txn.LockKey{Space: ^uint64(0), A: rt.drivingTbl.ID, B: uint64(g)}); err != nil {
		return err
	}
	// Read after the lock, so a recompute that committed while this one
	// waited is seen.
	if err := tx.Resnapshot(); err != nil {
		return err
	}
	rows, err := rt.fetchGranuleRows(tx, []int64{g})
	if err != nil {
		return err
	}
	if err := ms.deleteOutputsFor(tx, rt, rows); err != nil {
		return err
	}
	if len(rows) > 0 {
		if err := rt.transform(tx, rows, nil); err != nil {
			return err
		}
	}
	return rt.ctrl.commitMigTxn(tx)
}

func (ms *MultiStep) recomputeGroup(rt *StmtRuntime, key []byte) error {
	tx := rt.ctrl.beginMigTxn(ms.ctx)
	defer func() {
		if !tx.Done() {
			rt.ctrl.abortMigTxn(tx)
		}
	}()
	keyRow, err := types.DecodeKey(key)
	if err != nil {
		return err
	}
	if err := tx.Lock(txn.LockKey{Space: ^uint64(0) - 1, A: rt.drivingTbl.ID, B: hashKey(key)}); err != nil {
		return err
	}
	// Read after the lock, so a recompute that committed while this one
	// waited is seen.
	if err := tx.Resnapshot(); err != nil {
		return err
	}
	// Delete outputs identified by the group key, then re-derive the group.
	for _, out := range rt.outputs {
		pred, err := ms.groupOutputPred(rt, &out, keyRow)
		if err != nil {
			return err
		}
		if pred == nil {
			continue
		}
		tids, _, err := ms.ctrl.db.ScanForWrite(tx, out.tbl, "", pred)
		if err != nil {
			return err
		}
		for _, tid := range tids {
			if err := ms.ctrl.db.DeleteRow(tx, out.tbl, tid); err != nil {
				return err
			}
		}
	}
	if _, err := rt.migrateGroup(tx, key); err != nil {
		return err
	}
	return rt.ctrl.commitMigTxn(tx)
}

// groupOutputPred builds the output-table predicate identifying rows derived
// from the group, using the output's KeyMap.
func (ms *MultiStep) groupOutputPred(rt *StmtRuntime, out *outputRuntime, keyRow types.Row) (expr.Expr, error) {
	if out.spec.KeyMap == nil {
		return nil, fmt.Errorf("core: multi-step requires KeyMap on output %q", out.tbl.Def.Name)
	}
	var pred expr.Expr
	for i, drivCol := range rt.Stmt.GroupBy {
		outCol := ""
		for oc, dc := range out.spec.KeyMap {
			if norm(dc) == norm(drivCol) {
				outCol = oc
			}
		}
		if outCol == "" {
			return nil, fmt.Errorf("core: output %q KeyMap does not cover group column %q", out.tbl.Def.Name, drivCol)
		}
		pred = expr.CombineConjuncts(pred,
			expr.NewBinOp(expr.OpEq, expr.NewCol("", outCol), expr.NewConst(keyRow[i])))
	}
	return pred, nil
}

// deleteOutputsFor removes output rows derived from the given driving rows
// (bitmap statements), identified through each output's KeyMap.
func (ms *MultiStep) deleteOutputsFor(tx *txn.Txn, rt *StmtRuntime, drivingRows []types.Row) error {
	for _, out := range rt.outputs {
		if out.spec.KeyMap == nil {
			return fmt.Errorf("core: multi-step requires KeyMap on output %q", out.tbl.Def.Name)
		}
		// Resolve KeyMap to ordinals once.
		type pair struct {
			outName string
			drivOrd int
		}
		var pairs []pair
		for outCol, drivCol := range out.spec.KeyMap {
			ord := rt.drivingTbl.Def.ColumnIndex(drivCol)
			if ord < 0 {
				return fmt.Errorf("core: KeyMap driving column %q missing", drivCol)
			}
			pairs = append(pairs, pair{outName: outCol, drivOrd: ord})
		}
		for _, row := range drivingRows {
			var pred expr.Expr
			for _, p := range pairs {
				pred = expr.CombineConjuncts(pred,
					expr.NewBinOp(expr.OpEq, expr.NewCol("", p.outName), expr.NewConst(row[p.drivOrd])))
			}
			tids, _, err := ms.ctrl.db.ScanForWrite(tx, out.tbl, "", pred)
			if err != nil {
				return err
			}
			for _, tid := range tids {
				if err := ms.ctrl.db.DeleteRow(tx, out.tbl, tid); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func hashKey(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
