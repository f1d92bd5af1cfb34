package engine

import (
	"fmt"
	"io"
	"slices"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// RecoverStats summarizes a WAL replay.
type RecoverStats struct {
	CommittedTxns int
	Inserts       int
	Updates       int
	Deletes       int
	Migrated      int
	// Installs lists, in log order, the install markers (migration name plus
	// version metadata) that reached the log. The last entry identifies the
	// migration that was active at the crash: recovery re-runs its Start (DDL
	// is not logged) and then replays RecMigrated records into its trackers
	// (§3.5). Replayed markers also rebuild the in-memory install history, so
	// the schema version registry survives the crash.
	Installs []InstallRecord
	// FromCheckpoint reports whether a checkpoint snapshot seeded the replay
	// (RecoverFrom only).
	FromCheckpoint bool
	// SnapshotRows counts rows restored from the checkpoint snapshot, as
	// opposed to replayed from the log (RecoverFrom only).
	SnapshotRows int
}

// applier replays committed data records into the database under one
// recovery transaction. It is shared by the legacy two-pass Recover and the
// checkpoint-aware single-pass RecoverFrom.
type applier struct {
	db    *DB
	tx    *txn.Txn
	stats *RecoverStats
	// Original TID -> recovered TID, per table (inserts may interleave
	// differently than original slot allocation).
	tidMap     map[string]map[storage.TID]storage.TID
	onMigrated func(tracker string, key []byte)
	// The table of the previous data record, as logged, resolved once for
	// the run of records that name it.
	lastName string
	last     *catalog.Table
	lastTIDs map[storage.TID]storage.TID
	key      []byte // scratch for index keys; indexes copy what they keep
}

func newApplier(db *DB, tx *txn.Txn, stats *RecoverStats, onMigrated func(string, []byte)) *applier {
	return &applier{
		db: db, tx: tx, stats: stats,
		tidMap:     make(map[string]map[storage.TID]storage.TID),
		onMigrated: onMigrated,
	}
}

// table resolves a record's table and its TID map.
func (a *applier) table(name string) (*catalog.Table, map[storage.TID]storage.TID, error) {
	if a.last != nil && name == a.lastName {
		return a.last, a.lastTIDs, nil
	}
	tbl, err := a.db.cat.Table(name)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: recovery: %w", err)
	}
	key := normalizeName(name)
	m := a.tidMap[key]
	if m == nil {
		m = make(map[storage.TID]storage.TID)
		a.tidMap[key] = m
	}
	a.lastName, a.last, a.lastTIDs = name, tbl, m
	return tbl, m, nil
}

// apply replays one committed data record. Begin/commit/abort/install/
// checkpoint records are the caller's to route.
func (a *applier) apply(rec wal.Record) error {
	switch rec.Type {
	case wal.RecInsert:
		tbl, tids, err := a.table(rec.Table)
		if err != nil {
			return err
		}
		newTID := tbl.Heap.Insert(a.tx.ID(), rec.Row)
		for _, idx := range tbl.Indexes() {
			a.key = idx.Def().AppendKey(a.key[:0], rec.Row)
			idx.Insert(a.key, newTID)
		}
		tids[rec.TID] = newTID
		a.stats.Inserts++
	case wal.RecUpdate:
		tbl, tids, err := a.table(rec.Table)
		if err != nil {
			return err
		}
		newTID, ok := tids[rec.TID]
		if !ok {
			// The tuple predates the log (no insert record): recovery
			// from a truncated log cannot reconstruct it.
			return fmt.Errorf("engine: recovery: update to unknown tuple %s in %q", rec.TID, rec.Table)
		}
		// Replay runs under one transaction, so a head it created itself is
		// invisible to everyone until the end: overwrite it instead of
		// pushing a version nobody can ever read. A hot row (a warehouse's
		// w_ytd) would otherwise end up with one version per update in the
		// log. The rows replay writes are its own, so a delta that moves no
		// index key patches such a head's row in place.
		var old, row types.Row
		var replaced, sole bool
		var moved []keyMove
		err = tbl.Heap.Mutate(newTID, func(s storage.Slot) error {
			head := s.Head()
			if rec.Cols != nil && head.XMin == a.tx.ID() && head.XMax == 0 && !touchesIndex(tbl, rec.Cols) {
				return patchInPlace(head.Row, rec)
			}
			old = head.Row
			if row, err = patchRow(old, rec); err != nil {
				return err
			}
			moved = movedKeys(tbl, rec.Cols, old, row)
			replaced = s.Replace(a.tx.ID(), row)
			sole = head.Next == nil
			if !replaced {
				s.Push(a.tx.ID(), row)
				s.MarkKeysMoved() // conservatively: keys are compared below
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, m := range moved {
			m.idx.Insert(m.newKey, newTID)
			if replaced && sole {
				m.idx.Delete(m.oldKey, newTID) // no version holds the old key any more
			}
		}
		a.stats.Updates++
	case wal.RecDelete:
		tbl, tids, err := a.table(rec.Table)
		if err != nil {
			return err
		}
		newTID, ok := tids[rec.TID]
		if !ok {
			return fmt.Errorf("engine: recovery: delete of unknown tuple %s in %q", rec.TID, rec.Table)
		}
		if err := tbl.Heap.Mutate(newTID, func(s storage.Slot) error {
			return s.SetXMax(a.tx.ID())
		}); err != nil {
			return err
		}
		a.stats.Deletes++
	case wal.RecMigrated:
		if a.onMigrated != nil {
			a.onMigrated(rec.Table, rec.Key)
		}
		a.stats.Migrated++
	}
	return nil
}

// keyMove is an index key an update changed.
type keyMove struct {
	idx            index.Index
	oldKey, newKey []byte
}

// movedKeys returns the index keys an update from old to row changes. An
// index none of whose columns the delta names (changed nil: a full image,
// which may change any) keeps its key, and so does one whose columns hold
// identical datums; only the rest have their keys encoded and compared.
func movedKeys(tbl *catalog.Table, changed []int, old, row types.Row) []keyMove {
	var out []keyMove
	for _, idx := range tbl.Indexes() {
		def := idx.Def()
		if !indexTouched(def.Columns, changed) || sameCols(def.Columns, old, row) {
			continue
		}
		oldKey, newKey := def.KeyFromRow(old), def.KeyFromRow(row)
		if string(oldKey) != string(newKey) {
			out = append(out, keyMove{idx: idx, oldKey: oldKey, newKey: newKey})
		}
	}
	return out
}

// touchesIndex reports whether any of the table's indexes has one of the
// changed columns.
func touchesIndex(tbl *catalog.Table, changed []int) bool {
	for _, idx := range tbl.Indexes() {
		if indexTouched(idx.Def().Columns, changed) {
			return true
		}
	}
	return false
}

// patchInPlace applies a delta to a row nothing else shares.
func patchInPlace(row types.Row, rec wal.Record) error {
	for _, ord := range rec.Cols {
		if ord >= len(row) {
			return fmt.Errorf("engine: recovery: update of column %d in %d-column %q: %w", ord, len(row), rec.Table, wal.ErrCorrupt)
		}
	}
	for i, ord := range rec.Cols {
		row[ord] = rec.Row[i]
	}
	return nil
}

// patchRow returns the row an update record leaves: its full image, or for
// a delta (Cols set) the previous image with the changed columns replaced.
func patchRow(prev types.Row, rec wal.Record) (types.Row, error) {
	if rec.Cols == nil {
		return rec.Row, nil
	}
	row := prev.Clone()
	if err := patchInPlace(row, rec); err != nil {
		return nil, err
	}
	return row, nil
}

// indexTouched reports whether a delta's changed columns (nil: a full image,
// which may change any) include one of the index columns.
func indexTouched(idxCols, changed []int) bool {
	if changed == nil {
		return true
	}
	for _, ord := range idxCols {
		if slices.Contains(changed, ord) {
			return true
		}
	}
	return false
}

// Recover rebuilds table contents (and reports committed migration-status
// records) by replaying a redo log. The database's schema must already have
// been recreated (DDL is not logged — deployments re-run their schema
// scripts, as the paper's prototype assumes). Only records belonging to
// committed transactions are applied; onMigrated receives each committed
// RecMigrated record so BullFrog's trackers can be restored (paper §3.5).
//
// This is the legacy two-pass path for logs without a checkpoint: readLog is
// called twice (commit-set pass, then apply pass) and must return a fresh
// reader over the same log each time. Checkpoint-aware deployments recover
// through RecoverFrom, which replays post-checkpoint segments in a single
// pass.
func (db *DB) Recover(readLog func() (io.Reader, error), onMigrated func(tracker string, key []byte)) (RecoverStats, error) {
	var stats RecoverStats
	r1, err := readLog()
	if err != nil {
		return stats, err
	}
	committed, err := wal.CommittedSet(r1)
	if err != nil {
		return stats, err
	}
	stats.CommittedTxns = len(committed)

	r2, err := readLog()
	if err != nil {
		return stats, err
	}
	// All replayed effects are applied under one recovery transaction and
	// become visible atomically at its commit.
	tx := db.Begin()
	ap := newApplier(db, tx, &stats, onMigrated)
	err = wal.Replay(r2, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecBegin, wal.RecCommit, wal.RecAbort, wal.RecCheckpoint:
			return nil
		case wal.RecInstall:
			// Install markers are transaction-less (XID 0): the flip was
			// published iff the marker reached the log, because the marker is
			// flushed before the version is installed.
			stats.Installs = append(stats.Installs, installRec(rec))
			return nil
		}
		if !committed[rec.XID] {
			return nil
		}
		return ap.apply(rec)
	})
	if err != nil {
		tx.Abort()
		return stats, err
	}
	if err := tx.Commit(); err != nil {
		return stats, err
	}
	db.mergeInstallHistory(stats.Installs)
	return stats, nil
}

// installRec lifts a WAL install marker into an InstallRecord (the Key field
// carries the opaque version metadata).
func installRec(rec wal.Record) InstallRecord {
	return InstallRecord{Name: rec.Table, Meta: append([]byte(nil), rec.Key...)}
}

// mergeInstallHistory rebuilds the in-memory install history from replayed
// markers. Durable markers win: an entry re-created in memory by re-running
// the active migration's Start before recovery (the documented call order)
// carries a fresh timestamp/metadata, and the logged marker is the version
// of record. Entries with no surviving marker (the flip raced the crash)
// keep their re-created form, appended after the durable prefix.
func (db *DB) mergeInstallHistory(replayed []InstallRecord) {
	if len(replayed) == 0 {
		return
	}
	seen := make(map[string]bool, len(replayed))
	for _, r := range replayed {
		seen[r.Name] = true
	}
	db.installMu.Lock()
	merged := append([]InstallRecord(nil), replayed...)
	for _, r := range db.installs {
		if !seen[r.Name] {
			merged = append(merged, r)
		}
	}
	db.installs = merged
	db.installMu.Unlock()
}

// RecoverFrom rebuilds table contents from a recovery source: the checkpoint
// snapshot (when present) seeds heaps, indexes, and the TID map, then the
// post-checkpoint segments replay in a single buffered pass. Because commit-
// time batch logging appends a transaction's records together with its
// commit record, uncommitted work never reaches the log; records are staged
// per-XID and applied when their commit record arrives, so a torn tail (a
// batch whose commit record did not survive) is dropped without a separate
// commit-set pass over the whole log.
//
// The checkpoint stream's RecInsert records carry each tuple's pre-crash TID,
// which seeds the TID map exactly like a replayed insert would — updates and
// deletes in the post-checkpoint segments resolve against snapshot rows
// transparently. Returns the same stats as Recover, plus FromCheckpoint /
// SnapshotRows, and the checkpoint's install history prepended to Installs.
func (db *DB) RecoverFrom(src *wal.RecoverySource, onMigrated func(tracker string, key []byte)) (RecoverStats, error) {
	var stats RecoverStats
	tx := db.Begin()
	ap := newApplier(db, tx, &stats, onMigrated)

	fail := func(err error) (RecoverStats, error) {
		tx.Abort()
		return stats, err
	}

	if src.Meta != nil {
		cr, err := src.OpenCheckpoint()
		if err != nil {
			return fail(err)
		}
		stats.FromCheckpoint = true
		insertsBefore := 0
		err = wal.Replay(cr, func(rec wal.Record) error {
			switch rec.Type {
			case wal.RecCheckpoint:
				return nil // header
			case wal.RecInstall:
				stats.Installs = append(stats.Installs, installRec(rec))
				return nil
			case wal.RecInsert:
				insertsBefore++
				return ap.apply(rec)
			case wal.RecMigrated:
				return ap.apply(rec)
			default:
				return fmt.Errorf("engine: recovery: unexpected %s record in checkpoint %s: %w",
					rec.Type, src.Checkpoint, wal.ErrCorrupt)
			}
		})
		cerr := cr.Close()
		if err != nil {
			return fail(err)
		}
		if cerr != nil {
			return fail(cerr)
		}
		stats.SnapshotRows = insertsBefore
		stats.Inserts -= insertsBefore // snapshot rows are not replayed inserts
	}

	sr, err := src.OpenSegments()
	if err != nil {
		return fail(err)
	}
	// Records staged per transaction until its commit record arrives.
	pending := make(map[uint64][]wal.Record)
	err = wal.Replay(sr, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecBegin, wal.RecCheckpoint:
			return nil
		case wal.RecInstall:
			stats.Installs = append(stats.Installs, installRec(rec))
			return nil
		case wal.RecCommit:
			stats.CommittedTxns++
			batch := pending[rec.XID]
			delete(pending, rec.XID)
			for _, r := range batch {
				if err := ap.apply(r); err != nil {
					return err
				}
			}
			return nil
		case wal.RecAbort:
			// Legacy record-at-a-time logs may carry abort records; batch
			// logging never writes them.
			delete(pending, rec.XID)
			return nil
		default:
			pending[rec.XID] = append(pending[rec.XID], rec)
			return nil
		}
	})
	serr := sr.Close()
	if err != nil {
		return fail(err)
	}
	if serr != nil {
		return fail(serr)
	}
	// Anything still pending lost its commit record to the crash: dropped.
	if err := tx.Commit(); err != nil {
		return stats, err
	}
	db.mergeInstallHistory(stats.Installs)
	return stats, nil
}

// Vacuum prunes dead version chains across all tables, empties the slots of
// tuples whose deletion every snapshot sees, deletes the index postings only
// removed versions held, trims transaction state for everything below the
// resulting horizon, and cuts catalog versions no live snapshot can still
// resolve. Returns pruned row-version and state counts (catalog versions are
// reported via catalog.versions_live).
func (db *DB) Vacuum() (versions, states int) {
	horizon := db.tm.OldestActiveSnapshot()
	for _, name := range db.cat.TableNames() {
		tbl, err := db.cat.Table(name)
		if err != nil {
			continue
		}
		idxs := tbl.Indexes()
		keyCols := indexColumns(idxs)
		var drop []deadPosting
		versions += tbl.Heap.Vacuum(func(v *storage.Version) bool {
			return db.versionDeadBefore(v, horizon)
		}, func(tid storage.TID, live, dead *storage.Version) {
			drop = appendDeadPostings(drop, idxs, keyCols, tid, live, dead)
		})
		// Postings go only now that the page latches are released.
		var restore []deadPosting
		for _, p := range drop {
			p.idx.Delete(p.key, p.tid)
			if p.live {
				restore = append(restore, p)
			}
		}
		// A surviving tuple may have been updated back to a removed key
		// between collection and delete: that update found the posting
		// still there (Insert ignores duplicates), so put it back.
		for _, p := range restore {
			if chainHasKey(tbl.Heap, p.tid, p.idx.Def(), p.key) {
				p.idx.Insert(p.key, p.tid)
			}
		}
	}
	states = db.tm.PruneStates(horizon)
	db.cat.Prune(horizon)
	return versions, states
}

// deadPosting is an index posting that only vacuumed versions held. live
// marks postings of a tuple that still exists.
type deadPosting struct {
	idx  index.Index
	key  []byte
	tid  storage.TID
	live bool
}

// appendDeadPostings collects, per index, the keys of the removed versions
// in dead that no version of the surviving chain live still has (every key,
// when live is nil). keyCols is the union of the indexes' columns: a removed
// version identical to the head on all of them, the common case of an update
// that moves no key, is skipped without looking at each index. It runs under
// the page latch and only reads the chains.
func appendDeadPostings(out []deadPosting, idxs []index.Index, keyCols []int, tid storage.TID, live, dead *storage.Version) []deadPosting {
	for d := dead; d != nil; d = d.Next {
		if live != nil && sameCols(keyCols, live.Row, d.Row) {
			continue
		}
	indexes:
		for _, idx := range idxs {
			def := idx.Def()
			for v := live; v != nil; v = v.Next {
				if sameCols(def.Columns, v.Row, d.Row) {
					continue indexes
				}
			}
			for e := dead; e != d; e = e.Next {
				if sameCols(def.Columns, e.Row, d.Row) {
					continue indexes // already collected
				}
			}
			out = append(out, deadPosting{idx: idx, key: def.KeyFromRow(d.Row), tid: tid, live: live != nil})
		}
	}
	return out
}

// sameCols reports whether two rows agree on the given columns, value and
// kind, so any index over them encodes both to the same key.
func sameCols(cols []int, a, b types.Row) bool {
	for _, ord := range cols {
		if !types.Identical(a[ord], b[ord]) {
			return false
		}
	}
	return true
}

// indexColumns returns the union of the indexes' columns.
func indexColumns(idxs []index.Index) []int {
	var cols []int
	for _, idx := range idxs {
		for _, ord := range idx.Def().Columns {
			if !slices.Contains(cols, ord) {
				cols = append(cols, ord)
			}
		}
	}
	return cols
}

// chainHasKey reports whether any version of the tuple at tid has key in
// the index described by def.
func chainHasKey(h *storage.Heap, tid storage.TID, def *index.Def, key []byte) bool {
	found := false
	_ = h.View(tid, func(head *storage.Version) { // an emptied slot has no key
		for v := head; v != nil && !found; v = v.Next {
			found = string(def.KeyFromRow(v.Row)) == string(key)
		}
	})
	return found
}

// versionDeadBefore reports whether v was deleted/superseded by a transaction
// committed at or before the horizon sequence.
func (db *DB) versionDeadBefore(v *storage.Version, horizon uint64) bool {
	if v.XMax == 0 {
		return false
	}
	return db.tm.CommittedAtOrBefore(v.XMax, horizon)
}
