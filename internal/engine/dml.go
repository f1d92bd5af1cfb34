package engine

import (
	"errors"
	"fmt"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// ErrUniqueViolation reports a duplicate key on a unique index.
var ErrUniqueViolation = errors.New("engine: duplicate key violates unique constraint")

// ErrFKViolation reports a missing referenced row.
var ErrFKViolation = errors.New("engine: foreign key violation")

// ErrCheckViolation reports a failed CHECK constraint.
var ErrCheckViolation = errors.New("engine: check constraint violation")

// rowLockKey builds the lock-table key for a tuple.
func rowLockKey(tbl *catalog.Table, tid storage.TID) txn.LockKey {
	return txn.LockKey{Space: tbl.ID, A: uint64(tid.Page), B: uint64(tid.Slot)}
}

// keyLockKey builds the lock-table key for a unique-index key value. Two
// independent FNV hashes make accidental collisions (which would only cause
// extra serialization, never incorrectness) vanishingly rare.
func keyLockKey(idxID uint64, key []byte) txn.LockKey {
	var a, b uint64 = 14695981039346656037, 1099511628211
	for _, c := range key {
		a = (a ^ uint64(c)) * 1099511628211
		b = b*31 + uint64(c) + 0x9E3779B97F4A7C15
	}
	return txn.LockKey{Space: idxID, A: a, B: b}
}

// LockRow acquires the tuple write lock for the transaction.
func (db *DB) LockRow(tx *txn.Txn, tbl *catalog.Table, tid storage.TID) error {
	return tx.LockTimeout(rowLockKey(tbl, tid), db.opts.LockTimeout)
}

// InsertRow inserts a full-width row (after default filling) into the table,
// enforcing CHECK, NOT NULL, unique, and FOREIGN KEY constraints. With
// ConflictDoNothing, a unique conflict skips the insert (ok=false) instead of
// failing — the PostgreSQL ON CONFLICT DO NOTHING behavior BullFrog's
// §3.7 conflict-detection mode relies on.
func (db *DB) InsertRow(tx *txn.Txn, tbl *catalog.Table, row types.Row, conflict sql.ConflictAction) (storage.TID, bool, error) {
	row, err := tbl.Def.Validate(row)
	if err != nil {
		return storage.TID{}, false, err
	}
	if err := db.checkChecks(tbl, row); err != nil {
		return storage.TID{}, false, err
	}
	if err := db.checkForeignKeys(tx, tbl, row, nil); err != nil {
		return storage.TID{}, false, err
	}
	// Unique arbitration: hook (lazy migration), then key lock, then probe.
	hook := db.migrationHook()
	uniqueIdxs := tbl.UniqueIndexes()
	for _, idx := range uniqueIdxs {
		def := idx.Def()
		keyRow := indexKeyRow(def, row)
		if keyRow == nil {
			continue // a NULL component exempts the row from uniqueness
		}
		if hook != nil {
			if err := hook.BeforeKeyCheck(tx, tbl.Def.Name, def.Columns, keyRow); err != nil {
				return storage.TID{}, false, err
			}
		}
		key := types.EncodeKey(nil, keyRow)
		if err := tx.LockTimeout(keyLockKey(def.ID, key), db.opts.LockTimeout); err != nil {
			return storage.TID{}, false, err
		}
		if db.liveDuplicate(tx, tbl, idx, key) {
			if conflict == sql.ConflictDoNothing {
				return storage.TID{}, false, nil
			}
			return storage.TID{}, false, fmt.Errorf("%w %q on table %q", ErrUniqueViolation, def.Name, tbl.Def.Name)
		}
	}
	tid := tbl.Heap.Insert(tx.ID(), row)
	db.LogRedo(tx, wal.Record{Type: wal.RecInsert, Table: tbl.Def.Name, TID: tid, Row: row})
	for _, idx := range tbl.Indexes() {
		idx.Insert(idx.Def().KeyFromRow(row), tid)
	}
	tx.OnAbort(func() {
		for _, idx := range tbl.Indexes() {
			idx.Delete(idx.Def().KeyFromRow(row), tid)
		}
	})
	return tid, true, nil
}

// indexKeyRow extracts the key datums, or nil when any component is NULL.
func indexKeyRow(def *index.Def, row types.Row) types.Row {
	key := make(types.Row, len(def.Columns))
	for i, ord := range def.Columns {
		if row[ord].IsNull() {
			return nil
		}
		key[i] = row[ord]
	}
	return key
}

// liveDuplicate reports whether any tuple currently exists (latest-committed
// semantics, or created by this very transaction) with the given key in the
// unique index. The caller must hold the key lock.
func (db *DB) liveDuplicate(tx *txn.Txn, tbl *catalog.Table, idx index.Index, key []byte) bool {
	def := idx.Def()
	for _, tid := range idx.Lookup(key) {
		dup := false
		// A tuple that vanished under us cannot be a live duplicate.
		_ = tbl.Heap.View(tid, func(head *storage.Version) {
			v := latestDurable(tx, head)
			if v == nil {
				return
			}
			// Deletion visible under latest-committed semantics?
			if v.XMax != 0 {
				if v.XMax == tx.ID() || tx.Manager().StatusOf(v.XMax) == txn.StatusCommitted {
					return
				}
			}
			// Re-check the key against the actual row (stale entries).
			keyRow := indexKeyRow(def, v.Row)
			if keyRow == nil {
				return
			}
			if string(types.EncodeKey(nil, keyRow)) == string(key) {
				dup = true
			}
		})
		if dup {
			return true
		}
	}
	return false
}

// latestDurable walks the chain for the newest version created by a
// committed transaction (or by tx itself).
func latestDurable(tx *txn.Txn, head *storage.Version) *storage.Version {
	for v := head; v != nil; v = v.Next {
		if v.XMin == tx.ID() || tx.Manager().StatusOf(v.XMin) == txn.StatusCommitted {
			return v
		}
	}
	return nil
}

// checkChecks enforces CHECK constraints (NULL results pass, per SQL).
func (db *DB) checkChecks(tbl *catalog.Table, row types.Row) error {
	for _, ck := range tbl.Def.Checks {
		v, err := ck.Expr.Eval(row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.Kind() == types.KindBool && !v.Bool() {
			return fmt.Errorf("%w: %q on table %q", ErrCheckViolation, ck.Name, tbl.Def.Name)
		}
	}
	return nil
}

// checkForeignKeys verifies each FK whose local values are fully non-NULL
// references an existing parent row. When oldRow is non-nil (an update), FKs
// whose columns are unchanged are skipped.
func (db *DB) checkForeignKeys(tx *txn.Txn, tbl *catalog.Table, row, oldRow types.Row) error {
	hook := db.migrationHook()
	for _, fk := range tbl.Def.ForeignKey {
		keyRow := make(types.Row, len(fk.Columns))
		allSet := true
		changed := oldRow == nil
		for i, ord := range fk.Columns {
			if row[ord].IsNull() {
				allSet = false
				break
			}
			keyRow[i] = row[ord]
			if oldRow != nil && !types.Equal(row[ord], oldRow[ord]) {
				changed = true
			}
		}
		if !allSet || !changed {
			continue
		}
		refTbl, err := db.catForTxn(tx).Table(fk.RefTable)
		if err != nil {
			return fmt.Errorf("engine: foreign key: %w", err)
		}
		if hook != nil {
			if err := hook.BeforeKeyCheck(tx, fk.RefTable, fk.RefColumns, keyRow); err != nil {
				return err
			}
		}
		if !db.parentExists(tx, refTbl, fk.RefColumns, keyRow) {
			return fmt.Errorf("%w: %v not present in %q", ErrFKViolation, keyRow, fk.RefTable)
		}
	}
	return nil
}

// parentExists probes for a live row in tbl with the given column values.
func (db *DB) parentExists(tx *txn.Txn, tbl *catalog.Table, cols []int, keyRow types.Row) bool {
	key := types.EncodeKey(nil, keyRow)
	idx := tbl.IndexOnPrefix(cols)
	if idx != nil && len(idx.Def().Columns) == len(cols) {
		return db.liveDuplicate(tx, tbl, idx, key)
	}
	// Range-scan a wider index, or fall back to a heap scan.
	found := false
	probe := func(head *storage.Version) {
		v := latestDurable(tx, head)
		if v == nil {
			return
		}
		if v.XMax != 0 && (v.XMax == tx.ID() || tx.Manager().StatusOf(v.XMax) == txn.StatusCommitted) {
			return
		}
		for i, ord := range cols {
			if !types.Equal(v.Row[ord], keyRow[i]) {
				return
			}
		}
		found = true
	}
	if idx != nil {
		idx.AscendRange(key, index.PrefixSucc(key), func(_ []byte, tid storage.TID) bool {
			// A tuple that vanished under us cannot match.
			_ = tbl.Heap.View(tid, probe)
			return !found
		})
		return found
	}
	// Scan only returns the errStopScan sentinel used for early exit.
	_ = tbl.Heap.Scan(func(tid storage.TID, head *storage.Version) error {
		probe(head)
		if found {
			return errStopScan
		}
		return nil
	})
	return found
}

// UpdateRow replaces the tuple at tid with newRow under first-updater-wins
// rules. The caller identifies the tuple; this method locks it, re-validates
// constraints, maintains indexes, and registers undo.
func (db *DB) UpdateRow(tx *txn.Txn, tbl *catalog.Table, tid storage.TID, newRow types.Row) error {
	if err := db.LockRow(tx, tbl, tid); err != nil {
		return err
	}
	// Preview under the latch: writability and the old row image. We hold
	// the row lock, so the head cannot change before the Mutate below.
	var oldRow types.Row
	var checkErr error
	err := tbl.Heap.View(tid, func(head *storage.Version) {
		ok, cerr := tx.CheckWritable(head)
		if cerr != nil {
			checkErr = cerr
			return
		}
		if ok {
			r, _ := tx.VisibleRow(head)
			oldRow = r.Clone()
		}
	})
	if err != nil {
		return err
	}
	if checkErr != nil {
		return checkErr
	}
	if oldRow == nil {
		return storage.ErrNoSuchTuple
	}
	newRow, err = tbl.Def.Validate(newRow)
	if err != nil {
		return err
	}
	if err := db.checkChecks(tbl, newRow); err != nil {
		return err
	}
	if err := db.checkForeignKeys(tx, tbl, newRow, oldRow); err != nil {
		return err
	}
	// Unique checks only for keys that changed.
	hook := db.migrationHook()
	for _, idx := range tbl.UniqueIndexes() {
		def := idx.Def()
		newKeyRow := indexKeyRow(def, newRow)
		oldKeyRow := indexKeyRow(def, oldRow)
		if newKeyRow == nil {
			continue
		}
		newKey := types.EncodeKey(nil, newKeyRow)
		if oldKeyRow != nil && string(types.EncodeKey(nil, oldKeyRow)) == string(newKey) {
			continue
		}
		if hook != nil {
			if err := hook.BeforeKeyCheck(tx, tbl.Def.Name, def.Columns, newKeyRow); err != nil {
				return err
			}
		}
		if err := tx.LockTimeout(keyLockKey(def.ID, newKey), db.opts.LockTimeout); err != nil {
			return err
		}
		if db.liveDuplicate(tx, tbl, idx, newKey) {
			return fmt.Errorf("%w %q on table %q", ErrUniqueViolation, def.Name, tbl.Def.Name)
		}
	}
	// Postings for changed keys. The old key's posting stays: older
	// snapshots still read the old version through it, and readers re-check
	// keys. Vacuum deletes it once it prunes the last version with that key.
	type posting struct {
		idx    index.Index
		key    []byte
		shared bool // an older version has the key too, so its posting predates us
	}
	var added []posting
	for _, idx := range tbl.Indexes() {
		oldKey := idx.Def().KeyFromRow(oldRow)
		newKey := idx.Def().KeyFromRow(newRow)
		if string(oldKey) != string(newKey) {
			added = append(added, posting{idx: idx, key: newKey})
		}
	}
	if err := tbl.Heap.Mutate(tid, func(s storage.Slot) error {
		if ok, cerr := tx.CheckWritable(s.Head()); cerr != nil || !ok {
			if cerr != nil {
				return cerr
			}
			return storage.ErrNoSuchTuple
		}
		for i := range added {
			for v := s.Head(); v != nil && !added[i].shared; v = v.Next {
				added[i].shared = sameCols(added[i].idx.Def().Columns, v.Row, newRow)
			}
		}
		s.Push(tx.ID(), newRow)
		if len(added) > 0 {
			s.MarkKeysMoved()
		}
		return nil
	}); err != nil {
		return err
	}
	// Buffer redo only after the mutate succeeds so a failed statement in a
	// transaction that later commits cannot replay a phantom update.
	db.LogRedo(tx, updateRecord(tbl, tid, oldRow, newRow))
	// Insert after the push: a vacuum that unposts a removed key re-checks
	// the chain afterwards, and so sees any version that got the key back.
	for _, a := range added {
		a.idx.Insert(a.key, tid)
	}
	tx.OnAbort(func() {
		// Abort cleanup is best-effort: a missing tuple has nothing to undo.
		_ = tbl.Heap.Mutate(tid, func(s storage.Slot) error {
			s.Pop(tx.ID())
			return nil
		})
		for _, a := range added {
			if !a.shared { // an older version still needs a shared posting
				a.idx.Delete(a.key, tid)
			}
		}
	})
	return nil
}

// updateRecord is the redo record of an update: a delta of the changed
// columns, or the full new image when every column changed. The delta is
// relative to oldRow, which replay finds as the tuple's head: the row lock
// held to commit orders every update of a tuple in the log.
func updateRecord(tbl *catalog.Table, tid storage.TID, oldRow, newRow types.Row) wal.Record {
	rec := wal.Record{Type: wal.RecUpdate, Table: tbl.Def.Name, TID: tid, Row: newRow}
	cols := make([]int, 0, len(newRow))
	for i := range newRow {
		if !types.Identical(oldRow[i], newRow[i]) {
			cols = append(cols, i)
		}
	}
	if len(cols) == len(newRow) {
		return rec
	}
	rec.Cols = cols
	rec.Row = make(types.Row, len(cols))
	for i, ord := range cols {
		rec.Row[i] = newRow[ord]
	}
	return rec
}

// DeleteRow marks the tuple at tid deleted. FK restrict semantics are
// enforced against referencing tables.
func (db *DB) DeleteRow(tx *txn.Txn, tbl *catalog.Table, tid storage.TID) error {
	if err := db.LockRow(tx, tbl, tid); err != nil {
		return err
	}
	var oldRow types.Row
	var checkErr error
	if err := tbl.Heap.View(tid, func(head *storage.Version) {
		ok, cerr := tx.CheckWritable(head)
		if cerr != nil {
			checkErr = cerr
			return
		}
		if ok {
			r, _ := tx.VisibleRow(head)
			oldRow = r.Clone()
		}
	}); err != nil {
		return err
	}
	if checkErr != nil {
		return checkErr
	}
	if oldRow == nil {
		return storage.ErrNoSuchTuple
	}
	// Restrict: no live child may reference this row.
	cat := db.catForTxn(tx)
	for _, childName := range cat.TableNames() {
		child, err := cat.Table(childName)
		if err != nil {
			continue
		}
		for _, fk := range child.Def.ForeignKey {
			if !strings.EqualFold(fk.RefTable, tbl.Def.Name) {
				continue
			}
			refVals := make(types.Row, len(fk.RefColumns))
			for i, ord := range fk.RefColumns {
				refVals[i] = oldRow[ord]
			}
			if db.parentExists(tx, child, fk.Columns, refVals) {
				return fmt.Errorf("%w: row is still referenced by %q", ErrFKViolation, childName)
			}
		}
	}
	if err := tbl.Heap.Mutate(tid, func(s storage.Slot) error {
		if ok, cerr := tx.CheckWritable(s.Head()); cerr != nil || !ok {
			if cerr != nil {
				return cerr
			}
			return storage.ErrNoSuchTuple
		}
		return s.SetXMax(tx.ID())
	}); err != nil {
		return err
	}
	// Buffer redo only after the mutate succeeds (see UpdateRow).
	db.LogRedo(tx, wal.Record{Type: wal.RecDelete, Table: tbl.Def.Name, TID: tid})
	tx.OnAbort(func() {
		// Abort cleanup is best-effort: a missing tuple has nothing to undo.
		_ = tbl.Heap.Mutate(tid, func(s storage.Slot) error {
			s.ClearXMax(tx.ID())
			return nil
		})
	})
	return nil
}

// --- SQL-level DML ---

// writePlan is a compiled INSERT, UPDATE or DELETE: the target table, the
// scan its WHERE compiles to (with the chosen index), the SET expressions
// bound to the table row, or the INSERT column map with its VALUES rows or
// SELECT plan. Expressions may hold a template's Params, bound per execution
// (run), so one plan serves every execution of a statement template.
type writePlan struct {
	kind obs.StmtKind
	tbl  *catalog.Table
	// UPDATE and DELETE
	scan     *scanNode
	setOrds  []int
	setExprs []expr.Expr
	// INSERT
	colOrds  []int
	values   [][]expr.Expr
	sel      *Plan
	conflict sql.ConflictAction
}

// buildWritePlan compiles an INSERT, UPDATE or DELETE against a catalog
// version.
func (db *DB) buildWritePlan(v *catalog.Version, stmt sql.Statement) (*writePlan, error) {
	var wp *writePlan
	var err error
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		wp, err = db.buildInsertPlan(v, s)
	case *sql.UpdateStmt:
		wp, err = buildUpdatePlan(v, s)
	case *sql.DeleteStmt:
		wp, err = buildDeletePlan(v, s)
	default:
		err = fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	db.met.Engine.PlansBuilt.Inc()
	return wp, nil
}

func (db *DB) buildInsertPlan(v *catalog.Version, s *sql.InsertStmt) (*writePlan, error) {
	tbl, err := v.Table(s.Table)
	if err != nil {
		return nil, err
	}
	wp := &writePlan{kind: obs.StmtInsert, tbl: tbl, values: s.Values, conflict: s.OnConflict}
	// Map the provided column list to table ordinals.
	wp.colOrds = make([]int, 0, len(tbl.Def.Columns))
	if len(s.Columns) == 0 {
		for i := range tbl.Def.Columns {
			wp.colOrds = append(wp.colOrds, i)
		}
	} else {
		for _, name := range s.Columns {
			ord := tbl.Def.ColumnIndex(name)
			if ord < 0 {
				return nil, fmt.Errorf("engine: column %q does not exist in %q", name, s.Table)
			}
			wp.colOrds = append(wp.colOrds, ord)
		}
	}
	if s.Select != nil {
		b := &planBuilder{db: db, cat: v}
		root, err := b.buildSelect(s.Select)
		if err != nil {
			return nil, err
		}
		wp.sel = &Plan{db: db, root: root}
	}
	return wp, nil
}

func buildUpdatePlan(v *catalog.Version, s *sql.UpdateStmt) (*writePlan, error) {
	tbl, err := v.Table(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	scope := tbl.Def.Scope(normalizeName(alias))
	// Bind SET expressions against the table row.
	wp := &writePlan{kind: obs.StmtUpdate, tbl: tbl,
		setOrds: make([]int, len(s.Set)), setExprs: make([]expr.Expr, len(s.Set))}
	for i, a := range s.Set {
		ord := tbl.Def.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %q does not exist in %q", a.Column, s.Table)
		}
		wp.setOrds[i] = ord
		bound, err := expr.Bind(a.Value, scope)
		if err != nil {
			return nil, err
		}
		wp.setExprs[i] = bound
	}
	if wp.scan, err = writeScan(tbl, alias, s.Where); err != nil {
		return nil, err
	}
	return wp, nil
}

func buildDeletePlan(v *catalog.Version, s *sql.DeleteStmt) (*writePlan, error) {
	tbl, err := v.Table(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	wp := &writePlan{kind: obs.StmtDelete, tbl: tbl}
	if wp.scan, err = writeScan(tbl, alias, s.Where); err != nil {
		return nil, err
	}
	return wp, nil
}

// run executes the plan in tx with a template's literal values (nil for a
// plain statement).
func (wp *writePlan) run(db *DB, tx *txn.Txn, args []types.Datum) (*Result, error) {
	switch wp.kind {
	case obs.StmtInsert:
		return wp.runInsert(db, tx, args)
	case obs.StmtUpdate:
		tids, rows, err := wp.scan.bind(args).collect(db, tx)
		if err != nil {
			return nil, err
		}
		setExprs := wp.setExprs
		if args != nil {
			setExprs = make([]expr.Expr, len(wp.setExprs))
			for i, e := range wp.setExprs {
				setExprs[i] = expr.BindParams(e, args)
			}
		}
		for i, tid := range tids {
			newRow := rows[i].Clone()
			for j, ord := range wp.setOrds {
				v, err := setExprs[j].Eval(rows[i])
				if err != nil {
					return nil, err
				}
				newRow[ord] = v
			}
			if err := db.UpdateRow(tx, wp.tbl, tid, newRow); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(tids)}, nil
	default:
		tids, _, err := wp.scan.bind(args).collect(db, tx)
		if err != nil {
			return nil, err
		}
		for _, tid := range tids {
			if err := db.DeleteRow(tx, wp.tbl, tid); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(tids)}, nil
	}
}

func (wp *writePlan) runInsert(db *DB, tx *txn.Txn, args []types.Datum) (*Result, error) {
	tbl := wp.tbl
	buildFull := func(partial types.Row) (types.Row, error) {
		if len(partial) != len(wp.colOrds) {
			return nil, fmt.Errorf("engine: INSERT has %d values but %d columns", len(partial), len(wp.colOrds))
		}
		full := make(types.Row, len(tbl.Def.Columns))
		assigned := make([]bool, len(full))
		for i, ord := range wp.colOrds {
			full[ord] = partial[i]
			assigned[ord] = true
		}
		for i := range full {
			if assigned[i] {
				continue
			}
			if d := tbl.Def.Columns[i].Default; d != nil {
				v, err := d.Eval(nil)
				if err != nil {
					return nil, err
				}
				full[i] = v
			} else {
				full[i] = types.Null
			}
		}
		return full, nil
	}
	n := 0
	insert := func(partial types.Row) error {
		full, err := buildFull(partial)
		if err != nil {
			return err
		}
		_, ok, err := db.InsertRow(tx, tbl, full, wp.conflict)
		if err != nil {
			return err
		}
		if ok {
			n++
		}
		return nil
	}
	if wp.sel != nil {
		if err := wp.sel.execute(tx, nil, args, func(row types.Row) error { return insert(row.Clone()) }); err != nil {
			return nil, err
		}
		return &Result{Affected: n}, nil
	}
	for _, valueExprs := range wp.values {
		row := make(types.Row, len(valueExprs))
		for i, ve := range valueExprs {
			v, err := expr.BindParams(ve, args).Eval(nil)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := insert(row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: n}, nil
}

// writeScan compiles an UPDATE or DELETE's WHERE into a scan of its table.
func writeScan(tbl *catalog.Table, alias string, where expr.Expr) (*scanNode, error) {
	if alias == "" {
		alias = tbl.Def.Name
	}
	sn := newScanNode(tbl, normalizeName(alias))
	if where != nil {
		canon, err := canonicalize(where, scopeOf(sn.cols), sn.cols)
		if err != nil {
			return nil, err
		}
		bound, err := expr.Bind(canon, scopeOf(sn.cols))
		if err != nil {
			return nil, err
		}
		sn.addFilter(bound)
	}
	return sn, nil
}

// collect returns the TIDs and rows of the scan's matching visible tuples,
// materialized so the caller can mutate the table once the scan is over.
func (n *scanNode) collect(db *DB, tx *txn.Txn) ([]storage.TID, []types.Row, error) {
	var tids []storage.TID
	var rows []types.Row
	err := n.executeTID(&execCtx{db: db, tx: tx}, func(tid storage.TID, row types.Row) error {
		tids = append(tids, tid)
		rows = append(rows, row.Clone())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return tids, rows, nil
}

// ScanForWrite evaluates a WHERE predicate over a table (using indexes when
// possible) and returns the TIDs and rows of matching visible tuples,
// materialized so the caller can mutate the table once the scan is over.
func (db *DB) ScanForWrite(tx *txn.Txn, tbl *catalog.Table, alias string, where expr.Expr) ([]storage.TID, []types.Row, error) {
	sn, err := writeScan(tbl, alias, where)
	if err != nil {
		return nil, nil, err
	}
	return sn.collect(db, tx)
}

// executeTID is scanNode execution that also reports each tuple's TID.
func (n *scanNode) executeTID(ctx *execCtx, emit func(storage.TID, types.Row) error) error {
	visit := func(tid storage.TID, head *storage.Version) error {
		row, ok := ctx.tx.VisibleRow(head)
		if !ok {
			return nil
		}
		if n.filter != nil {
			keep, err := expr.EvalBool(n.filter, row)
			if err != nil {
				return err
			}
			if !keep {
				return nil
			}
		}
		return emit(tid, row)
	}
	if n.idx == nil {
		return n.tbl.Heap.Scan(visit)
	}
	seen := make(map[storage.TID]struct{})
	var scanErr error
	n.idx.AscendRange(n.lo, n.hi, func(_ []byte, tid storage.TID) bool {
		if _, dup := seen[tid]; dup {
			return true
		}
		seen[tid] = struct{}{}
		err := n.tbl.Heap.View(tid, func(head *storage.Version) {
			scanErr = visit(tid, head)
		})
		if err != nil && err != storage.ErrNoSuchTuple {
			scanErr = err
		}
		return scanErr == nil
	})
	return scanErr
}
