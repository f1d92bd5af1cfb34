// Package engine is the query engine: DDL, a planner with view expansion and
// predicate pushdown, executors (scans, index scans, joins, aggregation), DML
// with constraint enforcement and index maintenance, EXPLAIN, and WAL-based
// recovery. BullFrog's migration machinery (internal/core) drives this engine
// for both client requests and migration transactions.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/obs/trace"
	"github.com/bullfrogdb/bullfrog/internal/schema"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// Options configures a DB.
type Options struct {
	// PageSize is the heap slots-per-page (0 = storage default).
	PageSize uint32
	// LockTimeout bounds row/key lock waits (0 = txn default).
	LockTimeout time.Duration
	// WAL receives redo records; nil disables logging.
	WAL wal.Logger
}

// ErrWALAppend marks failures to append or flush redo-log records — the
// durability path is rejecting writes. It is wrapped alongside the
// underlying I/O error so both survive errors.Is.
var ErrWALAppend = errors.New("engine: WAL append failed")

// MigrationHook lets BullFrog's controller intercept engine operations that
// may require lazy migration before they can proceed:
//
//   - BeforeKeyCheck runs before a unique-key or foreign-key existence check
//     so relevant old-schema rows can be migrated first (paper §2.1: INSERTs
//     and constraint checks widen the migration scope). The transaction is
//     passed so migration transactions themselves bypass the hook.
type MigrationHook interface {
	BeforeKeyCheck(tx *txn.Txn, table string, cols []int, key types.Row) error
}

// DB is an embedded database instance.
type DB struct {
	cat     *catalog.Catalog
	tm      *txn.Manager
	opts    Options
	log     wal.Logger
	logging bool // false when the WAL is Nop: skip redo buffering entirely
	// hook is the migration hook (SetMigrationHook), swapped while
	// statements run: load it once per use.
	hook  atomic.Pointer[MigrationHook]
	met   *obs.Set
	plans *planCache
	// templates maps statement shapes to their parsed templates (Prepare).
	templates *templateCache
	// tracing enables span phase attribution on the statement path. When
	// false (the default) no trace context lookups happen at all, so the
	// disabled-tracer cost is one bool check per site.
	tracing bool

	// installMu guards installs, the in-order catalog-install history.
	// Checkpoints snapshot it so recovery from a checkpoint still learns
	// which migration was active (install markers in deleted segments would
	// otherwise be lost).
	installMu sync.Mutex
	installs  []InstallRecord
}

// InstallRecord is one entry of the catalog-install history: the migration
// name plus the opaque version metadata the layer above attached (the schema
// version registry's encoded SchemaVersion). Meta rides the WAL install
// marker's Key field and the checkpoint sidecar, so the history — including
// metadata — is rebuilt by recovery.
type InstallRecord struct {
	Name string
	Meta []byte
}

// New creates an empty database.
func New(opts Options) *DB {
	log := opts.WAL
	if log == nil {
		log = wal.Nop{}
	}
	if opts.LockTimeout == 0 {
		opts.LockTimeout = txn.DefaultLockTimeout
	}
	tm := txn.NewManager()
	set := &obs.Set{
		Engine:    &obs.EngineMetrics{},
		Txn:       tm.Obs(),
		WAL:       &obs.WALMetrics{},
		Migration: &obs.MigrationMetrics{},
		Catalog:   &obs.CatalogMetrics{},
		Trace:     &obs.TraceMetrics{},
	}
	log = wal.Instrument(log, set.WAL)
	cat := catalog.New()
	cat.SetObs(set.Catalog)
	_, nop := log.(wal.Nop)
	return &DB{cat: cat, tm: tm, opts: opts, log: log, logging: !nop, met: set, plans: newPlanCache(), templates: newTemplateCache()}
}

// Obs returns the database's metrics set. Never nil; every sub-struct is
// present, so layers built on the engine (internal/core, the facade) record
// into it directly.
func (db *DB) Obs() *obs.Set { return db.met }

// SetTracing turns span phase attribution on the statement path on or off.
// Call before concurrent use (the facade sets it at Open).
func (db *DB) SetTracing(on bool) { db.tracing = on }

// spanOf returns the span riding the transaction's statement context, or nil
// — guarded by the tracing flag so the disabled path never touches the ctx.
func (db *DB) spanOf(tx *txn.Txn) *trace.Span {
	if !db.tracing {
		return nil
	}
	return trace.FromContext(tx.Context())
}

// Catalog exposes the catalog (used by internal/core and tests).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// TxnManager exposes the transaction manager.
func (db *DB) TxnManager() *txn.Manager { return db.tm }

// CatalogAt returns the catalog version pinned by a snapshot at commit
// sequence seq (see catalog.Catalog.At).
func (db *DB) CatalogAt(seq uint64) *catalog.Version { return db.cat.At(seq) }

// catForTxn returns the catalog version the transaction's snapshot pinned —
// the schema every statement in the transaction resolves names against, so a
// migration installing a newer version mid-transaction cannot tear a
// statement across schemas.
func (db *DB) catForTxn(tx *txn.Txn) *catalog.Version {
	return db.cat.At(tx.Snapshot().Seq)
}

// InstallCatalogVersion publishes a new catalog version that marks the named
// tables retired, at a commit sequence reserved through the transaction
// manager's install barrier — BullFrog's big flip as a CAS instead of a
// stop-the-world drain. The install marker is logged and flushed (durably,
// when the log knows its device) before the barrier so a failing log device
// aborts the flip with nothing published; a crash after the marker but
// before the install is safe because trackers are rebuilt by re-running the
// migration's Start on recovery (§3.5). The whole sequence runs inside the
// commit fence so a checkpoint's rotation cannot split the marker from the
// published version or the recorded install history.
// The marker's Key carries meta — opaque version metadata recorded in the
// install history (nil is fine; the registry layer encodes a SchemaVersion
// there).
func (db *DB) InstallCatalogVersion(name string, meta []byte, retire []string) (uint64, error) {
	release := db.enterCommit()
	defer release()
	if err := db.log.Append(wal.Record{Type: wal.RecInstall, Table: name, Key: meta}); err != nil {
		return 0, fmt.Errorf("engine: logging catalog install: %w: %w", ErrWALAppend, err)
	}
	if err := db.log.Flush(); err != nil {
		return 0, fmt.Errorf("engine: flushing catalog install: %w: %w", ErrWALAppend, err)
	}
	seq, err := db.tm.InstallBarrier(func(seq uint64) error {
		_, err := db.cat.Install(seq, retire)
		return err
	})
	if err != nil {
		return 0, err
	}
	db.installMu.Lock()
	db.installs = append(db.installs, InstallRecord{Name: name, Meta: meta})
	db.installMu.Unlock()
	// Each install extends the version chain; cut everything no active
	// snapshot can still see so a flip ping-pong loop (migrate, reset,
	// migrate, ...) keeps catalog.versions_live bounded instead of growing
	// one version per flip until the next explicit Vacuum. The immediate
	// predecessor is always kept — transactions that begin between the
	// install and this prune still resolve the pre-flip schema.
	horizon := db.tm.OldestActiveSnapshot()
	if seq > 0 && seq-1 < horizon {
		horizon = seq - 1
	}
	db.cat.Prune(horizon)
	return seq, nil
}

// InstallHistory returns the catalog installs published so far, in order.
func (db *DB) InstallHistory() []InstallRecord {
	db.installMu.Lock()
	defer db.installMu.Unlock()
	return append([]InstallRecord(nil), db.installs...)
}

// WAL exposes the redo logger.
func (db *DB) WAL() wal.Logger { return db.log }

// SetMigrationHook installs the BullFrog controller's hook. Passing nil
// removes it.
func (db *DB) SetMigrationHook(h MigrationHook) {
	if h == nil {
		db.hook.Store(nil)
		return
	}
	db.hook.Store(&h)
}

// migrationHook returns the installed migration hook, or nil.
func (db *DB) migrationHook() MigrationHook {
	if h := db.hook.Load(); h != nil {
		return *h
	}
	return nil
}

// Begin starts a transaction.
func (db *DB) Begin() *txn.Txn { return db.tm.Begin() }

// LogRedo buffers a redo record on the transaction. Nothing reaches the log
// until Commit appends the whole batch followed by the commit record —
// commit-time batch logging. Aborted transactions therefore never appear in
// the log at all, and recovery needs no abort records or aborted-XID
// tracking. With logging disabled (Nop WAL) this is a no-op.
func (db *DB) LogRedo(tx *txn.Txn, rec wal.Record) {
	if !db.logging {
		return
	}
	rec.XID = tx.ID()
	tx.AppendRedo(rec)
}

// enterCommit takes the log's commit-fence token when the log is a
// checkpointing target (wal.Dir). The token is held from before the batch
// append until after the transaction publishes, so a checkpoint's segment
// rotation can never land between a transaction's log records and its
// visibility — the snapshot and the log cut always agree.
func (db *DB) enterCommit() func() {
	if f, ok := db.log.(wal.CommitFencer); ok {
		return f.EnterCommit()
	}
	return func() {}
}

// appendBatch hands the transaction's records to the log in one durable
// step. A BatchLogger (the real WAL writer) appends the batch atomically and
// waits for the covering group-commit sync; other loggers fall back to
// record-at-a-time appends plus an explicit flush.
func (db *DB) appendBatch(recs []wal.Record, sp *trace.Span) error {
	if sl, ok := db.log.(wal.SpanBatchLogger); ok {
		return sl.AppendBatchSpan(recs, sp)
	}
	if bl, ok := db.log.(wal.BatchLogger); ok {
		return bl.AppendBatch(recs)
	}
	for _, rec := range recs {
		if err := db.log.Append(rec); err != nil {
			return err
		}
	}
	return db.log.Flush()
}

// Commit durably commits: the transaction's buffered redo batch plus its
// commit record are appended atomically and made durable before the
// transaction becomes visible. Transactions with no redo (read-only, or
// DDL-only — the catalog is rebuilt by replaying install markers, not DML)
// skip the log entirely.
func (db *DB) Commit(tx *txn.Txn) error {
	if tx.Done() {
		return txn.ErrTxnDone
	}
	start := time.Now()
	// The commit phase is recorded as a remainder: total commit time minus
	// the WAL phases AppendBatchSpan attributes inside (append, group wait,
	// fsync), so a finished span's phases still sum to its wall time.
	sp := db.spanOf(tx)
	walBefore := walPhases(sp)
	recs := tx.TakeRedo()
	if len(recs) == 0 {
		if err := tx.Commit(); err != nil {
			return err
		}
		db.met.Txn.CommitLatency.ObserveSince(start)
		sp.AddSince(trace.PhaseCommit, start)
		return nil
	}
	recs = append(recs, wal.Record{Type: wal.RecCommit, XID: tx.ID()})
	release := db.enterCommit()
	if err := db.appendBatch(recs, sp); err != nil {
		release()
		tx.Abort()
		return fmt.Errorf("engine: logging commit: %w: %w", ErrWALAppend, err)
	}
	err := tx.Commit()
	release()
	if err != nil {
		return err
	}
	db.met.Txn.CommitLatency.ObserveSince(start)
	if sp != nil {
		sp.Add(trace.PhaseCommit, time.Since(start)-(walPhases(sp)-walBefore))
	}
	return nil
}

// walPhases sums the span's WAL-attributed phases (0 for a nil span).
func walPhases(sp *trace.Span) time.Duration {
	return sp.PhaseTotal(trace.PhaseWALAppend) +
		sp.PhaseTotal(trace.PhaseGroupWait) +
		sp.PhaseTotal(trace.PhaseFsync)
}

// Abort rolls the transaction back. With commit-time batch logging the
// transaction's redo records were never appended, so there is nothing to log
// — the buffered batch is simply dropped with the transaction state. Always
// returns nil; the error form survives for call-site compatibility.
func (db *DB) Abort(tx *txn.Txn) error {
	tx.Abort()
	return nil
}

// Result is the outcome of executing a statement.
type Result struct {
	Columns  []string
	Rows     []types.Row
	Affected int
	Explain  string // set for EXPLAIN
}

// Exec parses and executes one or more statements, each in its own
// transaction. The result of the last statement is returned.
func (db *DB) Exec(src string) (*Result, error) {
	stmts, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return &Result{}, nil
	}
	var last *Result
	for _, s := range stmts {
		tx := db.Begin()
		res, err := db.ExecPrepared(tx, s)
		if err != nil {
			_ = db.Abort(tx)
			return nil, err
		}
		if err := db.Commit(tx); err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// ExecTx parses and executes statements inside the caller's transaction.
func (db *DB) ExecTx(tx *txn.Txn, src string) (*Result, error) {
	stmts, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	var last *Result = &Result{}
	for _, s := range stmts {
		res, err := db.ExecPrepared(tx, s)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// ExecPreparedContext executes a prepared statement (Prepare) inside the
// transaction with ctx bounding the statement's blocking waits: for the
// duration of the call the transaction's statement context
// (txn.Txn.SetContext) is ctx, so a cancelled statement stops waiting in the
// lock queue immediately and returns the context's cause. A nil ctx behaves
// like ExecPrepared.
func (db *DB) ExecPreparedContext(ctx context.Context, tx *txn.Txn, st Stmt) (*Result, error) {
	prev := tx.SetContext(ctx)
	defer tx.SetContext(prev)
	return db.ExecPrepared(tx, st)
}

// ExecStmt executes a parsed statement inside the transaction.
func (db *DB) ExecStmt(tx *txn.Txn, stmt sql.Statement) (*Result, error) {
	return db.ExecPrepared(tx, Plain(stmt))
}

// ExecPrepared executes a prepared statement (Prepare) inside the
// transaction, recording per-kind execution latency (failed statements
// included).
func (db *DB) ExecPrepared(tx *txn.Txn, st Stmt) (*Result, error) {
	start := time.Now()
	kind := stmtKind(st.AST)
	// The exec phase is a remainder: elapsed minus the nested phases that
	// execStmt attributes itself (planning, lock waits, lazy migration), so
	// phase timings on a finished span sum to its wall time.
	sp := db.spanOf(tx)
	nestedBefore := nestedExecPhases(sp)
	res, err := db.execStmt(tx, st)
	db.met.Engine.Exec[kind].ObserveSince(start)
	if sp != nil {
		sp.Add(trace.PhaseExec, time.Since(start)-(nestedExecPhases(sp)-nestedBefore))
	}
	// DDL changes what cached plans were compiled against (tables, views,
	// index choices); drop them all. Even failed DDL may have partially
	// mutated the catalog, so invalidate unconditionally.
	if kind == obs.StmtDDL {
		db.plans.invalidate()
	}
	return res, err
}

func stmtKind(stmt sql.Statement) obs.StmtKind {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return obs.StmtSelect
	case *sql.InsertStmt:
		return obs.StmtInsert
	case *sql.UpdateStmt:
		return obs.StmtUpdate
	case *sql.DeleteStmt:
		return obs.StmtDelete
	case *sql.CreateTableStmt, *sql.CreateViewStmt, *sql.CreateIndexStmt,
		*sql.DropTableStmt, *sql.DropViewStmt, *sql.AlterRenameStmt,
		*sql.AlterAddFKStmt, *sql.AlterDropConstraintStmt:
		return obs.StmtDDL
	case *sql.ExplainStmt:
		return stmtKind(s.Inner)
	default:
		return obs.StmtOther
	}
}

func (db *DB) execStmt(tx *txn.Txn, st Stmt) (*Result, error) {
	if st.src != "" {
		res, err := db.execTemplate(tx, st)
		if !errors.Is(err, errTemplateFallback) {
			return res, err
		}
		plain, err := sql.ParseOne(st.src)
		if err != nil {
			return nil, err
		}
		st = Plain(plain)
	}
	switch s := st.AST.(type) {
	case *sql.SelectStmt:
		return db.execSelect(tx, s)
	case *sql.CreateTableStmt:
		return db.execCreateTable(tx, s)
	case *sql.CreateViewStmt:
		return db.execCreateView(s)
	case *sql.CreateIndexStmt:
		return db.execCreateIndex(tx, s)
	case *sql.DropTableStmt:
		if err := db.cat.DropTable(s.Name); err != nil {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropViewStmt:
		if err := db.cat.DropView(s.Name); err != nil {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, err
		}
		return &Result{}, nil
	case *sql.AlterRenameStmt:
		if err := db.cat.RenameTable(s.Old, s.New); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.AlterAddFKStmt:
		return db.execAlterAddFK(s)
	case *sql.AlterDropConstraintStmt:
		return db.execAlterDropConstraint(s)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		wp, err := db.buildWritePlan(db.catForTxn(tx), s)
		if err != nil {
			return nil, err
		}
		return wp.run(db, tx, nil)
	case *sql.ExplainStmt:
		return db.execExplain(tx, s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st.AST)
	}
}

// nestedExecPhases sums the phases attributed inside statement execution
// (0 for a nil span).
func nestedExecPhases(sp *trace.Span) time.Duration {
	return sp.PhaseTotal(trace.PhasePlan) +
		sp.PhaseTotal(trace.PhaseLockWait) +
		sp.PhaseTotal(trace.PhaseLazyMigrate)
}

// execSelect plans a plain SELECT against the transaction's catalog version
// and runs it. The plan is not cached: statement text reaches here only when
// its shape has no template.
func (db *DB) execSelect(tx *txn.Txn, s *sql.SelectStmt) (*Result, error) {
	planStart := time.Now()
	p, err := db.buildSelectPlan(db.catForTxn(tx), s, "", nil)
	if sp := db.spanOf(tx); sp != nil {
		sp.AddSince(trace.PhasePlan, planStart)
	}
	if err != nil {
		return nil, err
	}
	return p.result(tx, nil)
}

func (db *DB) execCreateView(s *sql.CreateViewStmt) (*Result, error) {
	// Plan once to validate and derive output column names.
	p, err := db.buildSelectPlan(db.cat.Head(), s.Select, "", nil)
	if err != nil {
		return nil, fmt.Errorf("engine: invalid view %q: %w", s.Name, err)
	}
	v := &catalog.View{Name: s.Name, Columns: p.ColumnNames(), Def: s.Select}
	if err := db.cat.CreateView(v); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) execCreateIndex(tx *txn.Txn, s *sql.CreateIndexStmt) (*Result, error) {
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(s.Columns))
	for i, name := range s.Columns {
		ord := tbl.Def.ColumnIndex(name)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %q does not exist in %q", name, s.Table)
		}
		ords[i] = ord
	}
	def := &index.Def{ID: db.cat.NextIndexID(), Name: s.Name, Table: tbl.Def.Name, Columns: ords, Unique: s.Unique}
	var idx index.Index
	if s.UseHash {
		idx = index.NewHash(def)
	} else {
		idx = index.NewBTree(def)
	}
	// Backfill from current table contents (visible to this txn).
	err = tbl.Heap.Scan(func(tid storage.TID, head *storage.Version) error {
		row, ok := tx.VisibleRow(head)
		if !ok {
			return nil
		}
		key := def.KeyFromRow(row)
		if s.Unique && len(idx.Lookup(key)) > 0 {
			return fmt.Errorf("engine: cannot create unique index %q: duplicate key %v", s.Name, key)
		}
		idx.Insert(key, tid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.AddIndex(idx)
	return &Result{}, nil
}

func (db *DB) execCreateTable(tx *txn.Txn, s *sql.CreateTableStmt) (*Result, error) {
	if s.AsSelect != nil {
		return db.execCreateTableAs(tx, s)
	}
	def, uniques, err := buildTableDef(s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.cat.CreateTable(def, db.opts.PageSize)
	if err != nil {
		return nil, err
	}
	// Primary key and unique constraints are enforced via unique indexes.
	if len(def.PrimaryKey) > 0 {
		db.addIndexFor(tbl, def.Name+"_pkey", def.PrimaryKey, true)
	}
	for i, cols := range uniques {
		db.addIndexFor(tbl, fmt.Sprintf("%s_unique_%d", def.Name, i), cols, true)
	}
	// Resolve foreign keys: referenced columns default to the referenced
	// table's primary key, and an index must exist on the referenced side.
	for i := range def.ForeignKey {
		fk := &def.ForeignKey[i]
		refTbl, err := db.cat.Table(fk.RefTable)
		if err != nil {
			return nil, fmt.Errorf("engine: foreign key references %w", err)
		}
		if len(fk.RefColumnNames) > 0 {
			fk.RefColumns = make([]int, len(fk.RefColumnNames))
			for j, name := range fk.RefColumnNames {
				ord := refTbl.Def.ColumnIndex(name)
				if ord < 0 {
					return nil, fmt.Errorf("engine: foreign key references unknown column %s.%s", fk.RefTable, name)
				}
				fk.RefColumns[j] = ord
			}
		} else {
			fk.RefColumns = append([]int(nil), refTbl.Def.PrimaryKey...)
		}
		if len(fk.RefColumns) != len(fk.Columns) {
			return nil, fmt.Errorf("engine: foreign key on %q has %d columns but references %d", def.Name, len(fk.Columns), len(fk.RefColumns))
		}
		if refTbl.IndexOnPrefix(fk.RefColumns) == nil {
			return nil, fmt.Errorf("engine: foreign key on %q requires a unique index on %s%v", def.Name, fk.RefTable, fk.RefColumns)
		}
	}
	return &Result{}, nil
}

func (db *DB) addIndexFor(tbl *catalog.Table, name string, cols []int, unique bool) index.Index {
	def := &index.Def{ID: db.cat.NextIndexID(), Name: name, Table: tbl.Def.Name, Columns: append([]int(nil), cols...), Unique: unique}
	idx := index.NewBTree(def)
	tbl.AddIndex(idx)
	return idx
}

// execCreateTableAs implements CREATE TABLE ... AS SELECT: derive the schema
// from the select's output, create the table, and bulk-insert the results.
// This is the physical operation behind eager migration.
func (db *DB) execCreateTableAs(tx *txn.Txn, s *sql.CreateTableStmt) (*Result, error) {
	p, err := db.buildSelectPlan(db.cat.Head(), s.AsSelect, "", nil)
	if err != nil {
		return nil, err
	}
	cols := p.Columns()
	defCols := make([]schema.Column, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("engine: CREATE TABLE AS output column %d needs a name (use AS)", i+1)
		}
		defCols[i] = schema.Column{Name: c.Name, Kind: c.Kind}
	}
	def, err := schema.NewTable(s.Name, defCols)
	if err != nil {
		return nil, err
	}
	tbl, err := db.cat.CreateTable(def, db.opts.PageSize)
	if err != nil {
		return nil, err
	}
	n := 0
	err = p.Execute(tx, func(row types.Row) error {
		if _, _, err := db.InsertRow(tx, tbl, row.Clone(), sql.ConflictError); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// execAlterAddFK appends a foreign-key constraint to an existing table.
// Existing rows are not re-validated (constraint addition during a migration
// applies to data as it moves; see DESIGN.md); new writes are checked.
func (db *DB) execAlterAddFK(s *sql.AlterAddFKStmt) (*Result, error) {
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	fk := schema.ForeignKey{Name: s.FK.Name, RefTable: s.FK.RefTable}
	for _, name := range s.FK.Columns {
		ord := tbl.Def.ColumnIndex(name)
		if ord < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in foreign key on %q", name, s.Table)
		}
		fk.Columns = append(fk.Columns, ord)
	}
	refTbl, err := db.cat.Table(s.FK.RefTable)
	if err != nil {
		return nil, fmt.Errorf("engine: foreign key references %w", err)
	}
	if len(s.FK.RefColumns) > 0 {
		for _, name := range s.FK.RefColumns {
			ord := refTbl.Def.ColumnIndex(name)
			if ord < 0 {
				return nil, fmt.Errorf("engine: foreign key references unknown column %s.%s", s.FK.RefTable, name)
			}
			fk.RefColumns = append(fk.RefColumns, ord)
		}
	} else {
		fk.RefColumns = append([]int(nil), refTbl.Def.PrimaryKey...)
	}
	if len(fk.Columns) != len(fk.RefColumns) {
		return nil, fmt.Errorf("engine: foreign key arity mismatch on %q", s.Table)
	}
	if refTbl.IndexOnPrefix(fk.RefColumns) == nil {
		return nil, fmt.Errorf("engine: foreign key on %q requires a unique index on %s", s.Table, s.FK.RefTable)
	}
	tbl.Def.ForeignKey = append(tbl.Def.ForeignKey, fk)
	return &Result{}, nil
}

// execAlterDropConstraint removes a named FOREIGN KEY or CHECK constraint.
func (db *DB) execAlterDropConstraint(s *sql.AlterDropConstraintStmt) (*Result, error) {
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	for i, fk := range tbl.Def.ForeignKey {
		if strings.EqualFold(fk.Name, s.Name) {
			tbl.Def.ForeignKey = append(tbl.Def.ForeignKey[:i], tbl.Def.ForeignKey[i+1:]...)
			return &Result{}, nil
		}
	}
	for i, ck := range tbl.Def.Checks {
		if strings.EqualFold(ck.Name, s.Name) {
			tbl.Def.Checks = append(tbl.Def.Checks[:i], tbl.Def.Checks[i+1:]...)
			return &Result{}, nil
		}
	}
	return nil, fmt.Errorf("engine: constraint %q not found on %q", s.Name, s.Table)
}

// buildTableDef converts a CREATE TABLE AST into schema metadata plus the
// list of unique-constraint column sets.
func buildTableDef(s *sql.CreateTableStmt) (*schema.Table, [][]int, error) {
	cols := make([]schema.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = schema.Column{Name: c.Name, Kind: c.Kind, NotNull: c.NotNull, Default: c.Default}
	}
	def, err := schema.NewTable(s.Name, cols)
	if err != nil {
		return nil, nil, err
	}
	resolve := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			ord := def.ColumnIndex(n)
			if ord < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in constraint on %q", n, s.Name)
			}
			out[i] = ord
		}
		return out, nil
	}
	var uniques [][]int
	// Column-level shorthands.
	for i, c := range s.Columns {
		if c.PrimaryKey {
			if def.PrimaryKey != nil {
				return nil, nil, fmt.Errorf("engine: multiple primary keys on %q", s.Name)
			}
			def.PrimaryKey = []int{i}
			def.Columns[i].NotNull = true
		}
		if c.Unique {
			uniques = append(uniques, []int{i})
		}
		if c.Check != nil {
			bound, err := expr.Bind(c.Check, def.Scope(""))
			if err != nil {
				return nil, nil, err
			}
			def.Checks = append(def.Checks, schema.Check{Name: c.Name + "_check", Expr: bound})
		}
	}
	if s.PrimaryKey != nil {
		if def.PrimaryKey != nil {
			return nil, nil, fmt.Errorf("engine: multiple primary keys on %q", s.Name)
		}
		pk, err := resolve(s.PrimaryKey)
		if err != nil {
			return nil, nil, err
		}
		def.PrimaryKey = pk
		for _, ord := range pk {
			def.Columns[ord].NotNull = true
		}
	}
	for _, u := range s.Uniques {
		ords, err := resolve(u)
		if err != nil {
			return nil, nil, err
		}
		uniques = append(uniques, ords)
	}
	def.Uniques = uniques
	for _, ck := range s.Checks {
		bound, err := expr.Bind(ck.Expr, def.Scope(""))
		if err != nil {
			return nil, nil, err
		}
		name := ck.Name
		if name == "" {
			name = fmt.Sprintf("%s_check_%d", s.Name, len(def.Checks))
		}
		def.Checks = append(def.Checks, schema.Check{Name: name, Expr: bound})
	}
	for _, fk := range s.ForeignKeys {
		ords, err := resolve(fk.Columns)
		if err != nil {
			return nil, nil, err
		}
		def.ForeignKey = append(def.ForeignKey, schema.ForeignKey{
			Name: fk.Name, Columns: ords, RefTable: fk.RefTable,
			RefColumnNames: fk.RefColumns,
		})
	}
	return def, uniques, nil
}

// TableScope builds the binding scope for a table.
func TableScope(tbl *catalog.Table, alias string) *expr.Scope {
	return tbl.Def.Scope(alias)
}

// normalizeName lower-cases an identifier the way the parser does, so
// programmatic callers can use any case.
func normalizeName(s string) string { return strings.ToLower(s) }
