package bullfrog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/core"
	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/obs/trace"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// ErrClosed is returned by operations on a database after Close.
var ErrClosed = errors.New("bullfrog: database is closed")

// Re-exported building blocks, so callers assemble migrations without
// importing internal packages.
type (
	// Migration is a complete schema migration (setup DDL + statements).
	Migration = core.Migration
	// Statement is one migration statement (outputs + tracking category).
	Statement = core.Statement
	// OutputSpec is one output table with its defining transform query.
	OutputSpec = core.OutputSpec
	// SeedSpec completes denormalizing joins for groups with no driving rows.
	SeedSpec = core.SeedSpec
	// ConflictMode selects early (tracker) vs on-insert duplicate detection.
	ConflictMode = core.ConflictMode
	// Datum is a single SQL value.
	Datum = types.Datum
	// Row is a tuple of datums.
	Row = types.Row
	// Result is a statement's outcome: columns, rows, affected count.
	Result = engine.Result
)

// Migration categories and conflict modes (paper §3.1, §3.7).
const (
	OneToOne       = core.OneToOne
	OneToMany      = core.OneToMany
	ManyToOne      = core.ManyToOne
	ManyToMany     = core.ManyToMany
	DetectEarly    = core.DetectEarly
	DetectOnInsert = core.DetectOnInsert
)

// Datum constructors.
var (
	NewInt    = types.NewInt
	NewFloat  = types.NewFloat
	NewString = types.NewString
	NewBool   = types.NewBool
	NewTime   = types.NewTime
	Null      = types.Null
)

// ParseQuery parses a SELECT statement for use as a migration transform.
func ParseQuery(src string) (*sql.SelectStmt, error) {
	s, err := sql.ParseOne(src)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("bullfrog: expected a SELECT, got %T", s)
	}
	return sel, nil
}

// MustQuery is ParseQuery that panics on error (for static migration specs).
func MustQuery(src string) *sql.SelectStmt {
	sel, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return sel
}

// Options configures a database instance.
type Options struct {
	// PageSize is the storage heap's slots-per-page (0 = default 256).
	PageSize uint32
	// LockTimeout bounds lock waits; timeouts resolve deadlocks (0 = 250ms).
	LockTimeout time.Duration
	// WAL receives redo records (nil disables logging).
	WAL wal.Logger
	// ConflictMode selects BullFrog's duplicate-migration detection
	// (DetectEarly by default).
	ConflictMode ConflictMode
	// GroupCommit tunes the WAL's leader/follower durable-flush batching when
	// WAL supports it (wal.Writer or wal.Dir). Zero values mean: no dwell
	// delay, batch cap 64.
	GroupCommit wal.GroupCommit
	// CheckpointInterval starts a background checkpointer when WAL is a
	// segmented directory (wal.Dir): every interval, a transaction-consistent
	// snapshot is written and superseded segments are deleted, bounding
	// recovery replay. 0 disables background checkpoints (Checkpoint can
	// still be called manually).
	CheckpointInterval time.Duration
	// Trace enables structured tracing: statement and migration spans, the
	// event ring behind TraceHandler, and the slow-op log. Disabled, the
	// instrumentation costs one nil/bool check per site.
	Trace bool
	// TraceRingSize is the event-ring capacity (rounded up to a power of
	// two; 0 = 4096). Ignored unless Trace is set.
	TraceRingSize int
	// SlowStatement: statements at least this slow are recorded in the
	// slow-op log with their full phase breakdown (0 disables the slow-op
	// path; spans still record). Ignored unless Trace is set.
	SlowStatement time.Duration
	// SlowBatch is the same threshold for background backfill batches.
	SlowBatch time.Duration
	// SlowOpLog receives slow-op JSON lines (one object per line). nil keeps
	// slow ops only in the in-memory buffer served by TraceHandler.
	SlowOpLog io.Writer
}

// DB is an embedded BullFrog database. Close releases its resources; other
// methods must not be called after Close.
type DB struct {
	eng  *engine.DB
	ctrl *core.Controller
	gate *core.Gate
	// bgs holds one background migrator per Migrate call of the active chain
	// (each pool owns only the runtimes it claimed first); ResetMigration and
	// Close stop them all.
	bgs    []*core.Background
	ckpt   *core.Checkpointer // nil unless background checkpointing is on
	walSrc wal.Logger         // the caller-supplied logger, for Close
	tracer *trace.Tracer      // nil = tracing disabled
	closed atomic.Bool
	// closeCtx is cancelled by Close so long-running drains (FinishMigration
	// during a multi-step switch-over) cannot hang shutdown.
	closeCtx  context.Context
	closeStop context.CancelFunc
}

// Open creates an empty database. Callers should Close it when done.
func Open(opts Options) *DB {
	eng := engine.New(engine.Options{
		PageSize:    opts.PageSize,
		LockTimeout: opts.LockTimeout,
		WAL:         opts.WAL,
	})
	gate := core.NewGate()
	gate.SetObs(eng.Obs().Migration)
	//lint:ignore ctxflow DB-lifetime root owned by Open: cancelled by Close so drains cannot outlive the handle
	ctx, cancel := context.WithCancel(context.Background())
	db := &DB{
		eng:       eng,
		ctrl:      core.NewController(eng, opts.ConflictMode),
		gate:      gate,
		walSrc:    opts.WAL,
		closeCtx:  ctx,
		closeStop: cancel,
	}
	if opts.Trace {
		db.tracer = trace.New(trace.Config{
			RingSize:      opts.TraceRingSize,
			SlowStatement: opts.SlowStatement,
			SlowBatch:     opts.SlowBatch,
			SlowLog:       opts.SlowOpLog,
		}, eng.Obs().Trace)
		eng.SetTracing(true)
		db.ctrl.SetTracer(db.tracer)
	}
	switch w := opts.WAL.(type) {
	case *wal.Writer:
		w.SetGroupCommit(opts.GroupCommit)
		w.SetTracer(db.tracer)
	case *wal.Dir:
		w.SetGroupCommit(opts.GroupCommit)
		w.SetTracer(db.tracer)
		if opts.CheckpointInterval > 0 {
			db.ckpt = core.NewCheckpointer(ctx, db.ctrl, w, opts.CheckpointInterval)
			db.ckpt.Start()
		}
	}
	return db
}

// Checkpoint takes one checkpoint of a segmented WAL directory synchronously
// (see Options.CheckpointInterval for the background equivalent). Returns an
// error when the WAL is not a *wal.Dir.
func (db *DB) Checkpoint(ctx context.Context) error {
	if db.closed.Load() {
		return wrapErr("checkpoint", "", ErrClosed)
	}
	dir, ok := db.walSrc.(*wal.Dir)
	if !ok {
		return fmt.Errorf("bullfrog: checkpoint requires a segmented WAL directory (wal.Dir)")
	}
	if ctx == nil {
		ctx = db.closeCtx
	}
	cp := db.ckpt
	if cp == nil {
		cp = core.NewCheckpointer(db.closeCtx, db.ctrl, dir, time.Hour)
	}
	_, err := cp.CheckpointNow(ctx)
	return wrapErr("checkpoint", "", err)
}

// Close shuts the database down: it stops the background migrator, flushes
// the WAL, and closes the caller-supplied WAL logger if it implements
// io.Closer. Close is idempotent; after the first call, Exec/Query/Begin/
// Migrate return ErrClosed.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	db.closeStop() // unhang any in-flight FinishMigration drain
	if db.ckpt != nil {
		db.ckpt.Stop()
		db.ckpt = nil
	}
	for _, bg := range db.bgs {
		bg.Stop()
	}
	db.bgs = nil
	var firstErr error
	if err := db.eng.WAL().Flush(); err != nil {
		firstErr = fmt.Errorf("bullfrog: flushing WAL: %w", err)
	}
	if c, ok := db.walSrc.(io.Closer); ok {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bullfrog: closing WAL: %w", err)
		}
	}
	return firstErr
}

// Engine exposes the underlying query engine (power users, benchmarks).
func (db *DB) Engine() *engine.DB { return db.eng }

// Controller exposes the migration controller (stats, manual control).
func (db *DB) Controller() *core.Controller { return db.ctrl }

// Gate exposes the client/eager-migration gate; workloads running
// transactions outside Exec (e.g. the TPC-C harness) hold it per transaction
// so the eager baseline can measure its downtime honestly.
func (db *DB) Gate() *core.Gate { return db.gate }

// Exec parses and executes one or more SQL statements, each in its own
// transaction, after performing any lazy migration the statements require.
// The result of the last statement is returned. Exec is ExecContext bounded
// by the database's close context: Close unblocks statements parked behind
// an eager migration's exclusive gate or in a lock queue.
func (db *DB) Exec(src string) (*Result, error) { return db.ExecContext(db.closeCtx, src) }

// ExecContext is Exec bounded by the caller's context: a statement blocked
// entering the gate (behind an eager migration), waiting on a busy migration
// granule, or parked in a lock queue returns context.Cause(ctx) as soon as
// ctx is done — it does not wait out the lock timeout. A nil ctx behaves
// like Exec. Statements already past their blocking points run to
// completion; cancellation never leaves a transaction open.
func (db *DB) ExecContext(ctx context.Context, src string) (*Result, error) {
	if db.closed.Load() {
		return nil, wrapErr("exec", "", ErrClosed)
	}
	if ctx == nil {
		ctx = db.closeCtx
	}
	// One span covers the whole call (usually a single statement): parse,
	// then per-statement gate/migrate/exec/commit phases accumulate on it.
	var sp *trace.Span
	if db.tracer != nil {
		sp = db.tracer.StartStatement(spanName(src))
		defer db.tracer.Finish(sp)
		ctx = trace.WithSpan(ctx, sp)
	}
	var parseStart time.Time
	if sp != nil {
		parseStart = time.Now()
	}
	stmts, err := db.eng.Prepare(src)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.AddSince(trace.PhaseParse, parseStart)
	}
	var last *Result = &Result{}
	for _, s := range stmts {
		res, err := db.execStmtGated(ctx, s)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// spanName compresses SQL text into a span label: whitespace collapsed,
// truncated so pathological statements don't bloat the trace surface.
func spanName(src string) string {
	src = strings.Join(strings.Fields(src), " ")
	if len(src) > 100 {
		src = src[:100] + "..."
	}
	return src
}

// Query is Exec for a single SELECT; provided for readability.
func (db *DB) Query(src string) (*Result, error) { return db.Exec(src) }

// QueryContext is Query with the cancellation semantics of ExecContext.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	return db.ExecContext(ctx, src)
}

// execStmtGated runs one statement while holding a shared gate slot. The
// release is deferred so a panic anywhere in the statement path cannot leak
// gate capacity (a leaked slot is permanent and eventually wedges the rare
// truly-exclusive operations — the eager baseline's swap and the multi-step
// Switch; BullFrog's lazy migration start no longer drains the gate, it
// installs a catalog version at a commit barrier).
func (db *DB) execStmtGated(ctx context.Context, s engine.Stmt) (*Result, error) {
	var sp *trace.Span
	var gateStart time.Time
	if db.tracer != nil {
		if sp = trace.FromContext(ctx); sp != nil {
			gateStart = time.Now()
		}
	}
	if err := db.gate.EnterContext(ctx); err != nil {
		if db.closed.Load() {
			return nil, wrapErr("exec", "", ErrClosed)
		}
		return nil, err
	}
	if sp != nil {
		sp.AddSince(trace.PhaseGate, gateStart)
	}
	defer db.gate.Leave()
	return db.execStmt(ctx, s)
}

func (db *DB) execStmt(ctx context.Context, s engine.Stmt) (*Result, error) {
	// Optimistic interception: the retired checks and migration scoping run
	// against the catalog version current at intercept time, then the
	// transaction begins. If a migration installed a newer version in
	// between, the snapshot pins a schema the intercept never saw — abort
	// and re-intercept against the fresh version. One iteration in the
	// steady state; the loop spins only while installs land mid-statement.
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		ver := db.eng.Catalog().Head()
		if err := db.interceptStmt(ctx, ver, s); err != nil {
			return nil, retryWrap(attempt, wrapErr("exec", "", err))
		}
		tx := db.eng.Begin()
		// Pin ctx (and its span) as the transaction's statement context for
		// the whole statement, not just the ExecPreparedContext window: Commit
		// runs after that window closes and still reads the span through it.
		tx.SetContext(ctx)
		if db.eng.CatalogAt(tx.Snapshot().Seq) != ver {
			_ = db.eng.Abort(tx)
			continue
		}
		res, err := db.eng.ExecPreparedContext(ctx, tx, s)
		if err != nil {
			// The statement error is the caller's failure; the rollback drops
			// the transaction's buffered redo without touching the log.
			_ = db.eng.Abort(tx)
			return nil, retryWrap(attempt, wrapErr("exec", "", err))
		}
		if err := db.eng.Commit(tx); err != nil {
			return nil, retryWrap(attempt, wrapErr("commit", "", err))
		}
		return res, nil
	}
}

// retryWrap annotates an error that surfaced only after the optimistic
// capture/revalidate loop restarted the statement at least once, so the
// caller can see the failure came from a re-intercepted run. It wraps with
// %w — never %v — so errors.Is/As still reach the sentinel and the *Error
// underneath; a restart must not strip the error taxonomy.
func retryWrap(attempt int, err error) error {
	if attempt == 0 || err == nil {
		return err
	}
	return fmt.Errorf("after %d catalog-install restart(s): %w", attempt, err)
}

// interceptStmt is BullFrog's request interception (paper §2.1): reject
// retired tables, and for requests over tables under migration, migrate the
// potentially relevant tuples before the request runs. UPDATE and DELETE are
// handled exactly like SELECT — their WHERE drives a migration first, then
// the original request runs on the new schema. INSERT needs no prior
// migration here; constraint checks widen the scope via the engine hook.
// All schema decisions (retired marks, view expansion) read ver, the catalog
// version the caller's snapshot pins, never the moving head. A statement
// template's literals (s.Args) bind into a WHERE only when a migration needs
// it, so transposition sees what the plain parse of the text would give.
func (db *DB) interceptStmt(ctx context.Context, ver *catalog.Version, s engine.Stmt) error {
	switch t := s.AST.(type) {
	case *sql.SelectStmt:
		return db.interceptSelect(ctx, ver, t, s.Args)
	case *sql.UpdateStmt:
		if err := db.checkRetired(ver, t.Table); err != nil {
			return err
		}
		return db.ctrl.EnsureForTableContext(ctx, t.Table, t.Alias, t.Where, s.Args)
	case *sql.DeleteStmt:
		if err := db.checkRetired(ver, t.Table); err != nil {
			return err
		}
		return db.ctrl.EnsureForTableContext(ctx, t.Table, t.Alias, t.Where, s.Args)
	case *sql.InsertStmt:
		if err := db.checkRetired(ver, t.Table); err != nil {
			return err
		}
		if t.Select != nil {
			return db.interceptSelect(ctx, ver, t.Select, s.Args)
		}
		return nil
	case *sql.ExplainStmt:
		return db.interceptStmt(ctx, ver, engine.Plain(t.Inner))
	default:
		return nil
	}
}

func (db *DB) checkRetired(ver *catalog.Version, table string) error {
	if ver.Retired(table) {
		return &Error{
			Code:  CodeRetiredTable,
			Op:    "exec",
			Table: table,
			Err:   fmt.Errorf("%w: %q", core.ErrRetiredTable, table),
		}
	}
	return nil
}

func (db *DB) interceptSelect(ctx context.Context, ver *catalog.Version, s *sql.SelectStmt, args []types.Datum) error {
	for _, ref := range s.From {
		if ref.Subquery != nil {
			if err := db.interceptSelect(ctx, ver, ref.Subquery, args); err != nil {
				return err
			}
			continue
		}
		if err := db.checkRetired(ver, ref.Name); err != nil {
			return err
		}
		// Views expand to their defining query, which may reference tables
		// under migration; recurse (without the outer WHERE — predicates
		// over view outputs don't transpose here, so the view's base tables
		// fall back to their full scope, the safe superset).
		if ver.HasView(ref.Name) {
			if v, err := ver.View(ref.Name); err == nil {
				if def, ok := v.Def.(*sql.SelectStmt); ok {
					if err := db.interceptSelect(ctx, ver, def, nil); err != nil {
						return err
					}
				}
			}
			continue
		}
		if err := db.ctrl.EnsureForTableContext(ctx, ref.Name, ref.Alias, s.Where, args); err != nil {
			return err
		}
	}
	return nil
}

// Txn is a client transaction handle for programmatic (non-SQL) access; it
// holds the client gate for its lifetime.
type Txn struct {
	db    *DB
	inner *txn.Txn
	done  bool
}

// Begin starts a client transaction (holding the gate).
func (db *DB) Begin() *Txn {
	db.gate.Enter()
	return &Txn{db: db, inner: db.eng.Begin()}
}

// Raw returns the engine-level transaction.
func (t *Txn) Raw() *txn.Txn { return t.inner }

// Exec runs SQL inside the transaction (with migration interception).
func (t *Txn) Exec(src string) (*Result, error) {
	return t.ExecContext(nil, src)
}

// ExecContext is Exec bounded by the statement's context: migration waits
// and lock-queue parking stop when ctx is done, returning its cause. A nil
// ctx waits without cancellation bound. The transaction itself stays open
// either way — the caller decides whether to retry, Commit, or Abort.
func (t *Txn) ExecContext(ctx context.Context, src string) (*Result, error) {
	stmts, err := t.db.eng.Prepare(src)
	if err != nil {
		return nil, err
	}
	// A client transaction's snapshot is fixed at Begin, so the catalog
	// version it resolves tables through is too — pin it once and intercept
	// every statement against it.
	ver := t.db.eng.CatalogAt(t.inner.Snapshot().Seq)
	var last *Result = &Result{}
	for _, s := range stmts {
		if err := t.db.interceptStmt(ctx, ver, s); err != nil {
			return nil, wrapErr("exec", "", err)
		}
		res, err := t.db.eng.ExecPreparedContext(ctx, t.inner, s)
		if err != nil {
			return nil, wrapErr("exec", "", err)
		}
		last = res
	}
	return last, nil
}

// Commit commits and releases the gate.
func (t *Txn) Commit() error {
	if t.done {
		return txn.ErrTxnDone
	}
	t.done = true
	defer t.db.gate.Leave()
	return wrapErr("commit", "", t.db.eng.Commit(t.inner))
}

// Abort rolls back and releases the gate. With commit-time batch logging the
// transaction's buffered redo is dropped without touching the log, so the
// rollback cannot fail on a bad log device.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	defer t.db.gate.Leave()
	return wrapErr("abort", "", t.db.eng.Abort(t.inner))
}
