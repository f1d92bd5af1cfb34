package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/obs/trace"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// ErrRetiredTable is returned when a client statement touches a table that
// was retired by the big flip (paper §2.1: "the old schema becomes inactive,
// and all subsequent requests that access it are rejected").
var ErrRetiredTable = errors.New("core: relation belongs to a retired schema version")

// ErrMigrationActive is returned by Start when a migration is already
// registered; Reset the completed one first (one evolution per deploy).
var ErrMigrationActive = errors.New("core: a migration is already active")

// Stats counts a statement runtime's migration activity.
type Stats struct {
	RowsMigrated int64 // rows inserted into output tables by migration
	Transforms   int64 // migration transactions executed
	SkipWaits    int64 // Algorithm 1 loop repeats caused by busy granules
	DroppedRows  int64 // rows rejected by new-schema constraints (§2.4)
}

type statCounters struct {
	rowsMigrated atomic.Int64
	transforms   atomic.Int64
	skipWaits    atomic.Int64
	droppedRows  atomic.Int64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		RowsMigrated: s.rowsMigrated.Load(),
		Transforms:   s.transforms.Load(),
		SkipWaits:    s.skipWaits.Load(),
		DroppedRows:  s.droppedRows.Load(),
	}
}

// outputRuntime binds an OutputSpec to its catalog table.
type outputRuntime struct {
	spec OutputSpec
	tbl  *catalog.Table
}

// StmtRuntime is the live state of one migration statement: trackers,
// resolved tables, and counters.
type StmtRuntime struct {
	ctrl         *Controller
	Stmt         *Statement
	drivingTbl   *catalog.Table
	drivingAlias string
	outputs      []outputRuntime
	bitmap       *Bitmap      // bitmap categories
	hash         *HashTracker // hashmap categories
	groupOrds    []int        // driving-table ordinals of the group key
	seedTbl      *catalog.Table
	seedOrds     []int
	// upstream is the runtime producing this statement's driving table when
	// the driving table is itself a still-migrating output (a chained
	// migration, v2→v3 while v1→v2 backfills). Lazy ensures first pull the
	// relevant rows through the upstream runtime; this runtime cannot
	// complete before upstream does.
	upstream   *StmtRuntime
	complete   atomic.Bool
	completeAt atomic.Int64 // unix nanos
	stats      statCounters
	// bgOwned marks that a Background pool already owns this runtime, so the
	// pool started for a chained migration skips the earlier chain entries.
	bgOwned atomic.Bool

	// Progress-rate window for ProgressReport's ETA (see progress.go).
	progMu    sync.Mutex
	progAt    time.Time
	progCount int64
	progRate  float64
}

// Complete reports whether every granule/group of this statement migrated.
func (rt *StmtRuntime) Complete() bool { return rt.complete.Load() }

// upstreamDone reports whether this runtime's driving table has reached its
// final extent: either it was frozen by the big flip (no upstream), or the
// upstream statement producing it has completed.
func (rt *StmtRuntime) upstreamDone() bool {
	return rt.upstream == nil || rt.upstream.complete.Load()
}

// syncBitmapSize grows a chained statement's bitmap to the driving heap's
// final size once upstream completed (the heap is frozen from then on: the
// input is retired, so only upstream migration transactions could append).
// The appended granules start unmigrated; their rows may already exist in
// the outputs from pass-through transforms, which the unique-index dedup
// absorbs when they migrate again. No-op for hash runtimes and while the
// upstream is still filling the heap.
func (rt *StmtRuntime) syncBitmapSize() {
	if rt.bitmap == nil || !rt.upstreamDone() {
		return
	}
	rt.bitmap.Grow(rt.drivingTbl.Heap.NumSlots())
}

// Stats returns a snapshot of the runtime's counters.
func (rt *StmtRuntime) Stats() Stats { return rt.stats.snapshot() }

// Tracker returns the statement's tracker (bitmap or hash).
func (rt *StmtRuntime) Tracker() Tracker {
	if rt.bitmap != nil {
		return rt.bitmap
	}
	return rt.hash
}

// Controller coordinates an active BullFrog migration: it owns the trackers,
// runs the per-transaction migration loop (Algorithm 1), implements the
// engine hook for constraint-driven migration widening, and reports
// progress. At most one migration is active at a time (as in the paper's
// deployment model: one evolution transaction per deployment).
type Controller struct {
	db   *engine.DB
	mode ConflictMode

	// shadow marks a controller used by the multi-step baseline: trackers
	// and transforms run, but inputs are not retired and the engine hook is
	// not installed (the old schema stays authoritative until the switch).
	shadow bool

	// backoff between Algorithm 1 loop iterations while waiting on busy
	// granules (line 10's re-check loop).
	backoff time.Duration

	mu sync.RWMutex
	// migs is the active migration chain, in Start order. One entry is the
	// paper's deployment model; later entries are chained migrations whose
	// driving tables may be earlier entries' still-backfilling outputs
	// (v1→v2→v3 with v2 incomplete). cleaned counts the prefix of migs whose
	// end-of-migration cleanup (DropInputsOnComplete) already ran.
	migs     []*Migration
	cleaned  int
	runtimes []*StmtRuntime
	byOutput map[string]*StmtRuntime
	retired  map[string]bool
	done     chan struct{} // non-nil while a migration is active; closed at completion
	// completionErr records the end-of-migration cleanup failure (DropTable of
	// retired inputs). It is written under mu before done is closed, so every
	// AwaitMigration waiter observes it.
	completionErr error

	migTxns     sync.Map // txn id -> struct{}; migration transactions bypass the hook
	startedAt   time.Time
	completedAt atomic.Int64 // unix nanos; 0 = not complete

	// failTransforms > 0 makes that many transforms fail (tests exercise the
	// abort/release path of §3.5 with it).
	failTransforms atomic.Int32

	// trackingDisabled turns off status maintenance entirely (the paper's
	// §4.4.1 "no bitmap" ablation, Figure 9). Correct only when the workload
	// accesses each granule exactly once.
	trackingDisabled atomic.Bool

	// tr is the optional tracer (nil = tracing disabled; every call on it is
	// nil-safe). migSpan is the active migration's span, finished at
	// completion and dropped by Reset.
	tr      *trace.Tracer
	migSpan atomic.Pointer[trace.Span]
}

// SetTracer attaches a tracer for migration spans and backfill/pacer events.
// Call before Start; a nil tracer disables tracing.
func (c *Controller) SetTracer(tr *trace.Tracer) { c.tr = tr }

// MigrationSpan returns the active migration's span (nil when tracing is off
// or no migration is active).
func (c *Controller) MigrationSpan() *trace.Span { return c.migSpan.Load() }

// SetTrackingDisabled toggles the §4.4.1 no-tracking ablation: claims always
// succeed and no migration status is recorded. Use only with workloads that
// touch each granule exactly once; background migration must stay off.
func (c *Controller) SetTrackingDisabled(v bool) { c.trackingDisabled.Store(v) }

// InjectTransformFailures makes the next n migration transforms fail after
// claiming their granules, exercising abort handling. Test use only.
func (c *Controller) InjectTransformFailures(n int32) { c.failTransforms.Store(n) }

// errInjected is the fault-injection error.
var errInjected = errors.New("core: injected transform failure")

// Dedup-map pools for the lazy migration passes: bitmapPass and hashPass run
// on every intercepted client request, so their candidate-dedup maps come
// from pools instead of being allocated per pass.
var (
	granuleSeenPool = sync.Pool{New: func() any { return make(map[int64]bool, 64) }}
	keySeenPool     = sync.Pool{New: func() any { return make(map[string]bool, 64) }}
)

func putGranuleSeen(m map[int64]bool) {
	clear(m)
	granuleSeenPool.Put(m)
}

func putKeySeen(m map[string]bool) {
	clear(m)
	keySeenPool.Put(m)
}

func (c *Controller) maybeInjectFailure() error {
	for {
		n := c.failTransforms.Load()
		if n <= 0 {
			return nil
		}
		if c.failTransforms.CompareAndSwap(n, n-1) {
			return errInjected
		}
	}
}

// NewController creates a controller over the database.
func NewController(db *engine.DB, mode ConflictMode) *Controller {
	return &Controller{
		db:       db,
		mode:     mode,
		backoff:  200 * time.Microsecond,
		byOutput: map[string]*StmtRuntime{},
		retired:  map[string]bool{},
	}
}

// DB returns the underlying engine.
func (c *Controller) DB() *engine.DB { return c.db }

// Mode returns the conflict-detection mode.
func (c *Controller) Mode() ConflictMode { return c.mode }

func norm(s string) string { return strings.ToLower(s) }

// Start registers and activates a migration: setup DDL runs, input tables
// are retired (the big flip), trackers are allocated, and the engine hook is
// installed. The new schema is active the moment Start returns — no data has
// moved yet.
//
// A second Start while a migration is active is accepted when the new
// migration chains cleanly onto the active one: its outputs are fresh tables
// and each driving table is either untouched by the active chain or an
// active statement's still-backfilling output (which the new migration must
// retire). Anything else — re-driving a table an incomplete statement
// already drives, or writing an output some statement owns — returns
// ErrMigrationActive: Reset the chain first.
func (c *Controller) Start(m *Migration) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkChainConflicts(m); err != nil {
		return err
	}
	if m.Setup != "" {
		// runSetup's summary includes re-acquiring c.mu (the lazy-migration
		// hook calls back into the controller), but the hook paths cannot
		// re-enter here: for a first migration the hook is only installed at
		// the end of Start, and for a chained one the setup DDL is pure DDL
		// over fresh tables, which never reaches an ensure path.
		//lint:ignore lockflow the migration hook that re-enters the controller cannot fire during setup DDL
		if err := c.runSetup(m.Setup); err != nil {
			return fmt.Errorf("core: migration setup: %w", err)
		}
	}
	var runtimes []*StmtRuntime
	byOutput := map[string]*StmtRuntime{}
	for k, rt := range c.byOutput {
		byOutput[k] = rt
	}
	for _, stmt := range m.Statements {
		rt, err := c.buildRuntime(stmt, m, byOutput)
		if err != nil {
			return err
		}
		runtimes = append(runtimes, rt)
		for _, out := range rt.outputs {
			if byOutput[norm(out.tbl.Def.Name)] != nil {
				return fmt.Errorf("core: output table %q used by two statements", out.tbl.Def.Name)
			}
			byOutput[norm(out.tbl.Def.Name)] = rt
		}
	}
	if m.PrevalidateUnique {
		for _, rt := range runtimes {
			if err := c.prevalidateUnique(rt); err != nil {
				return err
			}
		}
	}
	sp := c.tr.StartMigration(m.Name)
	if !c.shadow {
		// The big flip (paper §2.1) as a catalog version install: a new
		// version marking the inputs retired is published with a CAS at a
		// reserved commit sequence, so in-flight statements keep the schema
		// their snapshot pinned and nothing drains. (The eager and multi-step
		// baselines still flip under the gate; see eager.go.)
		installStart := time.Now()
		if _, err := c.db.InstallCatalogVersion(m.Name, m.VersionMeta, m.RetireInputs); err != nil {
			c.tr.Finish(sp) // migration never activated; don't leave the span live
			return fmt.Errorf("core: installing catalog version: %w", err)
		}
		sp.AddSince(trace.PhaseInstall, installStart)
		for _, name := range m.RetireInputs {
			c.retired[norm(name)] = true
		}
	}
	if sp != nil {
		c.migSpan.Store(sp)
		c.tr.Event(trace.EvMigrationStart, sp.ID(), int64(len(m.Statements)), m.Name)
	}
	if len(c.migs) == 0 {
		c.startedAt = time.Now()
	}
	c.migs = append(c.migs, m)
	c.runtimes = append(c.runtimes, runtimes...)
	c.byOutput = byOutput
	// A chained Start reopens a chain whose earlier migrations already
	// completed: fresh done channel, completion clock rewound.
	if c.done == nil || c.completedAt.Load() != 0 {
		c.done = make(chan struct{})
	}
	c.completedAt.Store(0)
	c.completionErr = nil
	if !c.shadow {
		c.db.SetMigrationHook(c)
	}
	// The big flip changes what plans may legally touch (retired inputs, new
	// outputs); drop everything compiled before it.
	c.db.InvalidatePlans()
	return nil
}

// checkChainConflicts decides whether m may start given the active chain
// (caller holds c.mu). The rule: a chained migration must not re-drive a
// table an incomplete statement already drives, and must not target an
// output some active statement owns.
func (c *Controller) checkChainConflicts(m *Migration) error {
	if len(c.migs) == 0 {
		return nil
	}
	active := c.migs[len(c.migs)-1].Name
	for _, rt := range c.runtimes {
		if rt.complete.Load() {
			continue
		}
		for _, stmt := range m.Statements {
			if norm(drivingTableName(stmt)) == norm(rt.drivingTbl.Def.Name) {
				return fmt.Errorf("%w: %q (statement %q drives %q, still migrating)",
					ErrMigrationActive, active, rt.Stmt.Name, rt.drivingTbl.Def.Name)
			}
		}
	}
	for _, stmt := range m.Statements {
		for _, out := range stmt.Outputs {
			if c.byOutput[norm(out.Table)] != nil {
				return fmt.Errorf("%w: %q (output %q is owned by an active statement)",
					ErrMigrationActive, active, out.Table)
			}
		}
	}
	return nil
}

// runSetup executes migration setup DDL statement by statement, skipping
// CREATE TABLE for tables that already exist (and the indexes/views layered
// on them). That makes setup replay idempotent: recovery re-runs a completed
// migration's Start against a schema script that may already contain the
// new-version tables, and a generated inverse migration re-creates input
// tables that were never dropped — neither may fail with a duplicate-table
// error.
func (c *Controller) runSetup(setup string) error {
	stmts, err := sql.Parse(setup)
	if err != nil {
		return err
	}
	existing := map[string]bool{}
	for _, s := range stmts {
		switch st := s.(type) {
		case *sql.CreateTableStmt:
			if c.db.Catalog().HasTable(st.Name) {
				existing[norm(st.Name)] = true
				continue
			}
		case *sql.CreateIndexStmt:
			if existing[norm(st.Table)] {
				continue // the pre-existing table carries its indexes already
			}
		case *sql.CreateViewStmt:
			if c.db.Catalog().HasView(st.Name) {
				continue
			}
		}
		tx := c.db.Begin()
		if _, err := c.db.ExecStmt(tx, s); err != nil {
			_ = c.db.Abort(tx)
			return err
		}
		if err := c.db.Commit(tx); err != nil {
			return err
		}
	}
	return nil
}

// drivingTableName resolves a statement's driving alias to the underlying
// table name through the first output's FROM clause.
func drivingTableName(stmt *Statement) string {
	for _, ref := range stmt.Outputs[0].Def.From {
		if norm(ref.AliasOrName()) == norm(stmt.Driving) {
			return ref.Name
		}
	}
	return stmt.Driving
}

// buildRuntime constructs the live state for one statement of migration m.
// byOutput is the merged output→runtime map accumulated so far (active chain
// plus m's earlier statements); a driving table found there is a chained
// input and links the new runtime to its upstream producer.
func (c *Controller) buildRuntime(stmt *Statement, m *Migration, byOutput map[string]*StmtRuntime) (*StmtRuntime, error) {
	rt := &StmtRuntime{ctrl: c, Stmt: stmt, drivingAlias: norm(stmt.Driving)}
	// Resolve the driving table through the first output's FROM clause.
	first := stmt.Outputs[0].Def
	for _, ref := range first.From {
		if norm(ref.AliasOrName()) == rt.drivingAlias {
			tbl, err := c.db.Catalog().Table(ref.Name)
			if err != nil {
				return nil, err
			}
			rt.drivingTbl = tbl
		}
	}
	if rt.drivingTbl == nil {
		return nil, fmt.Errorf("core: statement %q: cannot resolve driving table %q", stmt.Name, stmt.Driving)
	}
	if up := byOutput[norm(rt.drivingTbl.Def.Name)]; up != nil && !up.complete.Load() {
		// Chained input: the driving table is still being filled by an
		// earlier statement. Two preconditions keep that sound: the input
		// must be retired (so only upstream migration transactions write it
		// — a granule ensured here can only gain rows through the upstream
		// ensures we issue first), and every output needs a unique index
		// (pass-through transforms before upstream completes dedup there).
		retired := false
		for _, name := range m.RetireInputs {
			if norm(name) == norm(rt.drivingTbl.Def.Name) {
				retired = true
			}
		}
		if !retired {
			return nil, fmt.Errorf("core: statement %q: chained driving table %q must be in RetireInputs while %q is still migrating",
				stmt.Name, rt.drivingTbl.Def.Name, up.Stmt.Name)
		}
		rt.upstream = up
	}
	for _, out := range stmt.Outputs {
		tbl, err := c.db.Catalog().Table(out.Table)
		if err != nil {
			return nil, fmt.Errorf("core: statement %q: output %w (create it in Migration.Setup)", stmt.Name, err)
		}
		rt.outputs = append(rt.outputs, outputRuntime{spec: out, tbl: tbl})
		if len(tbl.UniqueIndexes()) == 0 {
			if c.mode == DetectOnInsert {
				return nil, fmt.Errorf("core: on-conflict mode requires a unique index on output %q (§3.7)", out.Table)
			}
			if rt.upstream != nil && stmt.Category.UsesBitmap() {
				return nil, fmt.Errorf("core: chained statement %q requires a unique index on output %q (pass-through rows dedup there)",
					stmt.Name, out.Table)
			}
		}
	}
	if stmt.Category.UsesBitmap() {
		gran := stmt.Granularity
		if gran <= 0 {
			gran = 1
		}
		rt.bitmap = NewBitmap(rt.drivingTbl.Heap.NumSlots(), gran)
	} else {
		rt.hash = NewHashTracker()
		for _, colName := range stmt.GroupBy {
			ord := rt.drivingTbl.Def.ColumnIndex(colName)
			if ord < 0 {
				return nil, fmt.Errorf("core: statement %q: group column %q not in %q", stmt.Name, colName, rt.drivingTbl.Def.Name)
			}
			rt.groupOrds = append(rt.groupOrds, ord)
		}
	}
	if stmt.Seed != nil {
		for _, ref := range stmt.Seed.Def.From {
			if norm(ref.AliasOrName()) == norm(stmt.Seed.Driving) {
				tbl, err := c.db.Catalog().Table(ref.Name)
				if err != nil {
					return nil, err
				}
				rt.seedTbl = tbl
			}
		}
		if rt.seedTbl == nil {
			return nil, fmt.Errorf("core: statement %q: cannot resolve seed table", stmt.Name)
		}
		for _, colName := range stmt.Seed.GroupBy {
			ord := rt.seedTbl.Def.ColumnIndex(colName)
			if ord < 0 {
				return nil, fmt.Errorf("core: statement %q: seed group column %q not in %q", stmt.Name, colName, rt.seedTbl.Def.Name)
			}
			rt.seedOrds = append(rt.seedOrds, ord)
		}
		if len(rt.seedOrds) != len(rt.groupOrds) {
			return nil, fmt.Errorf("core: statement %q: seed group arity mismatch", stmt.Name)
		}
	}
	return rt, nil
}

// prevalidateUnique runs the §2.4 synchronous check: compute every output's
// transform eagerly (read-only) and fail on any unique-key duplicate, so the
// error surfaces before the new schema goes live.
func (c *Controller) prevalidateUnique(rt *StmtRuntime) error {
	tx := c.db.Begin()
	defer tx.Abort()
	for _, out := range rt.outputs {
		uniques := out.tbl.UniqueIndexes()
		if len(uniques) == 0 {
			continue
		}
		plan, err := c.db.PlanSelect(out.spec.Def)
		if err != nil {
			return err
		}
		seen := make(map[string]struct{})
		err = plan.Execute(tx, func(row types.Row) error {
			for _, idx := range uniques {
				def := idx.Def()
				keyRow := make(types.Row, len(def.Columns))
				null := false
				for i, ord := range def.Columns {
					if row[ord].IsNull() {
						null = true
						break
					}
					keyRow[i] = row[ord]
				}
				if null {
					continue
				}
				k := fmt.Sprintf("%d|%s", def.ID, types.EncodeKey(nil, keyRow))
				if _, dup := seen[k]; dup {
					return fmt.Errorf("core: migration %q would violate unique index %q on %q (duplicate key %v); rejected by synchronous pre-check (§2.4)",
						rt.Stmt.Name, def.Name, out.tbl.Def.Name, keyRow)
				}
				seen[k] = struct{}{}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Reset clears a completed migration so the next one can Start — the
// continuous-deployment cadence the paper motivates (multiple schema changes
// per day). It fails while data is still moving.
func (c *Controller) Reset() error {
	if !c.Complete() {
		name := ""
		c.mu.RLock()
		if len(c.migs) > 0 {
			name = c.migs[len(c.migs)-1].Name
		}
		c.mu.RUnlock()
		return fmt.Errorf("core: cannot reset: migration %q is still in progress", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.migs) == 0 {
		return nil
	}
	c.db.SetMigrationHook(nil)
	// Un-retire any inputs the flips' catalog installs marked (inputs already
	// dropped at completion carry no mark; ClearRetired ignores them).
	for _, m := range c.migs {
		c.db.Catalog().ClearRetired(m.RetireInputs...)
	}
	c.migs = nil
	c.cleaned = 0
	c.runtimes = nil
	c.byOutput = map[string]*StmtRuntime{}
	c.retired = map[string]bool{}
	c.done = nil
	c.completionErr = nil
	c.completedAt.Store(0)
	c.migSpan.Store(nil)
	c.db.InvalidatePlans()
	return nil
}

// Migration returns the most recently started migration of the active chain,
// or nil.
func (c *Controller) Migration() *Migration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.migs) == 0 {
		return nil
	}
	return c.migs[len(c.migs)-1]
}

// Migrations returns the active migration chain in Start order.
func (c *Controller) Migrations() []*Migration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Migration(nil), c.migs...)
}

// Runtimes returns the active statement runtimes.
func (c *Controller) Runtimes() []*StmtRuntime {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*StmtRuntime(nil), c.runtimes...)
}

// RuntimeFor returns the runtime owning the given output table, or nil.
func (c *Controller) RuntimeFor(outputTable string) *StmtRuntime {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byOutput[norm(outputTable)]
}

// IsRetired reports whether client access to the table is rejected.
func (c *Controller) IsRetired(table string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.retired[norm(table)]
}

// Complete reports whether every statement finished migrating.
func (c *Controller) Complete() bool {
	c.mu.RLock()
	rts := c.runtimes
	active := len(c.migs) > 0
	c.mu.RUnlock()
	if !active {
		return true
	}
	for _, rt := range rts {
		if !rt.complete.Load() {
			return false
		}
	}
	return true
}

// CompletedAt returns when the migration finished (zero time if not yet).
func (c *Controller) CompletedAt() time.Time {
	n := c.completedAt.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// StartedAt returns when the migration was registered.
func (c *Controller) StartedAt() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.startedAt
}

// markRuntimeComplete records completion and, when the whole migration is
// done, performs end-of-migration cleanup (§2.2: "the migration is complete
// and the old schema can be deleted"). The returned error is any cleanup
// failure (DropTable of a retired input); it is also recorded as the
// controller's completion error — before the done channel closes — so
// AwaitMigration waiters surface it even when the completing worker is a
// background goroutine with no caller.
func (c *Controller) markRuntimeComplete(rt *StmtRuntime) error {
	if rt.upstream != nil && !rt.upstream.complete.Load() {
		// A chained runtime's driving table is still being filled upstream;
		// whatever looks "complete" now can still gain rows. The completion
		// check re-fires once upstream finishes.
		return nil
	}
	if !rt.complete.CompareAndSwap(false, true) {
		return nil
	}
	rt.completeAt.Store(time.Now().UnixNano())
	if !c.Complete() {
		return nil
	}
	if !c.completedAt.CompareAndSwap(0, time.Now().UnixNano()) {
		return nil // another worker already ran the end-of-migration step
	}
	if sp := c.migSpan.Load(); sp != nil {
		c.tr.Finish(sp)
		var rows int64
		for _, r := range c.Runtimes() {
			rows += r.stats.rowsMigrated.Load()
		}
		c.tr.Event(trace.EvMigrationComplete, sp.ID(), rows, sp.Name())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	dropped := false
	// Per-migration cleanup over the uncleaned suffix of the chain, so a
	// chained Start after a completed migration does not re-drop its inputs.
	for ; c.cleaned < len(c.migs); c.cleaned++ {
		m := c.migs[c.cleaned]
		if !m.DropInputsOnComplete {
			continue
		}
		for _, name := range m.RetireInputs {
			// DropTable clears the head version's retire mark with the table.
			if derr := c.db.Catalog().DropTable(name); derr != nil {
				err = errors.Join(err, fmt.Errorf("core: end-of-migration drop of %q: %w", name, derr))
			}
			delete(c.retired, norm(name))
			dropped = true
		}
	}
	if dropped {
		// The drops bypassed the SQL DDL path; cached plans may still
		// reference the dropped tables.
		c.db.InvalidatePlans()
	}
	c.completionErr = err
	if c.done != nil {
		close(c.done) // wake AwaitMigration waiters; completionErr is set first
	}
	return err
}

// CompletionErr returns the end-of-migration cleanup error, or nil. It is
// meaningful once the migration completed and is cleared by Reset.
func (c *Controller) CompletionErr() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.completionErr
}

// AwaitMigration blocks until the active migration completes or ctx is
// done, without polling: completion closes a channel that waiters select on.
// It returns immediately when no migration is active. On completion it
// returns the migration's completion error (end-of-migration cleanup
// failure), if any.
func (c *Controller) AwaitMigration(ctx context.Context) error {
	c.mu.RLock()
	ch := c.done
	c.mu.RUnlock()
	if ch == nil || c.Complete() {
		return c.CompletionErr()
	}
	select {
	case <-ch:
		return c.CompletionErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- migration transactions ---

// beginMigTxn starts a migration transaction with ctx as its statement
// context (nil = no cancellation bound), so lock waits inside the transform
// stop when the intercepted client statement is cancelled.
func (c *Controller) beginMigTxn(ctx context.Context) *txn.Txn {
	tx := c.db.Begin()
	tx.SetContext(ctx)
	c.migTxns.Store(tx.ID(), struct{}{})
	return tx
}

func (c *Controller) commitMigTxn(tx *txn.Txn) error {
	defer c.migTxns.Delete(tx.ID())
	return c.db.Commit(tx)
}

func (c *Controller) abortMigTxn(tx *txn.Txn) {
	c.migTxns.Delete(tx.ID())
	// Batch logging drops the buffered redo with the transaction; nothing
	// reaches the log, so Abort cannot fail.
	_ = c.db.Abort(tx)
}

// isMigTxn reports whether the transaction is a migration transaction.
func (c *Controller) isMigTxn(tx *txn.Txn) bool {
	_, ok := c.migTxns.Load(tx.ID())
	return ok
}

// BeforeKeyCheck implements engine.MigrationHook: before the engine checks a
// unique key or foreign key against a table under migration, the rows that
// could produce that key are migrated (paper §2.1's constraint-driven scope
// widening, evaluated in §4.5).
func (c *Controller) BeforeKeyCheck(tx *txn.Txn, table string, cols []int, key types.Row) error {
	if c.isMigTxn(tx) {
		return nil
	}
	rt := c.RuntimeFor(table)
	if rt == nil || rt.complete.Load() {
		return nil
	}
	outTbl, err := c.db.Catalog().Table(table)
	if err != nil {
		return nil
	}
	var pred expr.Expr
	for i, ord := range cols {
		name := outTbl.Def.Columns[ord].Name
		pred = expr.CombineConjuncts(pred,
			expr.NewBinOp(expr.OpEq, expr.NewCol("", name), expr.NewConst(key[i])))
	}
	return c.EnsureMigratedContext(tx.Context(), table, pred)
}

// obsMig returns the migration metrics shared through the engine's Set.
func (c *Controller) obsMig() *obs.MigrationMetrics { return c.db.Obs().Migration }

// EnsureForTable migrates data relevant to a client request on `table`
// filtered by `where`. Only the conjuncts fully resolvable against the
// table's columns narrow the migration; everything else falls back to the
// table's full scope for safety (superset semantics, paper §2.4). alias is
// the request's binding name for the table ("" = the table name).
func (c *Controller) EnsureForTable(table, alias string, where expr.Expr) error {
	return c.EnsureForTableContext(nil, table, alias, where, nil)
}

// EnsureForTableContext is EnsureForTable bounded by the statement's context:
// the busy-granule backoff loop and the migration transactions' lock waits
// stop when ctx is done. A nil ctx waits without cancellation bound. args
// holds the literal values of a statement template whose where has Params
// (nil for a plain statement); they are bound only once a migration is
// known to need the predicate.
func (c *Controller) EnsureForTableContext(ctx context.Context, table, alias string, where expr.Expr, args []types.Datum) error {
	rt := c.RuntimeFor(table)
	if rt == nil || rt.complete.Load() {
		return nil
	}
	where = expr.BindParams(where, args)
	tbl, err := c.db.Catalog().Table(table)
	if err != nil {
		return nil // engine will surface the real error
	}
	if alias == "" {
		alias = table
	}
	var pred expr.Expr
	for _, conj := range expr.SplitConjuncts(where) {
		ok := true
		for _, col := range expr.CollectCols(conj) {
			if col.Table != "" && !strings.EqualFold(col.Table, alias) {
				ok = false
				break
			}
			if tbl.Def.ColumnIndex(col.Name) < 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Strip qualifiers so the predicate speaks the output table's
		// column language for transposition.
		stripped, err := expr.Transform(conj, func(x expr.Expr) (expr.Expr, error) {
			if col, ok := x.(*expr.Col); ok {
				return expr.NewCol("", col.Name), nil
			}
			return x, nil
		})
		if err != nil {
			return err
		}
		pred = expr.CombineConjuncts(pred, stripped)
	}
	return c.EnsureMigratedContext(ctx, table, pred)
}

// EnsureMigrated migrates, before the caller proceeds, every old-schema
// tuple or group potentially relevant to a client request against
// outputTable whose WHERE-equivalent predicate is pred (nil = everything).
// This is the entry point of the paper's request-driven lazy migration.
func (c *Controller) EnsureMigrated(outputTable string, pred expr.Expr) error {
	return c.EnsureMigratedContext(nil, outputTable, pred)
}

// EnsureMigratedContext is EnsureMigrated bounded by the statement's context
// (nil = no cancellation bound): a cancelled statement stops waiting on busy
// granules/groups and its migration transactions stop waiting in lock queues,
// returning the context's cause.
func (c *Controller) EnsureMigratedContext(ctx context.Context, outputTable string, pred expr.Expr) error {
	rt := c.RuntimeFor(outputTable)
	if rt == nil || rt.complete.Load() {
		return nil
	}
	start := time.Now()
	err := c.ensureMigrated(ctx, rt, outputTable, pred)
	if err != nil && rt.complete.Load() {
		// The migration completed meanwhile, so everything is migrated; its
		// end-of-migration step may have dropped the inputs this request
		// was still planning against.
		err = nil
	}
	c.obsMig().EnsureLatency.ObserveSince(start)
	if sp := trace.FromContext(ctx); sp != nil {
		sp.AddSince(trace.PhaseLazyMigrate, start)
	}
	return err
}

func (c *Controller) ensureMigrated(ctx context.Context, rt *StmtRuntime, outputTable string, pred expr.Expr) error {
	spec := rt.specFor(outputTable)
	filters, err := c.db.TransposeFilters(spec.Def, pred)
	if err != nil {
		return err
	}
	var drivingPred expr.Expr
	for _, f := range filters {
		if norm(f.Alias) == rt.drivingAlias {
			drivingPred = f.Pred
		}
	}
	if rt.bitmap != nil {
		return rt.migrateBitmapPred(ctx, drivingPred)
	}
	// Seeded join migrations must also discover groups that exist only in
	// the secondary table (e.g. stock for never-ordered items): transpose
	// the client predicate through the seed query too.
	var seedPred expr.Expr
	seedScan := false
	if rt.Stmt.Seed != nil {
		seedFilters, err := c.db.TransposeFilters(rt.Stmt.Seed.Def, pred)
		if err == nil {
			seedScan = true
			for _, f := range seedFilters {
				if norm(f.Alias) == norm(rt.Stmt.Seed.Driving) {
					seedPred = f.Pred
				}
			}
		}
	}
	return rt.migrateHashPredSeeded(ctx, drivingPred, seedPred, seedScan)
}

func (rt *StmtRuntime) specFor(outputTable string) *OutputSpec {
	for i := range rt.outputs {
		if norm(rt.outputs[i].tbl.Def.Name) == norm(outputTable) {
			return &rt.outputs[i].spec
		}
	}
	return &rt.outputs[0].spec
}

// --- bitmap migrations (Algorithm 1 over Algorithm 2) ---

func (rt *StmtRuntime) migrateBitmapPred(ctx context.Context, pred expr.Expr) error {
	for {
		busy, err := rt.bitmapPass(ctx, pred, nil, false)
		if err != nil {
			return err
		}
		if busy == 0 {
			return nil
		}
		// Another worker is migrating some of our granules: wait for it to
		// finish or abort, then re-check (Algorithm 1 line 10).
		rt.stats.skipWaits.Add(1)
		rt.noteCollision(ctx, busy)
		if err := sleepCtx(ctx, rt.ctrl.backoff); err != nil {
			return err
		}
	}
}

// noteCollision annotates the statement's span with the migration batch it
// collided with (first collision wins) and emits a granule_collision ring
// event, so a slow statement names what it waited on.
func (rt *StmtRuntime) noteCollision(ctx context.Context, busy int) {
	sp := trace.FromContext(ctx)
	if sp == nil {
		return
	}
	detail := fmt.Sprintf("migration stmt=%s busy=%d", rt.Stmt.Name, busy)
	sp.Collide(detail)
	rt.ctrl.tr.Event(trace.EvCollision, sp.ID(), int64(busy), detail)
}

// bitmapPass runs one iteration of the per-transaction migration loop:
// claim, transform, commit, mark, over either the granules matching pred or
// an explicit granule list (the background migrator's path). ctx (nil ok)
// bounds the migration transaction's lock waits. background attributes
// migrated tuples to the lazy or background counter. It returns how many
// relevant granules were busy (in progress by other workers).
func (rt *StmtRuntime) bitmapPass(ctx context.Context, pred expr.Expr, directGranules []int64, background bool) (busy int, err error) {
	if rt.upstream != nil {
		if !rt.upstream.complete.Load() {
			if directGranules != nil {
				// Background sweeps stay parked while upstream is still
				// filling the driving heap (background.go gates on
				// upstreamDone); a direct-granule pass that raced the gate
				// has nothing sound to do yet.
				return 0, nil
			}
			// Pull the relevant slice of the driving table through the
			// upstream statement first: the predicate is already in the
			// driving table's column language, which is exactly an output
			// predicate for the upstream runtime.
			if err := rt.ctrl.ensureMigrated(ctx, rt.upstream, rt.drivingTbl.Def.Name, pred); err != nil {
				return 0, err
			}
			if !rt.upstream.complete.Load() {
				return 0, rt.passThrough(ctx, pred, background)
			}
		}
		rt.syncBitmapSize()
	}
	tx := rt.ctrl.beginMigTxn(ctx)
	finished := false
	var wip []int64
	defer func() {
		if !finished {
			rt.ctrl.abortMigTxn(tx)
			if rt.ctrl.mode == DetectEarly {
				for _, g := range wip {
					rt.bitmap.ReleaseAbortGranule(g)
				}
			}
		}
	}()

	var candidates []int64
	if directGranules != nil {
		candidates = directGranules
	} else {
		tids, _, serr := rt.ctrl.db.ScanForWrite(tx, rt.drivingTbl, rt.drivingAlias, pred)
		if serr != nil {
			return 0, serr
		}
		seen := granuleSeenPool.Get().(map[int64]bool)
		for _, tid := range tids {
			g := rt.bitmap.GranuleOf(tid.Ordinal(rt.drivingTbl.Heap.PageSize()))
			if !seen[g] {
				seen[g] = true
				candidates = append(candidates, g)
			}
		}
		putGranuleSeen(seen)
	}
	for _, g := range candidates {
		switch rt.claimGranule(g) {
		case Claimed:
			wip = append(wip, g)
		case Busy:
			busy++
		}
	}
	if len(wip) == 0 {
		rt.ctrl.abortMigTxn(tx)
		finished = true // nothing to undo; skip the deferred release
		return busy, nil
	}
	// Claim, then snapshot: the candidate scan ran on the snapshot taken at
	// Begin, and a write committed between Begin and the claim must be seen
	// here, because its NoteWrite found the granule unclaimed and left it
	// to this copy (multistep.go).
	if err := tx.Resnapshot(); err != nil {
		return busy, err
	}
	rows, err := rt.fetchGranuleRows(tx, wip)
	if err != nil {
		return busy, err
	}
	inserted := 0
	if err := rt.transform(tx, rows, &inserted); err != nil {
		return busy, err
	}
	for _, g := range wip {
		rt.ctrl.db.LogRedo(tx, wal.Record{
			Type: wal.RecMigrated, Table: rt.Stmt.Name, Key: GranuleKey(g),
		})
	}
	// Mark trackers from inside the commit (OnCommit runs within Txn.Commit,
	// before the engine releases the WAL commit fence): a checkpoint's
	// snapshot then always agrees with its log cut — it can never miss a
	// granule whose RecMigrated record lives in an about-to-be-deleted
	// segment.
	tx.OnCommit(func() {
		for _, g := range wip {
			rt.markGranuleMigrated(g)
		}
	})
	if err := rt.ctrl.commitMigTxn(tx); err != nil {
		return busy, err
	}
	finished = true
	rt.stats.transforms.Add(1)
	rt.attributeTuples(inserted, background)
	return busy, rt.checkBitmapComplete()
}

// attributeTuples records migrated output rows against the lazy or
// background counter (the paper's "client requests vs. background threads"
// split, Figure 3's two progress drivers).
func (rt *StmtRuntime) attributeTuples(inserted int, background bool) {
	if inserted <= 0 {
		return
	}
	m := rt.ctrl.obsMig()
	if background {
		m.TuplesBackground.Add(int64(inserted))
	} else {
		m.TuplesLazy.Add(int64(inserted))
	}
}

// claimGranule applies the conflict-detection mode: early detection uses the
// lock-bit protocol; on-insert detection only skips already-migrated
// granules and lets the unique index resolve duplicates (§3.7).
func (rt *StmtRuntime) claimGranule(g int64) ClaimResult {
	if rt.ctrl.trackingDisabled.Load() {
		return Claimed
	}
	if rt.ctrl.mode == DetectEarly {
		return rt.bitmap.TryClaimGranule(g)
	}
	if rt.bitmap.IsMigratedGranule(g) {
		return Done
	}
	return Claimed
}

func (rt *StmtRuntime) markGranuleMigrated(g int64) {
	if rt.ctrl.trackingDisabled.Load() {
		return
	}
	if rt.ctrl.mode == DetectEarly {
		rt.bitmap.MarkMigratedGranule(g)
	} else {
		rt.bitmap.RestoreMigratedGranule(g) // idempotent under duplicated work
	}
}

// checkBitmapComplete runs the end-of-migration step when the bitmap filled;
// the returned error is the cleanup failure from markRuntimeComplete. A
// chained runtime first syncs its bitmap to the frozen heap — before the
// upstream statement completes, a full-looking bitmap proves nothing (the
// heap can still grow) and completion is deferred.
func (rt *StmtRuntime) checkBitmapComplete() error {
	if !rt.upstreamDone() {
		return nil
	}
	rt.syncBitmapSize()
	if rt.bitmap.Complete() {
		return rt.ctrl.markRuntimeComplete(rt)
	}
	return nil
}

// passThrough makes the client's view of a chained bitmap statement correct
// while the upstream statement is still filling the driving table: the
// driving rows matching pred (just pulled through upstream) are transformed
// directly, with no granule claims and no durable marks — the required
// unique index on every output dedups re-transforms. Durable progress
// restarts from scratch once upstream completes and the bitmap grows to the
// frozen heap; each granule then migrates exactly once, deduping against
// pass-through-era rows the same way.
func (rt *StmtRuntime) passThrough(ctx context.Context, pred expr.Expr, background bool) error {
	tx := rt.ctrl.beginMigTxn(ctx)
	committed := false
	defer func() {
		if !committed {
			rt.ctrl.abortMigTxn(tx)
		}
	}()
	_, rows, err := rt.ctrl.db.ScanForWrite(tx, rt.drivingTbl, rt.drivingAlias, pred)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		rt.ctrl.abortMigTxn(tx)
		committed = true
		return nil
	}
	inserted := 0
	if err := rt.transform(tx, rows, &inserted); err != nil {
		return err
	}
	if err := rt.ctrl.commitMigTxn(tx); err != nil {
		return err
	}
	committed = true
	rt.stats.transforms.Add(1)
	rt.attributeTuples(inserted, background)
	return nil
}

// fetchGranuleRows collects every tuple visible to tx in the claimed
// granules — with page-level granularity the whole page migrates even if the
// request matched one tuple (§4.4.3).
func (rt *StmtRuntime) fetchGranuleRows(tx *txn.Txn, granules []int64) ([]types.Row, error) {
	var rows []types.Row
	for _, g := range granules {
		lo, hi := rt.bitmap.TupleRange(g)
		err := rt.drivingTbl.Heap.ScanRange(lo, hi, func(tid storage.TID, head *storage.Version) error {
			if row, ok := tx.VisibleRow(head); ok {
				rows = append(rows, row.Clone())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// transform runs every output's defining query over the bound driving rows
// and inserts the results. outputsInserted, when non-nil, receives the
// number of rows inserted per output (used by group seeding).
func (rt *StmtRuntime) transform(tx *txn.Txn, drivingRows []types.Row, outputsInserted *int) error {
	if err := rt.ctrl.maybeInjectFailure(); err != nil {
		return err
	}
	conflict := sql.ConflictError
	if rt.ctrl.mode == DetectOnInsert || rt.ctrl.trackingDisabled.Load() ||
		(rt.upstream != nil && rt.bitmap != nil) {
		// Without tracking there is no exactly-once guarantee to assert;
		// duplicated work must dedup at the unique index (§3.7 semantics).
		// Chained bitmap statements keep this forever: rows inserted by
		// pass-through transforms (before upstream completed) collide with
		// the post-freeze granule migration of the same rows.
		conflict = sql.ConflictDoNothing
	}
	for _, out := range rt.outputs {
		// PlanSelectBound caches the transform plan across batches (and
		// across workers); each execution binds its own claimed rows.
		plan, err := rt.ctrl.db.PlanSelectBound(out.spec.Def, rt.drivingAlias)
		if err != nil {
			return err
		}
		err = plan.ExecuteBound(tx, drivingRows, func(row types.Row) error {
			_, ok, ierr := rt.ctrl.db.InsertRow(tx, out.tbl, row.Clone(), conflict)
			if ierr != nil {
				if errors.Is(ierr, engine.ErrCheckViolation) {
					// New-schema constraints may legitimately reject old
					// rows (§2.4); count and continue.
					rt.stats.droppedRows.Add(1)
					return nil
				}
				return ierr
			}
			if ok {
				rt.stats.rowsMigrated.Add(1)
				if outputsInserted != nil {
					*outputsInserted++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// --- hashmap migrations (Algorithm 1 over Algorithm 3) ---

// groupKeyOf builds the tracker key for a driving row.
func (rt *StmtRuntime) groupKeyOf(row types.Row) []byte {
	key := make(types.Row, len(rt.groupOrds))
	for i, ord := range rt.groupOrds {
		key[i] = row[ord]
	}
	return types.EncodeKey(nil, key)
}

func (rt *StmtRuntime) migrateHashPred(ctx context.Context, pred expr.Expr) error {
	return rt.migrateHashPredSeeded(ctx, pred, nil, false)
}

// ProgressTables reports per-statement physical migration progress for
// metrics snapshots. Bitmap migrations report granule counts; hash
// migrations have no known group total (Total = -1) until complete.
func (c *Controller) ProgressTables() []obs.TableProgress {
	rts := c.Runtimes()
	if len(rts) == 0 {
		return nil
	}
	out := make([]obs.TableProgress, 0, len(rts))
	for _, rt := range rts {
		p := obs.TableProgress{
			Statement: rt.Stmt.Name,
			Table:     rt.drivingTbl.Def.Name,
			Migrated:  rt.Tracker().MigratedCount(),
			Complete:  rt.complete.Load(),
		}
		if rt.bitmap != nil {
			p.Total = rt.bitmap.Granules()
			if p.Total > 0 {
				p.Progress = float64(p.Migrated) / float64(p.Total)
			}
		} else {
			p.Total = -1
		}
		if p.Complete || (rt.bitmap != nil && p.Total == 0) {
			p.Progress = 1
		}
		out = append(out, p)
	}
	return out
}

// migrateHashPredSeeded is migrateHashPred that additionally discovers
// candidate groups from the seed (secondary) table when seedScan is set.
func (rt *StmtRuntime) migrateHashPredSeeded(ctx context.Context, pred, seedPred expr.Expr, seedScan bool) error {
	if rt.upstream != nil && !rt.upstream.complete.Load() {
		// Chained hash statement with the driving table still filling: groups
		// must be fully materialized before they are claimed (an aggregate
		// computed over a partial group would be durably wrong), so discovery
		// and per-group upstream ensures happen up front and the hashPass
		// below runs over explicit keys only.
		keys, err := rt.chainedGroupKeys(ctx, pred)
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
		for {
			busy, err := rt.hashPass(ctx, nil, keys, false)
			if err != nil {
				return err
			}
			if busy == 0 {
				return nil
			}
			rt.stats.skipWaits.Add(1)
			rt.noteCollision(ctx, busy)
			if err := sleepCtx(ctx, rt.ctrl.backoff); err != nil {
				return err
			}
		}
	}
	var directKeys [][]byte
	if seedScan && rt.seedTbl != nil {
		tx := rt.ctrl.db.Begin()
		tx.SetContext(ctx)
		_, rows, err := rt.ctrl.db.ScanForWrite(tx, rt.seedTbl, norm(rt.Stmt.Seed.Driving), seedPred)
		tx.Abort()
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, row := range rows {
			key := make(types.Row, len(rt.seedOrds))
			for i, ord := range rt.seedOrds {
				key[i] = row[ord]
			}
			k := types.EncodeKey(nil, key)
			if !seen[string(k)] {
				seen[string(k)] = true
				directKeys = append(directKeys, k)
			}
		}
	}
	for {
		busy, err := rt.hashPass(ctx, pred, nil, false)
		if err != nil {
			return err
		}
		busySeed := 0
		if len(directKeys) > 0 {
			busySeed, err = rt.hashPass(ctx, nil, directKeys, false)
			if err != nil {
				return err
			}
		}
		if busy+busySeed == 0 {
			return nil
		}
		rt.stats.skipWaits.Add(1)
		rt.noteCollision(ctx, busy+busySeed)
		if err := sleepCtx(ctx, rt.ctrl.backoff); err != nil {
			return err
		}
	}
}

// chainedGroupKeys prepares a chained hash statement's lazy migration: it
// ensures the upstream statement has materialized every driving row matching
// pred, discovers the matching group keys, then ensures each discovered
// group's full extent through upstream (the group may contain rows outside
// pred). After this, the returned groups are complete and frozen — upstream's
// claim protocol guarantees their source granules never re-produce — so the
// caller's hashPass can claim and durably mark them.
func (rt *StmtRuntime) chainedGroupKeys(ctx context.Context, pred expr.Expr) ([][]byte, error) {
	driving := rt.drivingTbl.Def.Name
	if err := rt.ctrl.ensureMigrated(ctx, rt.upstream, driving, pred); err != nil {
		return nil, err
	}
	tx := rt.ctrl.db.Begin()
	tx.SetContext(ctx)
	_, rows, err := rt.ctrl.db.ScanForWrite(tx, rt.drivingTbl, rt.drivingAlias, pred)
	tx.Abort()
	if err != nil {
		return nil, err
	}
	var keys [][]byte
	seen := map[string]bool{}
	for _, row := range rows {
		k := rt.groupKeyOf(row)
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		keyRow, err := types.DecodeKey(k)
		if err != nil {
			return nil, err
		}
		groupPred := rt.equalityPred(rt.drivingTbl, rt.Stmt.GroupBy, keyRow)
		if err := rt.ctrl.ensureMigrated(ctx, rt.upstream, driving, groupPred); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// EnsureGroupMigrated migrates (or waits for) the single group identified by
// groupKey — the fast path for post-flip writers that maintain an aggregate
// or denormalized table (paper §4.2, §4.3).
func (c *Controller) EnsureGroupMigrated(outputTable string, groupKey types.Row) error {
	return c.EnsureGroupMigratedContext(nil, outputTable, groupKey)
}

// EnsureGroupMigratedContext is EnsureGroupMigrated with cancellation: the
// backoff wait on a group claimed by a concurrent migrator stops when ctx is
// done. A nil ctx waits without deadline.
func (c *Controller) EnsureGroupMigratedContext(ctx context.Context, outputTable string, groupKey types.Row) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rt := c.RuntimeFor(outputTable)
	if rt == nil || rt.complete.Load() {
		return nil
	}
	if rt.hash == nil {
		return fmt.Errorf("core: %q is not a group-tracked migration", outputTable)
	}
	if len(groupKey) != len(rt.groupOrds) {
		return fmt.Errorf("core: group key arity %d, want %d", len(groupKey), len(rt.groupOrds))
	}
	start := time.Now()
	defer func() { c.obsMig().EnsureLatency.ObserveSince(start) }()
	if rt.upstream != nil && !rt.upstream.complete.Load() {
		// The group must be fully materialized before it is claimed: pull its
		// whole extent through the upstream statement first (see
		// chainedGroupKeys for why partial groups cannot be marked).
		groupPred := rt.equalityPred(rt.drivingTbl, rt.Stmt.GroupBy, groupKey)
		if err := c.ensureMigrated(ctx, rt.upstream, rt.drivingTbl.Def.Name, groupPred); err != nil {
			return err
		}
	}
	for {
		busy, err := rt.hashPass(ctx, nil, [][]byte{types.EncodeKey(nil, groupKey)}, false)
		if err != nil {
			return err
		}
		if busy == 0 {
			return nil
		}
		rt.stats.skipWaits.Add(1)
		rt.noteCollision(ctx, busy)
		if err := sleepCtx(ctx, rt.ctrl.backoff); err != nil {
			return err
		}
	}
}

// sleepCtx pauses for d or until ctx is done, whichever comes first,
// returning the context's cause in the latter case. A nil ctx just sleeps.
func sleepCtx(ctx context.Context, d time.Duration) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// hashPass runs one migration transaction over either the groups matching
// pred or an explicit key list; ctx (nil ok) bounds the transaction's lock
// waits. background attributes migrated tuples to the lazy or background
// counter. Returns the number of busy groups.
func (rt *StmtRuntime) hashPass(ctx context.Context, pred expr.Expr, directKeys [][]byte, background bool) (busy int, err error) {
	tx := rt.ctrl.beginMigTxn(ctx)
	committed := false
	var wip [][]byte
	defer func() {
		if !committed {
			rt.ctrl.abortMigTxn(tx)
			if rt.ctrl.mode == DetectEarly {
				for _, k := range wip {
					rt.hash.ReleaseAbort(k)
				}
			}
		}
	}()

	// Candidate group keys.
	var candidates [][]byte
	if directKeys != nil {
		candidates = directKeys
	} else {
		_, rows, serr := rt.ctrl.db.ScanForWrite(tx, rt.drivingTbl, rt.drivingAlias, pred)
		if serr != nil {
			return 0, serr
		}
		seen := keySeenPool.Get().(map[string]bool)
		for _, row := range rows {
			k := rt.groupKeyOf(row)
			if !seen[string(k)] {
				seen[string(k)] = true
				candidates = append(candidates, k)
			}
		}
		putKeySeen(seen)
	}
	// Claim (Algorithm 3; the WIP/SKIP local-list checks collapse into the
	// candidate dedup above and the busy counter).
	for _, k := range candidates {
		switch rt.claimGroup(k) {
		case Claimed:
			wip = append(wip, k)
		case Busy:
			busy++
		}
	}
	if len(wip) == 0 {
		rt.ctrl.abortMigTxn(tx)
		committed = true
		return busy, nil
	}
	// Claim, then snapshot (see bitmapPass).
	if err := tx.Resnapshot(); err != nil {
		return busy, err
	}
	inserted := 0
	for _, k := range wip {
		n, err := rt.migrateGroup(tx, k)
		inserted += n
		if err != nil {
			return busy, err
		}
		rt.ctrl.db.LogRedo(tx, wal.Record{
			Type: wal.RecMigrated, Table: rt.Stmt.Name, Key: k,
		})
	}
	// Mark trackers from inside the commit, within the WAL commit fence (see
	// bitmapPass): checkpoint snapshots stay aligned with the log cut.
	tx.OnCommit(func() {
		for _, k := range wip {
			rt.markGroupMigrated(k)
		}
	})
	if err := rt.ctrl.commitMigTxn(tx); err != nil {
		return busy, err
	}
	committed = true
	rt.stats.transforms.Add(1)
	rt.attributeTuples(inserted, background)
	return busy, nil
}

func (rt *StmtRuntime) claimGroup(k []byte) ClaimResult {
	if rt.ctrl.trackingDisabled.Load() {
		return Claimed
	}
	if rt.ctrl.mode == DetectEarly {
		return rt.hash.TryClaim(k)
	}
	if rt.hash.IsMigrated(k) {
		return Done
	}
	return Claimed
}

func (rt *StmtRuntime) markGroupMigrated(k []byte) {
	if rt.ctrl.trackingDisabled.Load() {
		return
	}
	if rt.ctrl.mode == DetectEarly {
		rt.hash.MarkMigrated(k)
	} else {
		rt.hash.RestoreMigrated(k)
	}
}

// migrateGroup transforms one whole group: all driving rows with the group
// key (fetched fresh inside the migration transaction so the group is
// complete), falling back to the seed query when the group is empty. It
// returns how many output rows it inserted.
func (rt *StmtRuntime) migrateGroup(tx *txn.Txn, key []byte) (int, error) {
	keyRow, err := types.DecodeKey(key)
	if err != nil {
		return 0, err
	}
	groupPred := rt.equalityPred(rt.drivingTbl, rt.Stmt.GroupBy, keyRow)
	_, rows, err := rt.ctrl.db.ScanForWrite(tx, rt.drivingTbl, rt.drivingAlias, groupPred)
	if err != nil {
		return 0, err
	}
	inserted := 0
	if len(rows) > 0 {
		if err := rt.transform(tx, rows, &inserted); err != nil {
			return inserted, err
		}
	}
	if inserted == 0 && rt.Stmt.Seed != nil {
		return rt.migrateSeed(tx, keyRow)
	}
	return inserted, nil
}

// migrateSeed inserts the secondary-table completion rows for an empty group
// (e.g. stock rows for items with no order lines in the join migration),
// returning how many rows it inserted.
func (rt *StmtRuntime) migrateSeed(tx *txn.Txn, keyRow types.Row) (int, error) {
	seed := rt.Stmt.Seed
	seedPred := rt.equalityPred(rt.seedTbl, seed.GroupBy, keyRow)
	_, rows, err := rt.ctrl.db.ScanForWrite(tx, rt.seedTbl, norm(seed.Driving), seedPred)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	conflict := sql.ConflictError
	if rt.ctrl.mode == DetectOnInsert {
		conflict = sql.ConflictDoNothing
	}
	out := rt.outputs[0]
	plan, err := rt.ctrl.db.PlanSelectBound(seed.Def, norm(seed.Driving))
	if err != nil {
		return 0, err
	}
	inserted := 0
	err = plan.ExecuteBound(tx, rows, func(row types.Row) error {
		_, ok, ierr := rt.ctrl.db.InsertRow(tx, out.tbl, row.Clone(), conflict)
		if ierr != nil {
			if errors.Is(ierr, engine.ErrCheckViolation) {
				rt.stats.droppedRows.Add(1)
				return nil
			}
			return ierr
		}
		if ok {
			rt.stats.rowsMigrated.Add(1)
			inserted++
		}
		return nil
	})
	return inserted, err
}

// equalityPred builds col1 = v1 AND col2 = v2 ... over the given table's
// columns (unbound, unqualified names).
func (rt *StmtRuntime) equalityPred(tbl *catalog.Table, colNames []string, vals types.Row) expr.Expr {
	var pred expr.Expr
	for i, name := range colNames {
		pred = expr.CombineConjuncts(pred,
			expr.NewBinOp(expr.OpEq, expr.NewCol("", name), expr.NewConst(vals[i])))
	}
	return pred
}
