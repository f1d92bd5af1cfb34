package obs

// StmtKind classifies statements for per-kind execution metrics.
type StmtKind uint8

// Statement kinds.
const (
	StmtSelect StmtKind = iota
	StmtInsert
	StmtUpdate
	StmtDelete
	StmtDDL
	StmtOther
	NumStmtKinds // array bound, not a kind
)

func (k StmtKind) String() string {
	switch k {
	case StmtSelect:
		return "select"
	case StmtInsert:
		return "insert"
	case StmtUpdate:
		return "update"
	case StmtDelete:
		return "delete"
	case StmtDDL:
		return "ddl"
	default:
		return "other"
	}
}

// EngineMetrics instruments the query engine.
type EngineMetrics struct {
	// Exec records end-to-end ExecStmt latency (ns) per statement kind,
	// including failed statements.
	Exec [NumStmtKinds]Histogram
	// RowsScanned counts tuple slots examined by heap and index scans
	// (before visibility and filtering).
	RowsScanned Counter
	// RowsReturned counts rows emitted by plan execution.
	RowsReturned Counter
	// PlansBuilt counts compiled statement plans: SELECT plans and the
	// write plans of INSERT, UPDATE and DELETE statements.
	PlansBuilt Counter
	// PlansReused counts plan-cache hits.
	PlansReused Counter
}

// TxnMetrics instruments the transaction manager.
type TxnMetrics struct {
	Begins Counter
	// Commits counts transactions that committed (txn layer, regardless of
	// durability path).
	Commits Counter
	Aborts  Counter
	// WriteConflicts counts first-updater-wins serialization failures
	// (ErrSerialization returned by CheckWritable).
	WriteConflicts Counter
	// LockTimeouts counts lock waits that expired (deadlock resolution).
	LockTimeouts Counter
	// LockWait records the wait time (ns) of contended lock acquisitions;
	// uncontended fast-path acquisitions are not recorded.
	LockWait Histogram
	// CommitLatency records durable commit latency (ns): WAL commit record +
	// flush + visibility publication, observed by the engine's Commit. Its
	// Count equals Commits when every commit goes through engine.Commit.
	CommitLatency Histogram
}

// WALMetrics instruments the redo log.
type WALMetrics struct {
	// Records counts appended log records.
	Records Counter
	// Bytes counts encoded log bytes (headers included).
	Bytes Counter
	// FlushLatency records buffered-writer drain latency (ns) — the cost of
	// pushing records to the OS, distinct from making them durable.
	FlushLatency Histogram
	// SyncLatency records device-sync (fsync) latency (ns). Zero-count when
	// the log target has no Syncer (in-memory logs, NoSync directories).
	SyncLatency Histogram
	// Syncs counts device syncs. Under group commit this stays far below the
	// commit count: one sync covers every committer in the group.
	Syncs Counter
	// GroupBatchSize records how many records each durable-epoch publication
	// covered — the group-commit amortization factor.
	GroupBatchSize Histogram
	// Checkpoints counts completed checkpoints.
	Checkpoints Counter
	// SegmentsLive gauges the number of live log segments (checkpoints delete
	// superseded segments, so this tracks bounded-recovery health).
	SegmentsLive Gauge
}

// MigrationMetrics instruments BullFrog's lazy-migration machinery.
type MigrationMetrics struct {
	// TuplesLazy counts output rows inserted by request-driven (lazy)
	// migration transactions.
	TuplesLazy Counter
	// TuplesBackground counts output rows inserted by background / catch-up
	// migration transactions.
	TuplesBackground Counter
	// EnsureLatency records EnsureMigrated latency (ns) while a migration is
	// active — the interception cost a client request pays.
	EnsureLatency Histogram
	// GateWait records time (ns) client transactions spent blocked entering
	// the gate (eager migration drains it; lazy migration never does).
	GateWait Histogram
	// BackfillWorkersActive gauges how many background backfill workers are
	// currently running a batch (0 when idle or no migration is active).
	BackfillWorkersActive Gauge
	// BackfillBatchSize gauges the backfill pool's current adaptive batch
	// size (granules for bitmap migrations, tuples for hash migrations).
	BackfillBatchSize Gauge
	// SchemaVersions counts schema versions recorded in the version registry
	// (one per lazy migration flip carrying version metadata).
	SchemaVersions Counter
	// SchemaRollbacks counts inverse migrations generated and started by the
	// registry's rollback path.
	SchemaRollbacks Counter
}

// CatalogMetrics instruments the multi-versioned catalog.
type CatalogMetrics struct {
	// VersionsLive gauges the catalog version chain length (head included) —
	// how many schema versions are still reachable by live snapshots. Vacuum
	// prunes it back toward 1.
	VersionsLive Gauge
	// InstallCASRetries counts CAS retries while publishing a new catalog
	// version at a migration's commit barrier. Non-zero means installs raced
	// regular DDL; sustained growth means the head is churning.
	InstallCASRetries Counter
}

// TraceMetrics instruments the trace subsystem's event ring — the health of
// the diagnostics themselves, not of the traced workload.
type TraceMetrics struct {
	// EventsDropped counts ring events a snapshot could not decode because a
	// concurrent writer was mid-write or lapped the reader.
	EventsDropped Counter
	// RingLaps counts full wraps of the event ring — how fast event history
	// is being overwritten relative to snapshot frequency.
	RingLaps Counter
}

// Set groups one instance of every layer's metrics. The engine owns a Set
// per database; sub-structs are shared by pointer with the layer that
// records into them.
type Set struct {
	Engine    *EngineMetrics
	Txn       *TxnMetrics
	WAL       *WALMetrics
	Migration *MigrationMetrics
	Catalog   *CatalogMetrics
	Trace     *TraceMetrics
}

// NewSet allocates a Set with all sub-structs present.
func NewSet() *Set {
	return &Set{
		Engine:    &EngineMetrics{},
		Txn:       &TxnMetrics{},
		WAL:       &WALMetrics{},
		Migration: &MigrationMetrics{},
		Catalog:   &CatalogMetrics{},
		Trace:     &TraceMetrics{},
	}
}

// Snapshot is a point-in-time copy of every metric in a Set, suitable for
// JSON encoding and diffing. All counters are monotone between snapshots of
// the same Set.
type Snapshot struct {
	Engine    EngineSnapshot    `json:"engine"`
	Txn       TxnSnapshot       `json:"txn"`
	WAL       WALSnapshot       `json:"wal"`
	Migration MigrationSnapshot `json:"migration"`
	Catalog   CatalogSnapshot   `json:"catalog"`
	Trace     TraceSnapshot     `json:"trace"`
}

// EngineSnapshot copies EngineMetrics.
type EngineSnapshot struct {
	Exec         map[string]HistogramSnapshot `json:"exec"`
	RowsScanned  int64                        `json:"rows_scanned"`
	RowsReturned int64                        `json:"rows_returned"`
	PlansBuilt   int64                        `json:"plans_built"`
	PlansReused  int64                        `json:"plans_reused"`
}

// TxnSnapshot copies TxnMetrics.
type TxnSnapshot struct {
	Begins         int64             `json:"begins"`
	Commits        int64             `json:"commits"`
	Aborts         int64             `json:"aborts"`
	WriteConflicts int64             `json:"write_conflicts"`
	LockTimeouts   int64             `json:"lock_timeouts"`
	LockWait       HistogramSnapshot `json:"lock_wait"`
	CommitLatency  HistogramSnapshot `json:"commit_latency"`
}

// WALSnapshot copies WALMetrics.
type WALSnapshot struct {
	Records        int64             `json:"records"`
	Bytes          int64             `json:"bytes"`
	FlushLatency   HistogramSnapshot `json:"flush_latency"`
	SyncLatency    HistogramSnapshot `json:"sync_latency"`
	Syncs          int64             `json:"syncs"`
	GroupBatchSize HistogramSnapshot `json:"group_batch_size"`
	Checkpoints    int64             `json:"checkpoints"`
	SegmentsLive   int64             `json:"segments_live"`
}

// MigrationSnapshot copies MigrationMetrics plus per-table progress gauges
// supplied by the migration controller at snapshot time.
type MigrationSnapshot struct {
	TuplesLazy            int64             `json:"tuples_lazy"`
	TuplesBackground      int64             `json:"tuples_background"`
	EnsureLatency         HistogramSnapshot `json:"ensure_latency"`
	GateWait              HistogramSnapshot `json:"gate_wait"`
	BackfillWorkersActive int64             `json:"backfill_workers_active"`
	BackfillBatchSize     int64             `json:"backfill_batch_size"`
	SchemaVersions        int64             `json:"schema_versions"`
	SchemaRollbacks       int64             `json:"schema_rollbacks"`
	Tables                []TableProgress   `json:"tables,omitempty"`
}

// CatalogSnapshot copies CatalogMetrics.
type CatalogSnapshot struct {
	VersionsLive      int64 `json:"versions_live"`
	InstallCASRetries int64 `json:"install_cas_retries"`
}

// TraceSnapshot copies TraceMetrics.
type TraceSnapshot struct {
	EventsDropped int64 `json:"events_dropped"`
	RingLaps      int64 `json:"ring_laps"`
}

// TableProgress is one migration statement's physical progress, derived from
// its bitmap or hash tracker.
type TableProgress struct {
	// Statement is the migration statement name.
	Statement string `json:"statement"`
	// Table is the driving (old-schema) table.
	Table string `json:"table"`
	// Migrated is the tracker's migrated granule/group count.
	Migrated int64 `json:"migrated"`
	// Total is the granule count for bitmap migrations; -1 for hash
	// migrations, whose group population is unknown until complete.
	Total int64 `json:"total"`
	// Progress is Migrated/Total in [0,1]; for hash migrations it is 0
	// until complete, then 1.
	Progress float64 `json:"progress"`
	// Complete reports whether the statement finished.
	Complete bool `json:"complete"`
}

// Snapshot copies the whole Set. Migration table progress is the caller's to
// fill in (the controller knows it; this package does not).
func (s *Set) Snapshot() Snapshot {
	var out Snapshot
	if s.Engine != nil {
		out.Engine = EngineSnapshot{
			Exec:         make(map[string]HistogramSnapshot, int(NumStmtKinds)),
			RowsScanned:  s.Engine.RowsScanned.Load(),
			RowsReturned: s.Engine.RowsReturned.Load(),
			PlansBuilt:   s.Engine.PlansBuilt.Load(),
			PlansReused:  s.Engine.PlansReused.Load(),
		}
		for k := StmtKind(0); k < NumStmtKinds; k++ {
			if hs := s.Engine.Exec[k].Snapshot(); hs.Count > 0 {
				out.Engine.Exec[k.String()] = hs
			}
		}
	}
	if s.Txn != nil {
		out.Txn = TxnSnapshot{
			Begins:         s.Txn.Begins.Load(),
			Commits:        s.Txn.Commits.Load(),
			Aborts:         s.Txn.Aborts.Load(),
			WriteConflicts: s.Txn.WriteConflicts.Load(),
			LockTimeouts:   s.Txn.LockTimeouts.Load(),
			LockWait:       s.Txn.LockWait.Snapshot(),
			CommitLatency:  s.Txn.CommitLatency.Snapshot(),
		}
	}
	if s.WAL != nil {
		out.WAL = WALSnapshot{
			Records:        s.WAL.Records.Load(),
			Bytes:          s.WAL.Bytes.Load(),
			FlushLatency:   s.WAL.FlushLatency.Snapshot(),
			SyncLatency:    s.WAL.SyncLatency.Snapshot(),
			Syncs:          s.WAL.Syncs.Load(),
			GroupBatchSize: s.WAL.GroupBatchSize.Snapshot(),
			Checkpoints:    s.WAL.Checkpoints.Load(),
			SegmentsLive:   s.WAL.SegmentsLive.Load(),
		}
	}
	if s.Migration != nil {
		out.Migration = MigrationSnapshot{
			TuplesLazy:            s.Migration.TuplesLazy.Load(),
			TuplesBackground:      s.Migration.TuplesBackground.Load(),
			EnsureLatency:         s.Migration.EnsureLatency.Snapshot(),
			GateWait:              s.Migration.GateWait.Snapshot(),
			BackfillWorkersActive: s.Migration.BackfillWorkersActive.Load(),
			BackfillBatchSize:     s.Migration.BackfillBatchSize.Load(),
			SchemaVersions:        s.Migration.SchemaVersions.Load(),
			SchemaRollbacks:       s.Migration.SchemaRollbacks.Load(),
		}
	}
	if s.Catalog != nil {
		out.Catalog = CatalogSnapshot{
			VersionsLive:      s.Catalog.VersionsLive.Load(),
			InstallCASRetries: s.Catalog.InstallCASRetries.Load(),
		}
	}
	if s.Trace != nil {
		out.Trace = TraceSnapshot{
			EventsDropped: s.Trace.EventsDropped.Load(),
			RingLaps:      s.Trace.RingLaps.Load(),
		}
	}
	return out
}

// SnapshotWithTables is Snapshot with the migration per-table progress
// filled in before the snapshot is returned — the snapshot is complete on
// return and is never mutated afterwards, so callers may hand it to
// concurrent readers (or mutate their copy) without racing other snapshots.
// tables must be freshly allocated by the caller; it is stored, not copied.
func (s *Set) SnapshotWithTables(tables []TableProgress) Snapshot {
	out := s.Snapshot()
	out.Migration.Tables = tables
	return out
}
