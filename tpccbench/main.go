// Command tpccbench is BullFrog's end-to-end benchmark: TPC-C as SQL text
// through the public facade (db.Begin, Txn.ExecContext, Txn.Commit), with
// the WAL on, a lazy schema migration on a fixed schedule, and a simulated
// crash and recovery after every run. It checks the database against the
// clients' own ledger before the crash and again after recovery, and prints
// one JSON object as its last line of output.
//
//	tpccbench --workload tpcc-split --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/bullfrogdb/bullfrog"
	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// processStart is taken during package initialisation, before main runs:
// setup_s is timed from here.
var processStart = time.Now()

var stderr io.Writer = os.Stderr

// benchScale is the TPC-C population every workload loads: two warehouses
// with the standard 3,000 customers per district, so the split migrates
// 60,000 customers and the join 20,000 stock groups.
var benchScale = tpcc.Scale{
	Warehouses:        2,
	DistrictsPerW:     10,
	CustomersPerDist:  3000,
	Items:             10000,
	InitialOrdersPerD: 300,
	MaxLinesPerOrder:  10,
}

// The run schedule. Every figure is the same on every run.
const (
	numClients       = 2                      // closed-loop terminals, one per warehouse
	roundOps         = 100                    // client transactions per client round
	warmup           = 1 * time.Second        // mix run before the measured phase (part of set-up)
	flipAt           = 1 * time.Second        // MigrateContext, from the start of the measured phase
	vacuumEvery      = 2 * time.Second        // db.Vacuum cadence in the measured phase
	minWindow        = 10 * time.Second       // the migration window lasts at least this long
	traceSlice       = 250 * time.Millisecond // traced runs alternate span recording on/off per slice
	migrationTimeout = 120 * time.Second
)

// groupCommit is the flush policy: a flush leader syncs at once (no dwell)
// and batches whatever committers queued behind the previous fsync, up to
// 64 records; every commit waits for its fsync.
var groupCommit = wal.GroupCommit{MaxDelay: 0, MaxBatch: 64}

// workload is one benchmark input: the mix, plus an optional migration.
type workload struct {
	name      string
	migration func() *bullfrog.Migration // nil: no migration
	target    schema                     // schema the statements use after the flip
	bgDelay   time.Duration              // background migration start after the flip
	bgChunk   int                        // background batch size in granules, before pacer backoff
}

var workloads = []workload{
	{name: "tpcc-steady"},
	{
		name:      "tpcc-split",
		migration: func() *bullfrog.Migration { return tpcc.SplitMigration(tpcc.SplitConstraints{}) },
		target:    schemaSplit,
		bgDelay:   1 * time.Second, // a lazy-only phase comes before the drain
		// With the default batch the pacer can latch at full backoff and
		// stretch the drain past a minute (see CHANGES.md).
		bgChunk: 16384,
	},
	{
		name:      "tpcc-join",
		migration: tpcc.JoinMigration,
		target:    schemaJoin,
		bgDelay:   0, // background migration from the flip
	},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var (
		name    = flag.String("workload", "", "tpcc-steady, tpcc-split or tpcc-join")
		seed    = flag.Int64("seed", 1, "input seed: TPC-C load and client transaction parameters")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload, found = w, true
		}
	}
	if !found || *seconds < 1 {
		fmt.Fprintf(stderr, "tpccbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "tpccbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "tpccbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// measured collects what the measured phase observed.
type measured struct {
	elapsed          time.Duration
	committed        int64
	m0, m1           obs.Snapshot
	walBytes         int64
	cpu              time.Duration // user + system CPU of the whole process
	heapLive         uint64
	flipStart        time.Time     // window start: the flip (steady: the same point of the schedule)
	windowEnd        time.Time     // the later of migration complete and flipStart + minWindow
	windowCommits    int64         // committed client transactions inside the window
	migrateAt        time.Time     // MigrateContext called, once no client transaction is in flight
	flip             time.Duration // MigrateContext
	migration        time.Duration // MigrateContext call to AwaitMigration return
	vacuums          []time.Duration
	traced, untraced [2]float64 // traced runs: commits and seconds in span-on / span-off slices
}

func run(ctx context.Context, cfg config) (*result, error) {
	wl := cfg.workload
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	walPath := filepath.Join(work, "wal")

	var mainRec *recorder
	if cfg.trace {
		mainRec = newRecorder(processStart, 0)
	}

	// --- set-up: open, schema, load, warm-up ---
	wdir, err := wal.OpenDir(walPath, wal.DirOptions{GroupCommit: groupCommit})
	if err != nil {
		return nil, fmt.Errorf("opening WAL directory: %w", err)
	}
	db := bullfrog.Open(bullfrog.Options{WAL: wdir, GroupCommit: groupCommit})
	crashed := false
	defer func() {
		if !crashed {
			_ = db.Close() // error path only: the run already failed
		}
	}()
	loadStart := time.Now()
	mainRec.timed(spanLoad, 0, func() { err = load(db, cfg.seed) })
	if err != nil {
		return nil, err
	}
	loadTime := time.Since(loadStart)
	loadedRows := heapRows(db.Engine())

	var sch atomic.Int32
	var stamp, committed atomic.Int64
	var flip sync.RWMutex
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = &client{
			id: i + 1, home: i%benchScale.Warehouses + 1, scale: benchScale, db: db, r: rand.New(rand.NewSource(cfg.seed*7919 + int64(i))),
			schema: &sch, flip: &flip, led: newLedger(), stats: newOpStats(), stamp: &stamp, commit: &committed,
		}
	}
	warmStart := time.Now()
	runClients(ctx, clients, warmStart, func() bool { return time.Since(warmStart) >= warmup })
	for _, c := range clients {
		if n := sumCounts(c.stats.failed); n > 0 {
			return nil, fmt.Errorf("warm-up: %d client transactions failed: %s", n, fmtCounts(c.stats.failed))
		}
		c.stats = newOpStats()
		if cfg.trace {
			c.rec = newRecorder(processStart, c.id)
		}
	}
	setup := time.Since(processStart)

	// --- measured phase ---
	m, err := measure(ctx, cfg, db, walPath, clients, mainRec, &sch, &flip, &committed)
	if err != nil {
		return nil, err
	}

	exp := expectation{scale: benchScale, schema: schema(sch.Load()), led: newLedger()}
	for _, c := range clients {
		exp.led.merge(c.led)
	}
	problems := checkAll(db, exp)
	for _, p := range problems {
		fmt.Fprintf(stderr, "check before crash: %s\n", p)
	}

	// --- crash: the log directory is closed under a live database ---
	crashed = true
	if err := wdir.Close(); err != nil {
		return nil, fmt.Errorf("closing WAL directory: %w", err)
	}
	db = nil
	for _, c := range clients {
		c.db = nil
	}
	runtime.GC()

	rec, err := recoverDB(ctx, walPath, wl, mainRec)
	if err != nil {
		return nil, err
	}
	defer rec.db.Close()
	after := checkAll(rec.db, exp)
	for _, p := range after {
		fmt.Fprintf(stderr, "check after recovery: %s\n", p)
	}

	// --- operations: client transactions, plus one fault probe per round ---
	var attempted, rounds int64
	retries, failed := map[string]int64{}, map[string]int64{}
	var rollbacks int64
	var newOrders []latencySample
	for _, c := range clients {
		attempted += c.stats.attempted
		rounds += c.rounds
		rollbacks += c.stats.rollbacks
		addCounts(retries, c.stats.retries)
		addCounts(failed, c.stats.failed)
		newOrders = append(newOrders, c.stats.newOrders...)
	}
	if wl.migration != nil {
		probeFailed, err := probeSnapshotFault(ctx, wl, int(rounds))
		if err != nil {
			return nil, err
		}
		attempted += rounds
		addCounts(failed, probeFailed)
		fmt.Printf("migration: flip=%v complete_after=%v window_commits=%d\n", m.flip, m.migration, m.windowCommits)
	}
	fmt.Printf("operations: attempted=%d committed=%d rolled_back=%d failed{%s} retries{%s}\n",
		attempted, m.committed, rollbacks, fmtCounts(failed), fmtCounts(retries))

	res := &result{
		Correct:   len(problems) == 0 && len(after) == 0,
		Attempted: attempted,
		Failed:    sumCounts(failed),
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		if err := traceMetrics(res.Metrics, cfg, m, clients, mainRec, rec, loadedRows, loadTime, retries); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(res.Metrics, m, setup, rec.elapsed, newOrders)
	}
	return res, nil
}

// load creates the TPC-C schema through the facade and populates it with
// the tpcc loader.
func load(db *bullfrog.DB, seed int64) error {
	if _, err := db.Exec(tpcc.SchemaDDL); err != nil {
		return fmt.Errorf("creating schema: %w", err)
	}
	if err := tpcc.Load(db.Engine(), benchScale, seed); err != nil {
		return fmt.Errorf("loading: %w", err)
	}
	return nil
}

// heapRows counts the tuples the heaps hold (the load deletes nothing, so
// after the load this is the number of rows loaded).
func heapRows(eng *engine.DB) int64 {
	var n int64
	for _, name := range eng.Catalog().TableNames() {
		if t, err := eng.Catalog().Table(name); err == nil {
			n += t.Heap.NumSlots()
		}
	}
	return n
}

// runClients runs every client in its own goroutine, whole rounds of
// roundOps transactions at a time, until stop reports true at a round
// boundary, and waits for all of them.
func runClients(ctx context.Context, clients []*client, t0 time.Time, stop func() bool) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop() {
				for i := 0; i < roundOps; i++ {
					c.op(ctx, t0)
				}
				c.rounds++
			}
		}(c)
	}
	wg.Wait()
}

// measure runs the measured phase: the clients' closed loops, and on the
// main goroutine the schedule of flip, await and vacuum. It ends at the
// first round boundary after cfg.seconds and after the migration
// completed.
func measure(ctx context.Context, cfg config, db *bullfrog.DB, walPath string, clients []*client,
	rec *recorder, sch *atomic.Int32, flip *sync.RWMutex, committed *atomic.Int64) (*measured, error) {
	wl := cfg.workload
	for _, c := range clients {
		c.rounds = 0
	}
	m := &measured{m0: db.Metrics()}
	wal0, err := dirSize(walPath)
	if err != nil {
		return nil, err
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	committed.Store(0)
	t0 := time.Now()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		runClients(ctx, clients, t0, stop.Load)
		close(done)
	}()

	deadline := t0.Add(time.Duration(cfg.seconds) * time.Second)
	nextVacuum := t0.Add(vacuumEvery)
	awaited := make(chan time.Time, 1)
	var windowStartCommits int64
	flipped, windowDone := false, false
	var schedErr error
	for schedErr == nil {
		now := time.Now()
		if !flipped && now.Sub(t0) >= flipAt {
			flipped = true
			m.flipStart = now
			windowStartCommits = committed.Load()
			m.windowEnd = now.Add(minWindow)
			if wl.migration != nil {
				// Clients finish the transaction they are in and wait while
				// the migration installs: a transaction whose snapshot
				// predates the install can still write the retired tables,
				// and the program loses such writes (see CHANGES.md).
				flip.Lock()
				var flipErr error
				m.migrateAt = time.Now()
				rec.timed(spanMigrate, 0, func() {
					_, flipErr = db.MigrateContext(ctx, wl.migration(), bullfrog.MigrateOptions{BackgroundDelay: wl.bgDelay, BackgroundChunk: wl.bgChunk})
				})
				m.flip = time.Since(m.migrateAt)
				sch.Store(int32(wl.target))
				flip.Unlock()
				if flipErr != nil {
					schedErr = fmt.Errorf("migrate: %w", flipErr)
					break
				}
				go func() {
					actx, cancel := context.WithTimeout(ctx, migrationTimeout)
					defer cancel()
					if err := db.AwaitMigration(actx); err != nil {
						fmt.Fprintf(stderr, "await migration: %v\n", err)
					}
					awaited <- time.Now()
				}()
			}
		}
		if flipped && wl.migration != nil && m.migration == 0 {
			select {
			case end := <-awaited:
				m.migration = end.Sub(m.migrateAt)
				if rec != nil {
					rec.add(rec.newID(), 0, spanAwait, m.migrateAt.Add(m.flip), end)
				}
				if !db.MigrationComplete() {
					schedErr = fmt.Errorf("migration did not complete within %v", migrationTimeout)
				}
				if end.After(m.windowEnd) {
					m.windowEnd = end
				}
			default:
			}
		}
		migrated := wl.migration == nil || m.migration > 0
		if flipped && !windowDone && migrated && !now.Before(m.windowEnd) {
			windowDone = true
			m.windowCommits = committed.Load() - windowStartCommits
		}
		if !now.Before(nextVacuum) {
			t := time.Now()
			rec.timed(spanVacuum, 0, func() { db.Vacuum() })
			m.vacuums = append(m.vacuums, time.Since(t))
			nextVacuum = nextVacuum.Add(vacuumEvery)
		}
		if windowDone && !now.Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	<-done
	if schedErr != nil {
		return nil, schedErr
	}
	m.elapsed = time.Since(t0)
	m.committed = committed.Load()
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	m.m1 = db.Metrics()
	wal1, err := dirSize(walPath)
	if err != nil {
		return nil, err
	}
	m.walBytes = wal1 - wal0
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapLive = ms.HeapAlloc
	if cfg.trace {
		m.traced, m.untraced = sliceRates(clients, m, t0)
	}
	return m, nil
}

// sliceRates returns {commits, seconds} for the span-on (even) and the
// span-off (odd) slices of a traced run's measured phase, leaving out the
// slices that overlap the migration window, whose throughput swings would
// swamp the difference tracing makes.
func sliceRates(clients []*client, m *measured, t0 time.Time) (on, off [2]float64) {
	winStart, winEnd := m.flipStart.Sub(t0), m.windowEnd.Sub(t0)
	for i := 0; time.Duration(i)*traceSlice < m.elapsed; i++ {
		from, to := time.Duration(i)*traceSlice, time.Duration(i+1)*traceSlice
		if to > m.elapsed {
			to = m.elapsed
		}
		if to > winStart && from < winEnd {
			continue
		}
		side := &on
		if i%2 == 1 {
			side = &off
		}
		for _, c := range clients {
			if i < len(c.sliceCommits) {
				side[0] += float64(c.sliceCommits[i])
			}
		}
		side[1] += (to - from).Seconds()
	}
	return on, off
}

// processCPU returns the user plus system CPU time the process has used.
// Time the host takes from the machine's virtual CPUs (steal) is not in it.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// dirSize sums the sizes of the regular files in dir.
func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// recovered is the database rebuilt from the log after the crash.
type recovered struct {
	db          *bullfrog.DB
	elapsed     time.Duration // recovery_s: OpenRecovery to queries can run
	openRecover time.Duration
	recoverFrom time.Duration
	stats       engine.RecoverStats
}

// recoverDB is crash recovery: read the log directory, open a fresh
// database, recreate the schema (DDL is not logged), re-register the
// migration, and replay.
func recoverDB(ctx context.Context, walPath string, wl workload, rec *recorder) (*recovered, error) {
	out := &recovered{}
	var err error
	var src *wal.RecoverySource
	parent := uint64(0)
	if rec != nil {
		parent = rec.newID()
	}
	start := time.Now()
	rec.timed(spanOpenRecovery, parent, func() { src, err = wal.OpenRecovery(walPath) })
	out.openRecover = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("opening recovery source: %w", err)
	}
	out.db = bullfrog.Open(bullfrog.Options{})
	if _, err := out.db.Exec(tpcc.SchemaDDL); err != nil {
		out.db.Close()
		return nil, fmt.Errorf("recovery schema: %w", err)
	}
	if wl.migration != nil {
		if _, err := out.db.MigrateContext(ctx, wl.migration(), bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
			out.db.Close()
			return nil, fmt.Errorf("recovery migrate: %w", err)
		}
	}
	t := time.Now()
	rec.timed(spanRecoverFrom, parent, func() { out.stats, err = out.db.Controller().RecoverFrom(src) })
	out.recoverFrom = time.Since(t)
	out.elapsed = time.Since(start)
	if err != nil {
		out.db.Close()
		return nil, fmt.Errorf("recovering: %w", err)
	}
	if rec != nil {
		rec.add(parent, 0, spanRecovery, start, start.Add(out.elapsed))
	}
	return out, nil
}

func endToEndMetrics(out map[string]metric, m *measured, setup, recovery time.Duration, newOrders []latencySample) {
	all := make([]int64, 0, len(newOrders))
	var window []int64
	winStart, winEnd := m.flipStart.Sub(processStart), m.windowEnd.Sub(processStart)
	for _, s := range newOrders {
		all = append(all, int64(s.dur))
		if at := s.at.Sub(processStart); at >= winStart && at <= winEnd {
			window = append(window, int64(s.dur))
		}
	}
	sortInt64(all)
	sortInt64(window)
	out["setup_s"] = metric{setup.Seconds(), "s"}
	out["txn_per_s"] = metric{float64(m.committed) / m.elapsed.Seconds(), "txn/s"}
	out["cpu_ms_per_txn"] = metric{float64(m.cpu) / 1e6 / float64(m.committed), "ms"}
	out["new_order_p50_ms"] = metric{pct(all, 0.50) / 1e6, "ms"}
	out["new_order_p99_ms"] = metric{pct(all, 0.99) / 1e6, "ms"}
	// Throughput in the migration window as a share of the throughput outside
	// it, in the same run: how much of its normal rate a client keeps while
	// data moves. Drift in the machine's speed between runs cancels out.
	winLen := m.windowEnd.Sub(m.flipStart)
	inside := float64(m.windowCommits) / winLen.Seconds()
	outside := float64(m.committed-m.windowCommits) / (m.elapsed - winLen).Seconds()
	out["migrating_txn_ratio"] = metric{inside / outside, "ratio"}
	out["migrating_new_order_p99_ms"] = metric{pct(window, 0.99) / 1e6, "ms"}
	out["recovery_s"] = metric{recovery.Seconds(), "s"}
	out["wal_bytes_per_txn"] = metric{float64(m.walBytes) / float64(m.committed), "bytes"}
	out["heap_live_mb"] = metric{float64(m.heapLive) / 1e6, "MB"}
}

func traceMetrics(out map[string]metric, cfg config, m *measured, clients []*client, mainRec *recorder,
	rec *recovered, loadedRows int64, loadTime time.Duration, retries map[string]int64) error {
	recs := []*recorder{mainRec}
	for _, c := range clients {
		recs = append(recs, c.rec)
	}
	path := filepath.Join(".bench_build", "spans", cfg.workload.name+".jsonl.gz")
	n, err := writeSpans(path, recs)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", n, path)

	txns := float64(m.committed)
	us := func(ns float64) float64 { return ns / 1e3 }
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Calls timed from the benchmark's spans.
	set("bullfrog.begin_us", us(pct(durations(recs, spanBegin), 0.5)), "us")
	for k := stmtKind(0); k < numStmtKinds; k++ {
		d := durations(recs, spanExecSelect+uint8(k))
		set("bullfrog.exec_"+stmtKindNames[k]+"_us_p50", us(pct(d, 0.5)), "us")
		set("bullfrog.exec_"+stmtKindNames[k]+"_us_p99", us(pct(d, 0.99)), "us")
	}
	set("sql.parse_us", us(pct(durations(recs, spanParse), 0.5)), "us")
	commits := durations(recs, spanCommit)
	set("txn.commit_us_p50", us(pct(commits, 0.5)), "us")
	set("txn.commit_us_p99", us(pct(commits, 0.99)), "us")

	// Self time per layer boundary, per client-transaction attempt.
	self, count := selfTimes(recs)
	var attempts, clientSelf int64
	for t := txnType(0); t < numTxnTypes; t++ {
		attempts += count[spanTxn+uint8(t)]
		clientSelf += self[spanTxn+uint8(t)]
	}
	perAttempt := func(ns int64) float64 {
		if attempts == 0 {
			return 0
		}
		return us(float64(ns)) / float64(attempts)
	}
	set("self.client_us_per_txn", perAttempt(clientSelf), "us")
	set("self.sql_parse_us_per_txn", perAttempt(self[spanParse]), "us")
	set("self.bullfrog_begin_us_per_txn", perAttempt(self[spanBegin]), "us")
	for k := stmtKind(0); k < numStmtKinds; k++ {
		set("self.bullfrog_exec_"+stmtKindNames[k]+"_us_per_txn", perAttempt(self[spanExecSelect+uint8(k)]), "us")
	}
	set("self.bullfrog_commit_us_per_txn", perAttempt(self[spanCommit]), "us")
	onRate, offRate := m.traced[0]/m.traced[1], m.untraced[0]/m.untraced[1]
	set("trace.txn_per_s_spans_on", onRate, "txn/s")
	set("trace.txn_per_s_spans_off", offRate, "txn/s")
	set("trace.overhead_pct", 100*(offRate-onRate)/offRate, "%")

	// The program's own counters, as deltas over the measured phase.
	e0, e1 := m.m0, m.m1
	built := float64(e1.Engine.PlansBuilt - e0.Engine.PlansBuilt)
	reused := float64(e1.Engine.PlansReused - e0.Engine.PlansReused)
	set("engine.plans_built_per_txn", built/txns, "count/txn")
	set("engine.plan_reuse", ratio(reused, built+reused), "ratio")
	set("engine.rows_scanned_per_txn", float64(e1.Engine.RowsScanned-e0.Engine.RowsScanned)/txns, "count/txn")
	set("engine.vacuum_ms", medianMs(m.vacuums), "ms")
	var retried int64
	for _, n := range retries {
		retried += n
	}
	set("txn.retries_per_txn", float64(retried)/txns, "count/txn")
	set("txn.row_missing_retries", float64(retries[causeRowMissing]), "count")
	set("txn.write_conflicts", float64(e1.Txn.WriteConflicts-e0.Txn.WriteConflicts), "count")
	set("txn.lock_timeouts", float64(e1.Txn.LockTimeouts-e0.Txn.LockTimeouts), "count")
	set("txn.lock_wait_us_p99", us(histDelta(e0.Txn.LockWait, e1.Txn.LockWait).Quantile(0.99)), "us")
	set("wal.records_per_txn", float64(e1.WAL.Records-e0.WAL.Records)/txns, "count/txn")
	set("wal.commits_per_sync", ratio(float64(e1.Txn.Commits-e0.Txn.Commits), float64(e1.WAL.Syncs-e0.WAL.Syncs)), "ratio")
	sync := histDelta(e0.WAL.SyncLatency, e1.WAL.SyncLatency)
	set("wal.sync_us_p50", us(sync.Quantile(0.5)), "us")
	set("wal.sync_us_p99", us(sync.Quantile(0.99)), "us")
	set("core.flip_ms", float64(m.flip)/1e6, "ms")
	set("core.migration_s", m.migration.Seconds(), "s")
	set("catalog.install_cas_retries", float64(e1.Catalog.InstallCASRetries-e0.Catalog.InstallCASRetries), "count")
	ensure := histDelta(e0.Migration.EnsureLatency, e1.Migration.EnsureLatency)
	set("core.ensure_us_p50", us(ensure.Quantile(0.5)), "us")
	set("core.ensure_us_p99", us(ensure.Quantile(0.99)), "us")
	set("core.ensure_count", float64(ensure.Count), "count")
	lazy := e1.Migration.TuplesLazy - e0.Migration.TuplesLazy
	bg := e1.Migration.TuplesBackground - e0.Migration.TuplesBackground
	set("core.tuples_lazy", float64(lazy), "count")
	set("core.tuples_background", float64(bg), "count")
	backfill := 0.0
	if span := m.migration - m.flip - cfg.workload.bgDelay; cfg.workload.migration != nil && span > 0 {
		backfill = float64(bg) / span.Seconds()
	}
	set("core.backfill_rows_per_s", backfill, "rows/s")
	set("wal.open_recovery_ms", float64(rec.openRecover)/1e6, "ms")
	set("core.recover_from_ms", float64(rec.recoverFrom)/1e6, "ms")
	st := rec.stats
	set("engine.replay_records_per_s", float64(st.Inserts+st.Updates+st.Deletes+st.Migrated)/rec.recoverFrom.Seconds(), "records/s")
	set("tpcc.load_rows_per_s", float64(loadedRows)/loadTime.Seconds(), "rows/s")
	return nil
}

// histDelta is b - a for two snapshots of one histogram. Max cannot be
// differenced; b's Max stays as the upper clamp.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	d.Buckets = append([]int64(nil), b.Buckets...)
	for i := range a.Buckets {
		if i < len(d.Buckets) {
			d.Buckets[i] -= a.Buckets[i]
		}
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// pct is the nearest-rank p-quantile of sorted, or 0 when it is empty.
func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func medianMs(ds []time.Duration) float64 {
	s := make([]int64, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	sortInt64(s)
	return pct(s, 0.5) / 1e6
}

func addCounts(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

func sumCounts(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}
