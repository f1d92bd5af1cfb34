package bullfrog_test

// One benchmark per figure of the paper's evaluation (§4, Figures 3-12),
// plus micro-benchmarks of the structures BullFrog's overhead rests on.
// Figure benches run a compressed experiment and report the paper's headline
// quantities as custom metrics:
//
//	tps-<system>    mean completed throughput
//	p99ms-<system>  99th-percentile NewOrder latency (ms)
//	migs-<system>   migration end time (s; 0 = unfinished in window)
//
// `go run ./cmd/bullfrog-bench -fig N` prints the full series the figures
// plot. See EXPERIMENTS.md for paper-vs-measured shape comparisons.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/bench"
	"github.com/bullfrogdb/bullfrog/internal/core"
	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// benchProfile compresses each experiment run to ~2.5 seconds.
func benchProfile() bench.Profile {
	return bench.Profile{
		Scale: tpcc.Scale{
			Warehouses: 1, DistrictsPerW: 8, CustomersPerDist: 120,
			Items: 250, InitialOrdersPerD: 50, MaxLinesPerOrder: 8,
		},
		Workers:   4,
		Duration:  2500 * time.Millisecond,
		MigrateAt: 600 * time.Millisecond,
		BGDelay:   500 * time.Millisecond,
		Seed:      42,
	}
}

func reportFigure(b *testing.B, fr *bench.FigureResult) {
	b.Helper()
	for _, r := range fr.Runs {
		if r.Err != nil {
			b.Fatalf("%v: %v", r.Config.System, r.Err)
		}
		name := r.Config.System.String()
		if r.Config.Granularity > 1 {
			name = fmt.Sprintf("%s-page%d", name, r.Config.Granularity)
		}
		if r.Config.HotCustomers > 0 {
			name = fmt.Sprintf("%s-hot%d", name, r.Config.HotCustomers)
		}
		if r.Config.Constraints.FKOrders {
			name += "-fk2"
		} else if r.Config.Constraints.FKDistrict {
			name += "-fk1"
		}
		b.ReportMetric(r.Metrics.MeanTPS(), "tps-"+name)
		b.ReportMetric(float64(r.Metrics.Percentile(99))/1e6, "p99ms-"+name)
		b.ReportMetric(r.MigEnd.Seconds(), "migs-"+name)
	}
}

func runFigureBench(b *testing.B, run func(bench.Profile, float64) (*bench.FigureResult, error), frac float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fr, err := run(benchProfile(), frac)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fr)
	}
}

// BenchmarkFigure3 — throughput during table-split migration (low load).
func BenchmarkFigure3(b *testing.B) { runFigureBench(b, bench.Figure3, 0.6) }

// BenchmarkFigure3Saturated — the 700 TPS regime (Figure 3b).
func BenchmarkFigure3Saturated(b *testing.B) { runFigureBench(b, bench.Figure3, 1.0) }

// BenchmarkFigure4 — table-split latency CDFs.
func BenchmarkFigure4(b *testing.B) { runFigureBench(b, bench.Figure4, 0.6) }

// BenchmarkFigure5 — throughput during aggregate migration.
func BenchmarkFigure5(b *testing.B) { runFigureBench(b, bench.Figure5, 0.6) }

// BenchmarkFigure6 — aggregate migration latency CDFs.
func BenchmarkFigure6(b *testing.B) { runFigureBench(b, bench.Figure6, 0.6) }

// BenchmarkFigure7 — throughput during join migration.
func BenchmarkFigure7(b *testing.B) { runFigureBench(b, bench.Figure7, 0.6) }

// BenchmarkFigure8 — join migration latency CDFs.
func BenchmarkFigure8(b *testing.B) { runFigureBench(b, bench.Figure8, 0.6) }

// BenchmarkFigure9 — tracking-overhead ablation (bitmap vs none).
func BenchmarkFigure9(b *testing.B) { runFigureBench(b, bench.Figure9, 0.8) }

// BenchmarkFigure10 — skewed access (hot-set sweep).
func BenchmarkFigure10(b *testing.B) { runFigureBench(b, bench.Figure10, 0.8) }

// BenchmarkFigure11 — migration granularity sweep.
func BenchmarkFigure11(b *testing.B) { runFigureBench(b, bench.Figure11, 0.6) }

// BenchmarkFigure12 — FK constraint widening (full workload; 12b's partial
// workload runs via cmd/bullfrog-bench -fig 12).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr, err := bench.Figure12(benchProfile(), 0.6, false)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fr)
	}
}

// --- micro-benchmarks ---

// BenchmarkBitmapTryClaim measures the Algorithm 2 fast path.
func BenchmarkBitmapTryClaim(b *testing.B) {
	bm := core.NewBitmap(1<<20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := int64(i) % (1 << 20)
		if bm.TryClaimGranule(g) == core.Claimed {
			bm.MarkMigratedGranule(g)
		}
	}
}

// BenchmarkBitmapCheckMigrated measures the per-tuple status read every
// post-migration access pays (the §4.4.1 overhead).
func BenchmarkBitmapCheckMigrated(b *testing.B) {
	bm := core.NewBitmap(1<<20, 1)
	for g := int64(0); g < 1<<20; g++ {
		bm.TryClaimGranule(g)
		bm.MarkMigratedGranule(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.IsMigratedGranule(int64(i) % (1 << 20))
	}
}

// BenchmarkHashTrackerClaim measures Algorithm 3's hash-table operations.
func BenchmarkHashTrackerClaim(b *testing.B) {
	h := core.NewHashTracker()
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = types.EncodeKey(nil, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if h.TryClaim(k) == core.Claimed {
			h.MarkMigrated(k)
		}
	}
}

// BenchmarkBTreeInsert measures the index hot path.
func BenchmarkBTreeInsert(b *testing.B) {
	idx := index.NewBTree(&index.Def{ID: 1, Name: "bench", Columns: []int{0}})
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := types.EncodeKey(nil, types.Row{types.NewInt(r.Int63n(1 << 24))})
		idx.Insert(key, storage.TID{Page: uint32(i / 256), Slot: uint32(i % 256)})
	}
}

// BenchmarkEngineInsert measures a full constrained insert (PK check, WAL
// disabled, index maintenance) through the engine.
func BenchmarkEngineInsert(b *testing.B) {
	db := engine.New(engine.Options{})
	if _, err := db.Exec(`CREATE TABLE t (a INT PRIMARY KEY, b CHAR(16), c FLOAT)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Table("t")
	tx := db.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewString("payload-payload"), types.NewFloat(float64(i))}
		if _, _, err := db.InsertRow(tx, tbl, row, sql.ConflictError); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	db.Commit(tx)
}

// BenchmarkTPCCNewOrder measures the full NewOrder transaction on the
// original schema (the workload unit behind every figure).
func BenchmarkTPCCNewOrder(b *testing.B) {
	scale := tpcc.TinyScale()
	db := engine.New(engine.Options{})
	if err := tpcc.CreateSchema(db); err != nil {
		b.Fatal(err)
	}
	if err := tpcc.Load(db, scale, 1); err != nil {
		b.Fatal(err)
	}
	w := tpcc.NewWorkload(db, core.NewGate(), scale)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.NewOrder(r); err != nil && err != tpcc.ErrExpectedRollback && !tpcc.IsRetryable(err) {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransposeFilters measures the predicate transposition that scopes
// every lazy migration (§2.1).
func BenchmarkTransposeFilters(b *testing.B) {
	db := engine.New(engine.Options{})
	if _, err := db.Exec(`
		CREATE TABLE flights (flightid CHAR(6) PRIMARY KEY, capacity INT,
			departure_time TIMESTAMP, arrival_time TIMESTAMP);
		CREATE TABLE flewon (flightid CHAR(6), flightdate DATE, passenger_count INT);`); err != nil {
		b.Fatal(err)
	}
	def, err := sql.ParseOne(`SELECT f.flightid AS fid, flightdate, passenger_count,
		(capacity - passenger_count) AS empty_seats
		FROM flights f, flewon fi WHERE f.flightid = fi.flightid`)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := sql.ParseExpr(`fid = 'AA101' AND EXTRACT(DAY FROM flightdate) = 9`)
	if err != nil {
		b.Fatal(err)
	}
	sel := def.(*sql.SelectStmt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.TransposeFilters(sel, pred); err != nil {
			b.Fatal(err)
		}
	}
}

// sqlBenchDB loads a small TPC-C database whose stock table (2,000 rows per
// warehouse) is large next to one StockLevel's ~100 order lines.
func sqlBenchDB(b *testing.B) *engine.DB {
	b.Helper()
	db := engine.New(engine.Options{})
	if err := tpcc.CreateSchema(db); err != nil {
		b.Fatal(err)
	}
	scale := tpcc.Scale{Warehouses: 1, DistrictsPerW: 2, CustomersPerDist: 30,
		Items: 2000, InitialOrdersPerD: 60, MaxLinesPerOrder: 10}
	if err := tpcc.Load(db, scale, 1); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkStockLevelSQL measures TPC-C StockLevel as SQL text: the last 20
// orders' lines joined with stock through stock_pkey (constant warehouse
// plus joined item id), not a hash of the warehouse's stock.
func BenchmarkStockLevelSQL(b *testing.B) {
	db := sqlBenchDB(b)
	q := `SELECT COUNT(DISTINCT s.s_i_id) FROM order_line l, stock s WHERE l.ol_w_id = 1 AND l.ol_d_id = 1
		AND l.ol_o_id >= 41 AND l.ol_o_id < 61 AND s.s_w_id = 1 AND s.s_i_id = l.ol_i_id AND s.s_quantity < 15`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryMinSQL measures Delivery's oldest-new-order lookup as SQL
// text: a first-entry probe of new_order_pkey.
func BenchmarkDeliveryMinSQL(b *testing.B) {
	db := sqlBenchDB(b)
	q := `SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = 2`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
			b.Fatalf("MIN(no_o_id) = %v", res.Rows)
		}
	}
}
