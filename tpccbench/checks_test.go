package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bullfrogdb/bullfrog"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
	"github.com/bullfrogdb/bullfrog/internal/types"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

// testScale is small enough for a unit test and large enough that every
// district has undelivered orders and every name lookup hits. It keeps the
// ten districts per warehouse that make the loaded w_ytd equal the sum of
// d_ytd (consistency condition 1).
var testScale = tpcc.Scale{
	Warehouses: 1, DistrictsPerW: 10, CustomersPerDist: 30, Items: 50,
	InitialOrdersPerD: 20, MaxLinesPerOrder: 6,
}

// fixture is a loaded database with a client that has run part of the mix.
type fixture struct {
	db     *bullfrog.DB
	wdir   *wal.Dir // nil unless opened with a log
	walDir string
	c      *client
	sch    *atomic.Int32
}

func newFixture(t *testing.T, withWAL bool) *fixture {
	t.Helper()
	f := &fixture{sch: new(atomic.Int32)}
	opts := bullfrog.Options{}
	if withWAL {
		f.walDir = filepath.Join(t.TempDir(), "wal")
		var err error
		if f.wdir, err = wal.OpenDir(f.walDir, wal.DirOptions{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		opts.WAL = f.wdir
	}
	f.db = bullfrog.Open(opts)
	t.Cleanup(func() {
		if f.wdir == nil {
			f.db.Close()
		}
	})
	if _, err := f.db.Exec(tpcc.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(f.db.Engine(), testScale, 7); err != nil {
		t.Fatal(err)
	}
	f.c = &client{
		id: 1, home: 1, scale: testScale, db: f.db, r: rand.New(rand.NewSource(3)),
		schema: f.sch, flip: new(sync.RWMutex), led: newLedger(), stats: newOpStats(),
		stamp: new(atomic.Int64), commit: new(atomic.Int64),
	}
	return f
}

// mix runs n client transactions and fails the test on any failed one.
func (f *fixture) mix(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f.c.op(context.Background(), processStart)
	}
	if failed := sumCounts(f.c.stats.failed); failed > 0 {
		t.Fatalf("%d client transactions failed: %s", failed, fmtCounts(f.c.stats.failed))
	}
}

// migrate runs wl's migration to completion and switches the client to the
// new schema.
func (f *fixture) migrate(t *testing.T, wl workload) {
	t.Helper()
	if _, err := f.db.MigrateContext(context.Background(), wl.migration(), bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
		t.Fatal(err)
	}
	if err := f.db.FinishMigration(); err != nil {
		t.Fatal(err)
	}
	f.sch.Store(int32(wl.target))
}

func (f *fixture) expect() expectation {
	return expectation{scale: testScale, schema: schema(f.sch.Load()), led: f.c.led}
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// wantProblem fails the test unless some problem starts with prefix.
func wantProblem(t *testing.T, problems []string, prefix string) {
	t.Helper()
	for _, p := range problems {
		if strings.HasPrefix(p, prefix) {
			return
		}
	}
	t.Fatalf("no %q violation reported; got %q", prefix, problems)
}

func TestChecksPassOnEverySchema(t *testing.T) {
	for _, name := range []string{"tpcc-steady", "tpcc-split", "tpcc-join"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, false)
			f.mix(t, 150)
			if wl := workloadNamed(t, name); wl.migration != nil {
				f.migrate(t, wl)
				f.mix(t, 150)
			}
			if f.c.led.payments == 0 {
				t.Fatal("the mix committed no payment")
			}
			if problems := checkAll(f.db, f.expect()); len(problems) > 0 {
				t.Fatalf("checks failed on an undamaged database: %q", problems)
			}
		})
	}
}

// TestLedgerCatchesLostPayment leaves one acknowledged payment out of
// w_ytd.
func TestLedgerCatchesLostPayment(t *testing.T) {
	f := newFixture(t, false)
	f.mix(t, 100)
	p := drawParams(f.c.r, testScale, txPayment, 1, 1)
	s := session{ctx: context.Background(), db: f.db}
	eff, err := s.run(&p, schemaOriginal)
	if err != nil {
		t.Fatal(err)
	}
	f.c.led.add(eff)
	if problems := checkAll(f.db, f.expect()); len(problems) > 0 {
		t.Fatalf("undamaged: %q", problems)
	}
	if _, err := f.db.Exec("UPDATE warehouse SET w_ytd = w_ytd - " + amountSQL(p.cents) + " WHERE w_id = 1"); err != nil {
		t.Fatal(err)
	}
	wantProblem(t, checkAll(f.db, f.expect()), "ledger: warehouse 1 w_ytd")
}

// TestSplitCatchesDuplicateCustomer writes a second copy of a customer row
// into customer_private's heap, past its primary-key index.
func TestSplitCatchesDuplicateCustomer(t *testing.T) {
	f := newFixture(t, false)
	f.migrate(t, workloadNamed(t, "tpcc-split"))
	f.mix(t, 50)
	res, err := f.db.Exec("SELECT * FROM customer_private WHERE c_w_id = 1 AND c_d_id = 2 AND c_id = 9")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("reading customer: %v %v", res, err)
	}
	eng := f.db.Engine()
	tbl, err := eng.Catalog().Table("customer_private")
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Begin()
	tbl.Heap.Insert(tx.ID(), types.Row(res.Rows[0]).Clone())
	if err := eng.Commit(tx); err != nil {
		t.Fatal(err)
	}
	wantProblem(t, checkAll(f.db, f.expect()), "split: customer [1 2 9] appears 2 times in customer_private")
}

// TestJoinCatchesDisagreeingGroup changes s_quantity in one row of a
// multi-row orderline_stock group.
func TestJoinCatchesDisagreeingGroup(t *testing.T) {
	f := newFixture(t, false)
	f.migrate(t, workloadNamed(t, "tpcc-join"))
	f.mix(t, 50)
	res, err := f.db.Exec("SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, ol_supply_w_id, ol_i_id FROM orderline_stock WHERE ol_o_id IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	size := map[[2]int64]int{}
	for _, r := range res.Rows {
		size[[2]int64{r[4].Int(), r[5].Int()}]++
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][2].Int() < res.Rows[j][2].Int() })
	var victim bullfrog.Row
	for _, r := range res.Rows {
		if size[[2]int64{r[4].Int(), r[5].Int()}] >= 2 {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no orderline_stock group with two order lines")
	}
	if problems := checkAll(f.db, f.expect()); len(problems) > 0 {
		t.Fatalf("undamaged: %q", problems)
	}
	if _, err := f.db.Exec("UPDATE orderline_stock SET s_quantity = s_quantity + 1 WHERE ol_w_id = " +
		victim[0].String() + " AND ol_d_id = " + victim[1].String() + " AND ol_o_id = " + victim[2].String() +
		" AND ol_number = " + victim[3].String()); err != nil {
		t.Fatal(err)
	}
	wantProblem(t, checkAll(f.db, f.expect()), "join: group ")
}

// TestRecoveryCatchesTruncatedSegment cuts the last WAL segment so the last
// acknowledged commit does not survive recovery.
func TestRecoveryCatchesTruncatedSegment(t *testing.T) {
	for _, cut := range []int64{0, 8} {
		f := newFixture(t, true)
		wl := workloadNamed(t, "tpcc-split")
		f.migrate(t, wl)
		f.mix(t, 100)
		p := drawParams(f.c.r, testScale, txPayment, 1, 1)
		s := session{ctx: context.Background(), db: f.db}
		eff, err := s.run(&p, schemaSplit)
		if err != nil {
			t.Fatal(err)
		}
		f.c.led.add(eff)
		if err := f.wdir.Close(); err != nil { // crash
			t.Fatal(err)
		}
		if cut > 0 {
			segs, err := filepath.Glob(filepath.Join(f.walDir, "*.wal"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			info, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, info.Size()-cut); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := recoverDB(context.Background(), f.walDir, wl, nil)
		if err != nil {
			t.Fatal(err)
		}
		problems := checkAll(rec.db, f.expect())
		rec.db.Close()
		if cut == 0 {
			if len(problems) > 0 {
				t.Fatalf("intact log: %q", problems)
			}
			continue
		}
		wantProblem(t, problems, "ledger: ")
	}
}
