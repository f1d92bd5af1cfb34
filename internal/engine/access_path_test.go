package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// planWith compiles a SELECT against the head catalog under the given access
// rules, bypassing the plan cache.
func planWith(t *testing.T, db *DB, src string, rules accessRules) *Plan {
	t.Helper()
	stmt, err := sql.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &planBuilder{db: db, cat: db.cat.Head(), rules: rules}
	root, err := b.buildSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return &Plan{db: db, root: root}
}

// rowsOf runs a plan and returns its rows rendered and sorted.
func rowsOf(t *testing.T, p *Plan, tx *txn.Txn) []string {
	t.Helper()
	var out []string
	if err := p.Execute(tx, func(r types.Row) error { out = append(out, r.String()); return nil }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

func explainOf(t *testing.T, db *DB, src string) string {
	t.Helper()
	return mustExec(t, db, "EXPLAIN "+src).Explain
}

const stockLevelSchema = `
CREATE TABLE order_line (
	ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT,
	PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number));
CREATE TABLE stock (
	s_w_id INT, s_i_id INT, s_quantity INT,
	PRIMARY KEY (s_w_id, s_i_id));
CREATE TABLE new_order (
	no_w_id INT, no_d_id INT, no_o_id INT,
	PRIMARY KEY (no_w_id, no_d_id, no_o_id));`

// TestStockLevelPlansIndexJoin: TPC-C StockLevel's stock side is fixed by a
// constant warehouse and the joined item id, which together cover
// stock_pkey, so each order line probes the index instead of the join
// hashing the whole warehouse's stock.
func TestStockLevelPlansIndexJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, stockLevelSchema)
	for i := 1; i <= 50; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO stock VALUES (1, %d, %d), (2, %d, %d)`, i, i%20, i, i%20))
	}
	for o := 1; o <= 10; o++ {
		for n := 1; n <= 5; n++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO order_line VALUES (1, 3, %d, %d, %d)`, o, n, (o*7+n*3)%50+1))
		}
	}
	q := `SELECT COUNT(DISTINCT s.s_i_id) FROM order_line l, stock s WHERE l.ol_w_id = 1 AND l.ol_d_id = 3
		AND l.ol_o_id >= 4 AND l.ol_o_id < 9 AND s.s_w_id = 1 AND s.s_i_id = l.ol_i_id AND s.s_quantity < 12`
	plan := explainOf(t, db, q)
	if !strings.Contains(plan, "Index Nested Loop using stock_pkey (=2 cols) on stock") {
		t.Errorf("StockLevel should probe stock_pkey on both columns:\n%s", plan)
	}
	if strings.Contains(plan, "Hash Join") {
		t.Errorf("StockLevel should not hash the stock side:\n%s", plan)
	}
	tx := db.Begin()
	defer db.Abort(tx)
	got := rowsOf(t, planWith(t, db, q, accessRules{}), tx)
	want := rowsOf(t, planWith(t, db, q, accessRules{noIndexJoin: true}), tx)
	if !slices.Equal(got, want) {
		t.Errorf("index join %v, hash join %v", got, want)
	}

	// The stock scan's own index fixes only s_w_id, which is shorter than the
	// probe; a right side already fixed on the whole key stays a hash join.
	full := explainOf(t, db, `SELECT * FROM order_line l, stock s WHERE s.s_w_id = 1 AND s.s_i_id = 7 AND s.s_quantity = l.ol_i_id`)
	if strings.Contains(full, "Index Nested Loop") {
		t.Errorf("a right side fixed by its own key needs no probe:\n%s", full)
	}
}

// TestDeliveryMinPlansProbe: Delivery's MIN(no_o_id) over one district reads
// new_order_pkey from the district's first entry instead of aggregating all.
func TestDeliveryMinPlansProbe(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, stockLevelSchema)
	for o := 1; o <= 30; o++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO new_order VALUES (1, 2, %d), (1, 3, %d)`, o+100, o))
	}
	q := `SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = 2`
	plan := explainOf(t, db, q)
	if !strings.Contains(plan, "Index Min Probe: MIN(no_o_id)") || !strings.Contains(plan, "new_order_pkey (=2 cols") {
		t.Errorf("Delivery MIN should probe new_order_pkey:\n%s", plan)
	}
	mustExec(t, db, `DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = 2 AND no_o_id = 101`)
	if got := mustExec(t, db, q).Rows[0][0].Int(); got != 102 {
		t.Errorf("MIN after deleting the first order = %d, want 102", got)
	}
	// Shapes the probe does not answer keep the hash aggregate.
	for _, other := range []string{
		`SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = 1`, // no_o_id is not next after the prefix
		`SELECT MIN(no_o_id), MAX(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = 2`,
		`SELECT no_d_id, MIN(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = 2 GROUP BY no_d_id`,
	} {
		if p := explainOf(t, db, other); strings.Contains(p, "Min Probe") {
			t.Errorf("%s should not use the probe:\n%s", other, p)
		}
	}
}

// TestAccessPathsMatchGeneralOperators runs randomized tables through the
// index join and the MIN probe and through full scans feeding the hash join
// and the full aggregate, and requires identical results. The tables carry
// what the new paths must survive: stale postings left by key-changing updates (read
// both by snapshots that see the new keys and by one that still sees the
// old), NULLs in the MIN column, rows deleted by committed and by still
// uncommitted transactions, own uncommitted writes, and empty ranges. It
// repeats the comparison after a vacuum has reclaimed dead postings.
func TestAccessPathsMatchGeneralOperators(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { differentialRun(t, seed) })
	}
}

func differentialRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Rows the pending transaction below locks make later churn statements
	// time out; they are skipped, so keep the wait short.
	db := New(Options{LockTimeout: time.Millisecond})
	mustExec(t, db, `CREATE TABLE r (a INT, b INT, c INT, v INT, PRIMARY KEY (a, b));
		CREATE INDEX r_ac ON r (a, c);
		CREATE TABLE l (id INT PRIMARY KEY, x INT, y INT);
		CREATE TABLE n (id INT PRIMARY KEY, a INT, c INT);
		CREATE INDEX n_ac ON n (a, c)`)
	maybeNull := func(n int) string {
		if rng.Intn(5) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(n))
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 30; b++ {
			if rng.Intn(3) > 0 {
				mustExec(t, db, fmt.Sprintf(`INSERT INTO r VALUES (%d, %d, %s, %s)`, a, b, maybeNull(40), maybeNull(10)))
			}
		}
	}
	for id := 0; id < 40; id++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO l VALUES (%d, %s, %d)`, id, maybeNull(35), rng.Intn(5)))
		// n_ac is the only index led by n.a, so MIN(c) over one a probes
		// it with no range to keep NULL entries out.
		mustExec(t, db, fmt.Sprintf(`INSERT INTO n VALUES (%d, %d, %s)`, id, rng.Intn(4), maybeNull(40)))
	}
	old := db.Begin() // sees the table before the churn below
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			a, b := rng.Intn(4), rng.Intn(30)
			switch rng.Intn(4) {
			case 0: // move the primary key (stale posting under the old b)
				_, _ = db.Exec(fmt.Sprintf(`UPDATE r SET b = %d WHERE a = %d AND b = %d`, 30+rng.Intn(30), a, b))
			case 1: // move the secondary key, possibly to NULL
				_, _ = db.Exec(fmt.Sprintf(`UPDATE r SET c = %s WHERE a = %d AND b = %d`, maybeNull(40), a, b))
			case 2:
				_, _ = db.Exec(fmt.Sprintf(`DELETE FROM r WHERE a = %d AND b = %d`, a, b))
			case 3:
				_, _ = db.Exec(fmt.Sprintf(`UPDATE r SET v = %s WHERE a = %d AND b = %d`, maybeNull(10), a, b))
			}
			id := rng.Intn(40)
			switch rng.Intn(3) {
			case 0:
				_, _ = db.Exec(fmt.Sprintf(`UPDATE n SET c = %s WHERE id = %d`, maybeNull(40), id))
			case 1:
				_, _ = db.Exec(fmt.Sprintf(`UPDATE n SET a = %d WHERE id = %d`, rng.Intn(4), id))
			case 2:
				_, _ = db.Exec(fmt.Sprintf(`DELETE FROM n WHERE id = %d`, id))
			}
		}
	}
	churn(60)
	// Uncommitted deletes and key moves: invisible to other snapshots,
	// visible to their own transaction.
	pending := db.Begin()
	for i := 0; i < 8; i++ {
		_, _ = db.ExecTx(pending, fmt.Sprintf(`DELETE FROM r WHERE a = %d AND b = %d`, rng.Intn(4), rng.Intn(30)))
		_, _ = db.ExecTx(pending, fmt.Sprintf(`UPDATE r SET c = %d WHERE a = %d AND b = %d`, rng.Intn(40), rng.Intn(4), rng.Intn(60)))
		_, _ = db.ExecTx(pending, fmt.Sprintf(`UPDATE n SET c = %s WHERE id = %d`, maybeNull(40), rng.Intn(40)))
		_, _ = db.ExecTx(pending, fmt.Sprintf(`DELETE FROM n WHERE id = %d`, rng.Intn(40)))
	}

	joins := []string{
		`SELECT l.id, r.b, r.v FROM l, r WHERE r.a = 2 AND r.b = l.x`,
		`SELECT l.id, r.b FROM l, r WHERE r.a = l.y AND r.b = l.x AND r.v > 3`,
		`SELECT l.id, r.b, r.c FROM l, r WHERE r.a = 1 AND r.c = l.x`,
		`SELECT l.id, r.b FROM l, r WHERE r.a = 3 AND r.c = l.x AND r.b = l.y`,
		`SELECT COUNT(*) FROM l, r WHERE r.a = 9 AND r.b = l.x`,
	}
	mins := []string{
		`SELECT MIN(b) FROM r WHERE a = 0`,
		`SELECT MIN(b) FROM r WHERE a = 1 AND v > 4`,
		`SELECT MIN(b) FROM r WHERE a = 2 AND b >= 10 AND b < 20`,
		`SELECT MIN(c) FROM n WHERE a = 3`,
		`SELECT MIN(c) FROM n WHERE a = 0`,
		`SELECT MIN(c) FROM r WHERE a = 1 AND c > 15 AND v < 5`,
		`SELECT MIN(b) FROM r WHERE a = 7`,
		`SELECT MIN(c) FROM r WHERE a = 2 AND c > 1000`,
	}
	compare := func(stage string) {
		t.Helper()
		for _, q := range joins {
			fast := planWith(t, db, q, accessRules{})
			if !strings.Contains(ExplainPlan(fast), "Index Nested Loop") {
				t.Fatalf("%s: no index join planned:\n%s", q, ExplainPlan(fast))
			}
			slow := planWith(t, db, seqOnly(q), accessRules{noIndexJoin: true})
			compareUnder(t, stage, q, fast, slow, db, old, pending)
		}
		for _, q := range mins {
			fast := planWith(t, db, q, accessRules{})
			if !strings.Contains(ExplainPlan(fast), "Index Min Probe") {
				t.Fatalf("%s: no MIN probe planned:\n%s", q, ExplainPlan(fast))
			}
			slow := planWith(t, db, seqOnly(q), accessRules{noMinProbe: true})
			compareUnder(t, stage, q, fast, slow, db, old, pending)
		}
	}
	compare("after churn")
	db.Abort(old)
	churn(60)
	db.Vacuum()
	compare("after vacuum")
	db.Abort(pending)
	churn(30)
	db.Vacuum()
	compare("after abort and vacuum")
}

var constCmp = regexp.MustCompile(`(\w+(?:\.\w+)?) (=|>=|<=|<|>) (\d+)`)

// seqOnly rewrites a query's column-to-constant comparisons as col + 0 OP
// const, which no index can serve: the reference plan then reads every table
// in full and cannot share a fault with index maintenance.
func seqOnly(q string) string { return constCmp.ReplaceAllString(q, "$1 + 0 $2 $3") }

// compareUnder runs both plans in a fresh transaction and in each of the
// open transactions (skipping finished ones) and requires equal results.
func compareUnder(t *testing.T, stage, q string, fast, slow *Plan, db *DB, open ...*txn.Txn) {
	t.Helper()
	if strings.Contains(ExplainPlan(slow), "Index") {
		t.Fatalf("%s: reference plan reads an index:\n%s", q, ExplainPlan(slow))
	}
	fresh := db.Begin()
	defer db.Abort(fresh)
	for _, tx := range append(open, fresh) {
		if tx.Done() {
			continue
		}
		got, want := rowsOf(t, fast, tx), rowsOf(t, slow, tx)
		if !slices.Equal(got, want) {
			t.Errorf("%s, %s, snapshot %d: index path %v, general path %v", stage, q, tx.Snapshot().Seq, got, want)
		}
	}
}

// TestVacuumReclaimsDeadPostings: vacuum deletes the postings of a tuple
// whose deletion every snapshot sees, but not while an older snapshot can
// still read the row, and never for a deletion that aborted.
func TestVacuumReclaimsDeadPostings(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE d (id INT PRIMARY KEY, g INT); CREATE INDEX d_g ON d (g)`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO d VALUES (%d, %d)`, i, i%3))
	}
	tbl, err := db.Catalog().Table("d")
	if err != nil {
		t.Fatal(err)
	}
	postings := func() (n int) {
		for _, idx := range tbl.Indexes() {
			n += idx.Len()
		}
		return n
	}
	if postings() != 20 {
		t.Fatalf("postings = %d, want 20", postings())
	}

	reader := db.Begin() // older than the delete
	mustExec(t, db, `DELETE FROM d WHERE id = 4`)
	db.Vacuum()
	if postings() != 20 {
		t.Errorf("postings = %d while a snapshot still sees the row, want 20", postings())
	}
	res, err := db.ExecTx(reader, `SELECT g FROM d WHERE id = 4`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("old snapshot lost the deleted row: %v %v", res, err)
	}
	if res, _ := db.ExecTx(reader, `SELECT id FROM d WHERE g = 1`); len(res.Rows) != 3 { // 1, 4, 7
		t.Errorf("old snapshot through the secondary index: %v", res.Rows)
	}
	db.Abort(reader)
	db.Vacuum()
	if postings() != 18 {
		t.Errorf("postings = %d after the horizon passed the delete, want 18", postings())
	}

	aborted := db.Begin()
	if _, err := db.ExecTx(aborted, `DELETE FROM d WHERE id = 5`); err != nil {
		t.Fatal(err)
	}
	db.Abort(aborted)
	db.Vacuum()
	if postings() != 18 {
		t.Errorf("postings = %d after an aborted delete, want 18", postings())
	}
	if res := mustExec(t, db, `SELECT g FROM d WHERE id = 5`); len(res.Rows) != 1 {
		t.Errorf("row of the aborted delete: %v", res.Rows)
	}

	// A key-changing update leaves the old key's posting until the old
	// version is pruned; then only the new key remains.
	mustExec(t, db, `UPDATE d SET g = 7 WHERE id = 6`)
	if postings() != 19 {
		t.Errorf("postings = %d after a key move, want 19", postings())
	}
	db.Vacuum()
	if postings() != 18 {
		t.Errorf("postings = %d after vacuuming the moved key, want 18", postings())
	}
	if res := mustExec(t, db, `SELECT id FROM d WHERE g = 7`); len(res.Rows) != 1 {
		t.Errorf("moved row by its new key: %v", res.Rows)
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM d`); res.Rows[0][0].Int() != 9 {
		t.Errorf("count = %v, want 9", res.Rows[0][0])
	}
}

// TestAbortedKeyMoveKeepsSharedPosting: an update that moves a key back to a
// value an older version still has finds that version's posting already in
// place; aborting the update must leave it, or a snapshot that sees the
// older version loses the row through the index.
func TestAbortedKeyMoveKeepsSharedPosting(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE m (id INT PRIMARY KEY, g INT); CREATE INDEX m_g ON m (g); INSERT INTO m VALUES (1, 1)`)
	reader := db.Begin() // sees g = 1
	defer db.Abort(reader)
	mustExec(t, db, `UPDATE m SET g = 7 WHERE id = 1`)
	back := db.Begin()
	if _, err := db.ExecTx(back, `UPDATE m SET g = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	db.Abort(back)
	res, err := db.ExecTx(reader, `SELECT id FROM m WHERE g = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("old snapshot by its key after an aborted move back: %v", res.Rows)
	}
	if !strings.Contains(explainOf(t, db, `SELECT id FROM m WHERE g = 1`), "m_g") {
		t.Error("the lookup should go through m_g")
	}
}
