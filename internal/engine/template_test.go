package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// plainExec runs src through a fresh parse and a fresh plan, bypassing the
// statement templates.
func plainExec(t *testing.T, db *DB, src string) *Result {
	t.Helper()
	s, err := sql.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	res, err := db.ExecStmt(tx, s)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return res
}

func templateTable(t *testing.T, n int) *DB {
	t.Helper()
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b INT, s TEXT)`)
	for i := 1; i <= n; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, 's%d')`, i, i%10, i))
	}
	return db
}

func TestTemplateRebindsIndexBoundsPerExecution(t *testing.T) {
	db := templateTable(t, 50)
	built := db.Obs().Engine.PlansBuilt.Load()
	for _, a := range []int{7, 31, -5, 7} {
		q := fmt.Sprintf(`SELECT a, s FROM t WHERE a = %d`, a)
		got, want := mustExec(t, db, q), plainExec(t, db, q)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: template rows %v, plain rows %v", q, got.Rows, want.Rows)
		}
	}
	// One template plan served the three positive keys and one the negative
	// (a minus sign is a token of the shape); the plain runs build their own.
	if got := db.Obs().Engine.PlansBuilt.Load() - built; got != 2+4 {
		t.Fatalf("plans built = %d, want 2 template plans + 4 plain", got)
	}
	// A negative literal keeps the primary-key index: one slot scanned.
	mustExec(t, db, `INSERT INTO t VALUES (-5, 1, 'neg')`)
	scanned := db.Obs().Engine.RowsScanned.Load()
	res := mustExec(t, db, `SELECT s FROM t WHERE a = -5`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "neg" {
		t.Fatalf("negative key: %v", res.Rows)
	}
	if got := db.Obs().Engine.RowsScanned.Load() - scanned; got != 1 {
		t.Fatalf("negative key scanned %d rows, want 1 (index lookup)", got)
	}
}

func TestTemplatePlanFollowsCatalog(t *testing.T) {
	db := templateTable(t, 100)
	q := func(b int) string { return fmt.Sprintf(`SELECT a FROM t WHERE b = %d ORDER BY a`, b) }
	mustExec(t, db, q(3))
	scanned := db.Obs().Engine.RowsScanned.Load()
	mustExec(t, db, q(4))
	if got := db.Obs().Engine.RowsScanned.Load() - scanned; got != 100 {
		t.Fatalf("before CREATE INDEX scanned %d rows, want 100", got)
	}
	mustExec(t, db, `CREATE INDEX t_b ON t (b)`)
	scanned = db.Obs().Engine.RowsScanned.Load()
	res := mustExec(t, db, q(5))
	if got := db.Obs().Engine.RowsScanned.Load() - scanned; got != 10 {
		t.Fatalf("after CREATE INDEX scanned %d rows, want 10 through t_b", got)
	}
	if want := plainExec(t, db, q(5)); !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("rows %v, want %v", res.Rows, want.Rows)
	}

	// A catalog install (a migration's flip) gives new snapshots a new
	// version: the template plans anew for it, while a snapshot pinned
	// before the flip keeps the old version's plan.
	old := db.Begin()
	if _, err := db.InstallCatalogVersion("flip", nil, nil); err != nil {
		t.Fatal(err)
	}
	built := db.Obs().Engine.PlansBuilt.Load()
	mustExec(t, db, q(6))
	if got := db.Obs().Engine.PlansBuilt.Load() - built; got != 1 {
		t.Fatalf("plans built after the install = %d, want 1", got)
	}
	reused := db.Obs().Engine.PlansReused.Load()
	if _, err := db.ExecTx(old, q(7)); err != nil {
		t.Fatal(err)
	}
	if got := db.Obs().Engine.PlansReused.Load() - reused; got != 1 {
		t.Fatalf("pre-install snapshot reused %d plans, want 1", got)
	}
	_ = db.Abort(old)
}

func TestTemplateFallbackShapes(t *testing.T) {
	db := templateTable(t, 30)
	for _, q := range []string{
		// Grouping by a literal expression: the plain planner matches the
		// item to the group key by its text, which two Params never share.
		`SELECT b + 1, COUNT(*) FROM t GROUP BY b + 1 ORDER BY 1`,
		`SELECT SUM(a * 2) FROM t WHERE b = 3`,
		// LIMIT's count is part of the shape, not a parameter.
		`SELECT a FROM t ORDER BY a LIMIT 2`,
		`SELECT a FROM t ORDER BY a LIMIT 3`,
	} {
		got, want := mustExec(t, db, q), plainExec(t, db, q)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: rows %v, want %v", q, got.Rows, want.Rows)
		}
	}
	if got := len(mustExec(t, db, `SELECT a FROM t ORDER BY a LIMIT 3`).Rows); got != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", got)
	}
	// The GROUP BY shape cached its fallback, so a second text of the shape
	// plans nothing for the template.
	stmts, err := db.Prepare(`SELECT b + 9, COUNT(*) FROM t GROUP BY b + 9 ORDER BY 1`)
	if err != nil || len(stmts) != 1 || stmts[0].src == "" {
		t.Fatalf("Prepare: %v %v", stmts, err)
	}
	if _, failed := db.plans.get(planKey{stmt: stmts[0].AST, ver: db.cat.Head().ID()}).(planFailed); !failed {
		t.Fatal("the GROUP BY template should have cached its fallback")
	}
	// Errors read as on the plain path.
	for _, q := range []string{`SELECT a FROM t LIMIT 1.5`, `SELECT nope FROM t WHERE a = 1`, `SELECT a FROM missing WHERE a = 1`} {
		_, err1 := db.Exec(q)
		s, perr := sql.ParseOne(q)
		var err2 error
		if perr != nil {
			err2 = perr
		} else {
			tx := db.Begin()
			_, err2 = db.ExecStmt(tx, s)
			_ = db.Abort(tx)
		}
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Fatalf("%s: template error %v, plain error %v", q, err1, err2)
		}
	}
}

func TestTemplateWritesMatchPlain(t *testing.T) {
	a, b := templateTable(t, 40), templateTable(t, 40)
	for _, db := range []*DB{a, b} {
		mustExec(t, db, `CREATE TABLE u (a INT, b INT); INSERT INTO u VALUES (1, 2), (5, 6), (9, 10)`)
	}
	for _, q := range []string{
		`UPDATE t SET b = b + 7, s = 'x' WHERE a = 3`,
		`UPDATE t SET b = 1 WHERE a >= 10 AND a < 15`,
		`DELETE FROM t WHERE a = 20`,
		`DELETE FROM t WHERE b = 4`,
		`INSERT INTO t (a, s) VALUES (100, 'new'), (101, 'newer')`,
		`INSERT INTO t SELECT a + 1000, b, 'copy' FROM u WHERE a <= 5`,
		`UPDATE t SET s = 'y' WHERE a = 999`,
	} {
		ra, rb := mustExec(t, a, q), plainExec(t, b, q)
		if ra.Affected != rb.Affected {
			t.Fatalf("%s: template affected %d, plain %d", q, ra.Affected, rb.Affected)
		}
	}
	all := `SELECT a, b, s FROM t ORDER BY a`
	if ra, rb := mustExec(t, a, all), mustExec(t, b, all); !reflect.DeepEqual(ra.Rows, rb.Rows) {
		t.Fatalf("tables diverged:\n template %v\n plain    %v", ra.Rows, rb.Rows)
	}
}

func TestStoredStringDoesNotPinStatement(t *testing.T) {
	db := templateTable(t, 0)
	src := fmt.Sprintf(`INSERT INTO t VALUES (1, 2, '%s')`, "a string stored from a statement text")
	mustExec(t, db, src)
	tbl, err := db.cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	_ = tbl.Heap.Scan(func(_ storage.TID, head *storage.Version) error {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(head.Row[2].Str()))); p >= lo && p < hi {
			t.Fatalf("stored %q points into the statement text", head.Row[2].Str())
		}
		return nil
	})
}

// TestTemplateConcurrentLiterals runs one shape from four goroutines with
// different literals; run with -race.
func TestTemplateConcurrentLiterals(t *testing.T) {
	db := templateTable(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := (g*200+i)%64 + 1
				res, err := db.Exec(fmt.Sprintf(`SELECT a, s FROM t WHERE a = %d AND b >= %d`, a, -g))
				if err != nil {
					errs <- err
					return
				}
				want := types.Row{types.NewInt(int64(a)), types.NewString(fmt.Sprintf("s%d", a))}
				if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], want) {
					errs <- fmt.Errorf("a = %d: rows %v", a, res.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
