package engine

import (
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

func mustSelect(t *testing.T, src string) *sql.SelectStmt {
	t.Helper()
	s, err := sql.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*sql.SelectStmt)
}

func TestPlanCacheReuse(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b INT);
		INSERT INTO t VALUES (1, 10), (2, 20)`)

	built0 := db.Obs().Engine.PlansBuilt.Load()
	reused0 := db.Obs().Engine.PlansReused.Load()
	mustExec(t, db, `SELECT b FROM t WHERE a = 1`)
	if got := db.Obs().Engine.PlansBuilt.Load() - built0; got != 1 {
		t.Fatalf("plans built on cold query = %d, want 1", got)
	}
	mustExec(t, db, `SELECT b FROM t WHERE a = 1`)
	mustExec(t, db, `SELECT b FROM t WHERE a = 1`)
	if got := db.Obs().Engine.PlansReused.Load() - reused0; got != 2 {
		t.Fatalf("plans reused on warm queries = %d, want 2", got)
	}
	if got := db.Obs().Engine.PlansBuilt.Load() - built0; got != 1 {
		t.Fatalf("warm queries rebuilt plans: built = %d, want 1", got)
	}
	// A statement that differs only in its literals shares the template,
	// and so the plan.
	res := mustExec(t, db, `SELECT b FROM t WHERE a = 2`)
	if got := db.PlanCacheLen(); got != 1 {
		t.Fatalf("cache entries = %d, want 1", got)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("second literal through the shared plan: %v", res.Rows)
	}
	// Shape matters: 'a' (string literal) and a (column) must not collide,
	// nor may literals of different kinds.
	for _, q := range []string{`SELECT 'a' FROM t`, `SELECT a FROM t`, `SELECT b FROM t WHERE a = 1.0`} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.PlanCacheLen(); got != 4 {
		t.Fatalf("cache entries after literal/column/kind shapes = %d, want 4", got)
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b INT)`)
	mustExec(t, db, `SELECT a FROM t`)
	if db.PlanCacheLen() == 0 {
		t.Fatal("cache should be warm before DDL")
	}
	mustExec(t, db, `ALTER TABLE t RENAME TO t2`)
	if got := db.PlanCacheLen(); got != 0 {
		t.Fatalf("cache entries after DDL = %d, want 0", got)
	}
	// A stale cached plan for `SELECT a FROM t` would still resolve the old
	// name; after invalidation the query correctly fails.
	if _, err := db.Exec(`SELECT a FROM t`); err == nil {
		t.Fatal("query against renamed-away table should fail after DDL invalidation")
	}
	res := mustExec(t, db, `SELECT * FROM t2`)
	if len(res.Columns) != 2 {
		t.Fatalf("columns after RENAME = %v", res.Columns)
	}
	mustExec(t, db, `CREATE TABLE u (x INT)`)
	if got := db.PlanCacheLen(); got != 0 {
		t.Fatalf("cache entries after CREATE = %d, want 0", got)
	}
}

// TestPlanCacheBoundRows checks the migration-path contract: one cached
// bound plan serves executions with different bound row sets (rows travel
// through the execution context, not the plan tree).
func TestPlanCacheBoundRows(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE src (a INT PRIMARY KEY, b INT)`)
	sel := mustSelect(t, `SELECT s.a, s.b FROM src s`)

	reused0 := db.Obs().Engine.PlansReused.Load()
	p1, err := db.PlanSelectBound(sel, "s")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.PlanSelectBound(sel, "s")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical bound plans should come from the cache")
	}
	if got := db.Obs().Engine.PlansReused.Load() - reused0; got != 1 {
		t.Fatalf("bound-plan reuse count = %d, want 1", got)
	}

	run := func(p *Plan, rows []types.Row) []types.Row {
		tx := db.Begin()
		defer db.Abort(tx)
		var out []types.Row
		if err := p.ExecuteBound(tx, rows, func(r types.Row) error {
			out = append(out, append(types.Row{}, r...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	out1 := run(p1, []types.Row{{types.NewInt(1), types.NewInt(10)}})
	out2 := run(p2, []types.Row{{types.NewInt(2), types.NewInt(20)}, {types.NewInt(3), types.NewInt(30)}})
	if len(out1) != 1 || out1[0][0].Int() != 1 {
		t.Fatalf("first bound execution: %v", out1)
	}
	if len(out2) != 2 || out2[0][0].Int() != 2 || out2[1][0].Int() != 3 {
		t.Fatalf("second bound execution (same cached plan): %v", out2)
	}

	// A different bound alias is a different plan shape, not a cache hit.
	sel2 := mustSelect(t, `SELECT q.a, q.b FROM src q`)
	if _, err := db.PlanSelectBound(sel2, "q"); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheLen(); got != 2 {
		t.Fatalf("cache entries = %d, want 2", got)
	}
}

func TestPlanCacheExplicitInvalidate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `SELECT a FROM t`)
	if db.PlanCacheLen() == 0 {
		t.Fatal("cache should be warm")
	}
	db.InvalidatePlans()
	if got := db.PlanCacheLen(); got != 0 {
		t.Fatalf("cache entries after InvalidatePlans = %d, want 0", got)
	}
}
