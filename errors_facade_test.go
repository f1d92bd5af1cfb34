package bullfrog_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bullfrogdb/bullfrog"
)

// TestErrorCodes verifies the facade's structured-error contract: stable
// codes, errors.Is against the re-exported sentinels, errors.As to *Error.
func TestErrorCodes(t *testing.T) {
	t.Run("gate.closed", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{})
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := db.Exec(`SELECT 1`)
		assertCode(t, err, bullfrog.CodeGateClosed, bullfrog.ErrClosed)
		if _, err := db.MigrateContext(nil, &bullfrog.Migration{}, bullfrog.MigrateOptions{}); err == nil {
			t.Error("migrate on closed db should fail")
		} else {
			assertCode(t, err, bullfrog.CodeGateClosed, bullfrog.ErrClosed)
		}
	})

	t.Run("migrate.active", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{})
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE src (a INT PRIMARY KEY); INSERT INTO src VALUES (1)`); err != nil {
			t.Fatal(err)
		}
		m := func(name string) *bullfrog.Migration {
			return &bullfrog.Migration{
				Name:  name,
				Setup: `CREATE TABLE dst_` + name + ` (a INT PRIMARY KEY)`,
				Statements: []*bullfrog.Statement{{
					Name: "s", Driving: "x", Category: bullfrog.OneToOne,
					Outputs: []bullfrog.OutputSpec{{
						Table:  "dst_" + name,
						Def:    bullfrog.MustQuery(`SELECT a FROM src x`),
						KeyMap: map[string]string{"a": "a"},
					}},
				}},
			}
		}
		if err := db.Migrate(m("one"), bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
			t.Fatal(err)
		}
		err := db.Migrate(m("two"), bullfrog.MigrateOptions{BackgroundDelay: -1})
		assertCode(t, err, bullfrog.CodeMigrateActive, bullfrog.ErrMigrationActive)
	})

	t.Run("catalog.retired", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{})
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE old (a INT PRIMARY KEY); INSERT INTO old VALUES (1)`); err != nil {
			t.Fatal(err)
		}
		mig := &bullfrog.Migration{
			Name:  "retire-old",
			Setup: `CREATE TABLE fresh (a INT PRIMARY KEY)`,
			Statements: []*bullfrog.Statement{{
				Name: "s", Driving: "x", Category: bullfrog.OneToOne,
				Outputs: []bullfrog.OutputSpec{{
					Table:  "fresh",
					Def:    bullfrog.MustQuery(`SELECT a FROM old x`),
					KeyMap: map[string]string{"a": "a"},
				}},
			}},
			RetireInputs: []string{"old"},
		}
		if err := db.Migrate(mig, bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
			t.Fatal(err)
		}
		_, err := db.Exec(`SELECT * FROM old`)
		assertCode(t, err, bullfrog.CodeRetiredTable, bullfrog.ErrRetiredTable)
		var fe *bullfrog.Error
		if errors.As(err, &fe) && fe.Table != "old" {
			t.Errorf("Error.Table = %q, want old", fe.Table)
		}
	})

	t.Run("schemaver.breaking", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{})
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE keep (a INT PRIMARY KEY); CREATE TABLE dead (a INT PRIMARY KEY); INSERT INTO dead VALUES (1)`); err != nil {
			t.Fatal(err)
		}
		// Retires "dead" but no statement reads it: its rows are carried into
		// no output, so the registry classifies the migration breaking.
		mig := &bullfrog.Migration{
			Name:  "drop-dead",
			Setup: `CREATE TABLE keep2 (a INT PRIMARY KEY)`,
			Statements: []*bullfrog.Statement{{
				Name: "s", Driving: "k", Category: bullfrog.OneToOne,
				Outputs: []bullfrog.OutputSpec{{
					Table:  "keep2",
					Def:    bullfrog.MustQuery(`SELECT a FROM keep k`),
					KeyMap: map[string]string{"a": "a"},
				}},
			}},
			RetireInputs: []string{"keep", "dead"},
		}
		err := db.Migrate(mig, bullfrog.MigrateOptions{BackgroundDelay: -1})
		assertCode(t, err, bullfrog.CodeSchemaBreaking, bullfrog.ErrSchemaBreaking)
		if !strings.Contains(err.Error(), "dead") {
			t.Errorf("breaking error should name the orphaned table: %v", err)
		}
		// Force acknowledges the data loss and submits anyway.
		if err := db.Migrate(mig, bullfrog.MigrateOptions{BackgroundDelay: -1, Force: true}); err != nil {
			t.Fatalf("forced breaking migration: %v", err)
		}
	})

	t.Run("schemaver.lossy", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{})
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, grp INT, v INT);
			INSERT INTO items VALUES (1, 1, 10); INSERT INTO items VALUES (2, 1, 20)`); err != nil {
			t.Fatal(err)
		}
		mig := &bullfrog.Migration{
			Name:  "totals",
			Setup: `CREATE TABLE totals (grp INT PRIMARY KEY, total INT)`,
			Statements: []*bullfrog.Statement{{
				Name: "totals", Driving: "i", Category: bullfrog.ManyToOne,
				GroupBy: []string{"grp"},
				Outputs: []bullfrog.OutputSpec{{
					Table: "totals",
					Def:   bullfrog.MustQuery(`SELECT grp, SUM(v) AS total FROM items i GROUP BY grp`),
				}},
			}},
			RetireInputs: []string{"items"},
		}
		if err := db.Migrate(mig, bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
			t.Fatal(err)
		}
		if err := db.FinishMigration(); err != nil {
			t.Fatal(err)
		}
		// An aggregation discards row multiplicity: no mechanical inverse
		// exists, and the error carries the lost-column witness.
		err := db.RollbackMigration(bullfrog.MigrateOptions{BackgroundDelay: -1})
		assertCode(t, err, bullfrog.CodeSchemaLossy, bullfrog.ErrSchemaLossy)
		if !strings.Contains(err.Error(), "items") {
			t.Errorf("lossy error should carry a witness naming the retired table: %v", err)
		}
	})

	t.Run("txn.lock_timeout", func(t *testing.T) {
		db := bullfrog.Open(bullfrog.Options{LockTimeout: 20 * time.Millisecond})
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE c (a INT PRIMARY KEY, v INT); INSERT INTO c VALUES (1, 1)`); err != nil {
			t.Fatal(err)
		}
		t1 := db.Begin()
		defer t1.Abort()
		if _, err := t1.Exec(`UPDATE c SET v = 2 WHERE a = 1`); err != nil {
			t.Fatal(err)
		}
		t2 := db.Begin()
		defer t2.Abort()
		_, err := t2.Exec(`UPDATE c SET v = 3 WHERE a = 1`)
		assertCode(t, err, bullfrog.CodeLockTimeout, bullfrog.ErrLockTimeout)
	})
}

// TestSentinelsSurviveRetryWrap pins the taxonomy through the facade's
// catalog-install retry loop: execStmt wraps an error surfaced after a
// restart in one extra fmt layer ("after N catalog-install restart(s): ..."),
// and errors.Is must still reach every re-exported sentinel, errors.As the
// *Error carrying the code.
func TestSentinelsSurviveRetryWrap(t *testing.T) {
	cases := []struct {
		code     bullfrog.Code
		sentinel error
	}{
		{bullfrog.CodeGateClosed, bullfrog.ErrClosed},
		{bullfrog.CodeMigrateActive, bullfrog.ErrMigrationActive},
		{bullfrog.CodeLockTimeout, bullfrog.ErrLockTimeout},
		{bullfrog.CodeSerialization, bullfrog.ErrSerialization},
		{bullfrog.CodeWALAppend, bullfrog.ErrWALAppend},
		{bullfrog.CodeVersionConflict, bullfrog.ErrVersionConflict},
		{bullfrog.CodeRetiredTable, bullfrog.ErrRetiredTable},
		{bullfrog.CodeSchemaBreaking, bullfrog.ErrSchemaBreaking},
		{bullfrog.CodeSchemaLossy, bullfrog.ErrSchemaLossy},
	}
	for _, tc := range cases {
		t.Run(string(tc.code), func(t *testing.T) {
			inner := &bullfrog.Error{Code: tc.code, Op: "exec", Err: fmt.Errorf("cause: %w", tc.sentinel)}
			wrapped := fmt.Errorf("after 1 catalog-install restart(s): %w", inner)
			assertCode(t, wrapped, tc.code, tc.sentinel)
		})
	}
}

// TestErrorRendering pins the message shape: "bullfrog: <op> <table>: [code] cause".
func TestErrorRendering(t *testing.T) {
	e := &bullfrog.Error{
		Code:  bullfrog.CodeRetiredTable,
		Op:    "exec",
		Table: "flewon",
		Err:   errors.New("boom"),
	}
	if got := e.Error(); got != "bullfrog: exec flewon: [catalog.retired] boom" {
		t.Errorf("rendering = %q", got)
	}
	e.Table = ""
	if got := e.Error(); !strings.HasPrefix(got, "bullfrog: exec: [catalog.retired]") {
		t.Errorf("tableless rendering = %q", got)
	}
}

func assertCode(t *testing.T, err error, code bullfrog.Code, sentinel error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	var fe *bullfrog.Error
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T) is not a *bullfrog.Error", err, err)
	}
	if fe.Code != code {
		t.Errorf("code = %q, want %q", fe.Code, code)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
	}
}

// TestDeleteRacingCommittedDelete: two transactions take their snapshots
// before either deletes the same row. The first commits its DELETE; the
// second's DELETE (and an UPDATE in a third transaction of the same shape)
// must fail as a retryable serialization conflict, not as an untyped
// storage error.
func TestDeleteRacingCommittedDelete(t *testing.T) {
	for _, second := range []string{
		`DELETE FROM q WHERE id = 1`,
		`UPDATE q SET v = 2 WHERE id = 1`,
	} {
		t.Run(strings.Fields(second)[0], func(t *testing.T) {
			db := bullfrog.Open(bullfrog.Options{})
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE q (id INT PRIMARY KEY, v INT); INSERT INTO q VALUES (1, 0)`); err != nil {
				t.Fatal(err)
			}
			t1, t2 := db.Begin(), db.Begin()
			if _, err := t1.Exec(`DELETE FROM q WHERE id = 1`); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			before := db.Metrics().Txn.WriteConflicts
			_, err := t2.Exec(second)
			_ = t2.Abort()
			assertCode(t, err, bullfrog.CodeSerialization, bullfrog.ErrSerialization)
			if got := db.Metrics().Txn.WriteConflicts - before; got != 1 {
				t.Errorf("write conflicts counted = %d, want 1", got)
			}
		})
	}
}
