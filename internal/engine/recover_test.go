package engine

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/wal"
)

const recoverSchema = `
	CREATE TABLE accounts (id INT PRIMARY KEY, owner CHAR(10), bal FLOAT);
	CREATE INDEX accounts_owner ON accounts (owner);
`

func TestRecoverRebuildsTablesAndIndexes(t *testing.T) {
	var logBuf bytes.Buffer
	db := New(Options{WAL: wal.NewWriter(&logBuf)})
	mustExec(t, db, recoverSchema)
	mustExec(t, db, `INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 200), (3, 'carol', 300)`)
	mustExec(t, db, `UPDATE accounts SET bal = bal + 50 WHERE id = 2`)
	mustExec(t, db, `DELETE FROM accounts WHERE id = 3`)
	// An aborted transaction's records must not replay.
	tx := db.Begin()
	db.ExecTx(tx, `INSERT INTO accounts VALUES (4, 'mallory', 1)`)
	db.Abort(tx)
	// A migration-status record inside a committed txn.
	tx2 := db.Begin()
	db.LogRedo(tx2, wal.Record{Type: wal.RecMigrated, Table: "split:customer", Key: []byte{7}})
	db.Commit(tx2)

	// "Crash": build a fresh database, re-run DDL, replay.
	db2 := New(Options{})
	mustExec(t, db2, recoverSchema)
	var migrated []string
	stats, err := db2.Recover(func() (io.Reader, error) {
		return bytes.NewReader(logBuf.Bytes()), nil
	}, func(tracker string, key []byte) {
		migrated = append(migrated, tracker)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserts != 3 || stats.Updates != 1 || stats.Deletes != 1 || stats.Migrated != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if len(migrated) != 1 || migrated[0] != "split:customer" {
		t.Errorf("migrated callbacks: %v", migrated)
	}

	res := mustExec(t, db2, `SELECT id, bal FROM accounts ORDER BY id`)
	if len(res.Rows) != 2 {
		t.Fatalf("recovered rows: %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Float() != 100 {
		t.Errorf("row 1: %v", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 2 || res.Rows[1][1].Float() != 250 {
		t.Errorf("row 2: %v", res.Rows[1])
	}
	// Secondary index must be functional after recovery.
	res = mustExec(t, db2, `SELECT id FROM accounts WHERE owner = 'bob'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("index after recovery: %v", res.Rows)
	}
	// The aborted insert is gone.
	res = mustExec(t, db2, `SELECT * FROM accounts WHERE id = 4`)
	if len(res.Rows) != 0 {
		t.Error("aborted insert resurrected by recovery")
	}
}

func TestRecoverTornLog(t *testing.T) {
	var logBuf bytes.Buffer
	db := New(Options{WAL: wal.NewWriter(&logBuf)})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	full := append([]byte(nil), logBuf.Bytes()...)

	// Truncate mid-record: replay applies only complete committed txns.
	torn := full[:len(full)-3]
	db2 := New(Options{})
	mustExec(t, db2, `CREATE TABLE t (a INT PRIMARY KEY)`)
	stats, err := db2.Recover(func() (io.Reader, error) {
		return bytes.NewReader(torn), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The torn tail cut the commit record, so nothing replays.
	if stats.Inserts != 0 {
		t.Errorf("torn log replayed %d inserts", stats.Inserts)
	}
}

// TestReplayOverwritesItsOwnHeads: replay applies the log in one
// transaction, so every update overwrites the head that transaction created
// instead of stacking versions nobody can read, and a replayed key change
// leaves only the new key's posting.
func TestReplayOverwritesItsOwnHeads(t *testing.T) {
	var logBuf bytes.Buffer
	db := New(Options{WAL: wal.NewWriter(&logBuf)})
	mustExec(t, db, recoverSchema)
	mustExec(t, db, `INSERT INTO accounts VALUES (1, 'alice', 0), (2, 'bob', 0)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `UPDATE accounts SET bal = bal + 1 WHERE id = 1`)
	}
	mustExec(t, db, `UPDATE accounts SET owner = 'robert' WHERE id = 2`)

	db2 := New(Options{})
	mustExec(t, db2, recoverSchema)
	if _, err := db2.Recover(func() (io.Reader, error) { return bytes.NewReader(logBuf.Bytes()), nil }, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := db2.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	versions := 0
	tbl.Heap.Scan(func(_ storage.TID, head *storage.Version) error {
		for v := head; v != nil; v = v.Next {
			versions++
		}
		return nil
	})
	if versions != 2 {
		t.Errorf("replayed heap holds %d versions for 2 rows, want 2", versions)
	}
	for _, idx := range tbl.Indexes() {
		if idx.Len() != 2 {
			t.Errorf("index %s has %d postings after replay, want 2", idx.Def().Name, idx.Len())
		}
	}
	res := mustExec(t, db2, `SELECT bal FROM accounts WHERE id = 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 50 {
		t.Errorf("replayed balance: %v", res.Rows)
	}
	if res := mustExec(t, db2, `SELECT id FROM accounts WHERE owner = 'robert'`); len(res.Rows) != 1 {
		t.Errorf("moved key after replay: %v", res.Rows)
	}
}

// TestReplayDeltaUpdates replays updates logged as deltas of their changed
// columns: a row updated by two transactions, on different columns, comes
// back as the second image, and a delta that moves an index key moves the
// recovered index entry with it.
func TestReplayDeltaUpdates(t *testing.T) {
	var logBuf bytes.Buffer
	db := New(Options{WAL: wal.NewWriter(&logBuf)})
	mustExec(t, db, recoverSchema)
	mustExec(t, db, `INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 200)`)
	mustExec(t, db, `UPDATE accounts SET bal = 150 WHERE id = 1`)
	mustExec(t, db, `UPDATE accounts SET owner = 'ann' WHERE id = 1`)
	mustExec(t, db, `UPDATE accounts SET bal = bal WHERE id = 2`) // changes nothing

	var deltas, fulls int
	if err := wal.Replay(bytes.NewReader(logBuf.Bytes()), func(rec wal.Record) error {
		if rec.Type == wal.RecUpdate {
			if rec.Cols != nil {
				deltas++
			} else {
				fulls++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if deltas != 3 || fulls != 0 {
		t.Fatalf("logged %d delta and %d full updates, want 3 and 0", deltas, fulls)
	}

	db2 := New(Options{})
	mustExec(t, db2, recoverSchema)
	if _, err := db2.Recover(func() (io.Reader, error) { return bytes.NewReader(logBuf.Bytes()), nil }, nil); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db2, `SELECT id, owner, bal FROM accounts ORDER BY id`)
	want := "[(1, 'ann', 150) (2, 'bob', 200)]"
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("recovered rows %s, want %s", got, want)
	}
	for owner, n := range map[string]int{"ann": 1, "alice": 0, "bob": 1} {
		if got := len(mustExec(t, db2, `SELECT id FROM accounts WHERE owner = '`+owner+`'`).Rows); got != n {
			t.Errorf("owner %s: %d rows through the index, want %d", owner, got, n)
		}
	}
}
