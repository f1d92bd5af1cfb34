package tpcc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/engine"
	"github.com/bullfrogdb/bullfrog/internal/sql"
)

// tpccShape makes one text of a TPC-C statement shape from random literals
// (some outside the loaded ranges, so empty results are covered too).
type tpccShape func(r *rand.Rand) string

var tpccShapes = []tpccShape{
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT w_tax FROM warehouse WHERE w_id = %d", r.Intn(3))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", r.Intn(2)+1, r.Intn(3)+1)
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("UPDATE district SET d_next_o_id = %d WHERE d_w_id = 1 AND d_id = %d", r.Intn(500), r.Intn(3)+1)
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT c_discount, c_credit FROM customer WHERE c_w_id = 1 AND c_d_id = %d AND c_id = %d", r.Intn(3)+1, r.Intn(35))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT i_price, i_name FROM item WHERE i_id = %d", r.Intn(60))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = 1 AND s_i_id = %d", r.Intn(60))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("UPDATE stock SET s_quantity = %d, s_ytd = s_ytd + %d, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = 1 AND s_i_id = %d",
			r.Intn(100), r.Intn(10), r.Intn(60))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT c_id, c_first FROM customer WHERE c_w_id = 1 AND c_d_id = %d AND c_last = '%s' ORDER BY c_first", r.Intn(2)+1, LastName(r.Intn(12)))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %d.%02d WHERE w_id = 1", r.Intn(5000), r.Intn(100))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("UPDATE customer SET c_balance = c_balance - %d.5, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = 1 AND c_d_id = %d AND c_id = %d",
			r.Intn(100), r.Intn(2)+1, r.Intn(35))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT o_id, o_carrier_id, o_ol_cnt FROM orders WHERE o_w_id = 1 AND o_d_id = %d AND o_c_id = %d ORDER BY o_id DESC LIMIT 1", r.Intn(2)+1, r.Intn(35))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount FROM order_line WHERE ol_w_id = 1 AND ol_d_id = %d AND ol_o_id = %d", r.Intn(2)+1, r.Intn(25))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = %d", r.Intn(3)+1)
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = %d AND no_o_id = %d", r.Intn(2)+1, r.Intn(25))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("UPDATE orders SET o_carrier_id = %d WHERE o_w_id = 1 AND o_d_id = %d AND o_id = %d", r.Intn(10), r.Intn(2)+1, r.Intn(25))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = 1 AND ol_d_id = %d AND ol_o_id = %d", r.Intn(2)+1, r.Intn(25))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("INSERT INTO new_order VALUES (1, %d, %d)", r.Intn(2)+1, 1000+r.Intn(1000))
	},
	func(r *rand.Rand) string {
		lo := r.Intn(25)
		return fmt.Sprintf("SELECT COUNT(DISTINCT s.s_i_id) FROM order_line l, stock s WHERE l.ol_w_id = 1 AND l.ol_d_id = %d AND l.ol_o_id >= %d AND l.ol_o_id < %d AND s.s_w_id = 1 AND s.s_i_id = l.ol_i_id AND s.s_quantity < %d",
			r.Intn(2)+1, lo, lo+r.Intn(20), r.Intn(100))
	},
}

// TestTemplatesMatchPlainParse runs every TPC-C statement shape with many
// literal sets through the statement templates (Exec) and through a fresh
// parse and plan of the same text, and compares rows, counts and the state
// each write leaves. Consecutive texts of a shape differ in their keys, so
// a template plan that kept one execution's index bounds shows here.
func TestTemplatesMatchPlainParse(t *testing.T) {
	db := engine.New(engine.Options{})
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := Load(db, TinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i, shape := range tpccShapes {
		for n := 0; n < 40; n++ {
			q := shape(r)
			tmpl := run(t, db, q, false)
			plain := run(t, db, q, true)
			if !reflect.DeepEqual(tmpl, plain) {
				t.Fatalf("shape %d: %s\n template: %v\n plain:    %v", i, q, tmpl, plain)
			}
		}
	}
}

// run executes q in a transaction it rolls back, returning what the
// statement returned and, for writes, what its table holds afterwards.
func run(t *testing.T, db *engine.DB, q string, plain bool) []string {
	t.Helper()
	tx := db.Begin()
	defer db.Abort(tx)
	var res *engine.Result
	var err error
	if plain {
		var s sql.Statement
		if s, err = sql.ParseOne(q); err == nil {
			res, err = db.ExecStmt(tx, s)
		}
	} else {
		res, err = db.ExecTx(tx, q)
	}
	if err != nil {
		t.Fatalf("%s (plain %v): %v", q, plain, err)
	}
	out := []string{fmt.Sprint(res.Columns), fmt.Sprint(res.Rows), fmt.Sprint(res.Affected)}
	var table string
	switch s, _ := sql.ParseOne(q); s := s.(type) {
	case *sql.UpdateStmt:
		table = s.Table
	case *sql.DeleteStmt:
		table = s.Table
	case *sql.InsertStmt:
		table = s.Table
	}
	if table != "" {
		after, err := db.ExecStmt(tx, &sql.SelectStmt{Items: []sql.SelectItem{{Star: true}}, From: []sql.TableRef{{Name: table}}, Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint(after.Rows))
	}
	return out
}
