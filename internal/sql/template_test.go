package sql

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// tpccShapes holds one text of every statement shape the TPC-C benchmark
// sends, on the original schema and on the split and join migrations'.
var tpccShapes = []string{
	"SELECT w_tax FROM warehouse WHERE w_id = 1",
	"SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 7",
	"UPDATE district SET d_next_o_id = 3002 WHERE d_w_id = 1 AND d_id = 7",
	"SELECT c_discount, c_credit FROM customer WHERE c_w_id = 1 AND c_d_id = 7 AND c_id = 1234",
	"SELECT c_discount, c_credit FROM customer_private WHERE c_w_id = 2 AND c_d_id = 3 AND c_id = 17",
	"INSERT INTO orders VALUES (1, 7, 3001, 1234, '2021-06-01 10:00:00', NULL, 5)",
	"INSERT INTO new_order VALUES (1, 7, 3001)",
	"SELECT i_price, i_name FROM item WHERE i_id = 4711",
	"SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = 1 AND s_i_id = 4711",
	"UPDATE stock SET s_quantity = 42, s_ytd = s_ytd + 5, s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + 0 WHERE s_w_id = 1 AND s_i_id = 4711",
	"INSERT INTO order_line VALUES (1, 7, 3001, 1, 4711, 1, NULL, 5, 123.45, 'dist-info-xxxxxxxxxxxx')",
	"SELECT s_quantity, s_ytd, s_order_cnt FROM orderline_stock WHERE ol_supply_w_id = 1 AND ol_i_id = 4711 LIMIT 1",
	"UPDATE orderline_stock SET s_quantity = 42, s_ytd = 17, s_order_cnt = 3 WHERE ol_supply_w_id = 1 AND ol_i_id = 4711",
	"UPDATE orderline_stock SET s_quantity = 42, s_ytd = 17.5, s_order_cnt = 3 WHERE ol_supply_w_id = 1 AND ol_i_id = 4711",
	"INSERT INTO orderline_stock VALUES (1, 7, 3001, 1, 4711, 1, NULL, 5, 123.45, 42, 17, 3)",
	"SELECT c_id, c_first FROM customer WHERE c_w_id = 1 AND c_d_id = 7 AND c_last = 'BARBARBAR' ORDER BY c_first",
	"UPDATE warehouse SET w_ytd = w_ytd + 12.34 WHERE w_id = 1",
	"UPDATE district SET d_ytd = d_ytd + 12.34 WHERE d_w_id = 1 AND d_id = 7",
	"UPDATE customer SET c_balance = c_balance - 12.34, c_ytd_payment = c_ytd_payment + 12.34, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = 1 AND c_d_id = 7 AND c_id = 1234",
	"INSERT INTO history VALUES (1234, 7, 1, 7, 1, '2021-06-01 10:00:00', 12.34)",
	"SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 7 AND c_id = 1234",
	"SELECT o_id, o_carrier_id, o_ol_cnt FROM orders WHERE o_w_id = 1 AND o_d_id = 7 AND o_c_id = 1234 ORDER BY o_id DESC LIMIT 1",
	"SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 7 AND ol_o_id = 3001",
	"SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = 1 AND no_d_id = 7",
	"DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = 7 AND no_o_id = 2101",
	"SELECT o_c_id FROM orders WHERE o_w_id = 1 AND o_d_id = 7 AND o_id = 2101",
	"UPDATE orders SET o_carrier_id = 4 WHERE o_w_id = 1 AND o_d_id = 7 AND o_id = 2101",
	"UPDATE order_line SET ol_delivery_d = '2021-06-01 10:00:00' WHERE ol_w_id = 1 AND ol_d_id = 7 AND ol_o_id = 2101",
	"SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 7 AND ol_o_id = 2101",
	"UPDATE customer SET c_balance = c_balance + 99.5, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = 1 AND c_d_id = 7 AND c_id = 1234",
	"SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 7",
	"SELECT COUNT(DISTINCT ol_i_id) FROM orderline_stock WHERE ol_w_id = 1 AND ol_d_id = 7 AND ol_o_id >= 2981 AND ol_o_id < 3001 AND s_quantity < 15",
	"SELECT COUNT(DISTINCT s.s_i_id) FROM order_line l, stock s WHERE l.ol_w_id = 1 AND l.ol_d_id = 7 AND l.ol_o_id >= 2981 AND l.ol_o_id < 3001 AND s.s_w_id = 1 AND s.s_i_id = l.ol_i_id AND s.s_quantity < 15",
}

// bindStatement returns a copy of a template statement with its Params
// bound to args.
func bindStatement(s Statement, args []types.Datum) Statement {
	b := func(e expr.Expr) expr.Expr { return expr.BindParams(e, args) }
	list := func(es []expr.Expr) []expr.Expr {
		if es == nil {
			return nil
		}
		out := make([]expr.Expr, len(es))
		for i, e := range es {
			out[i] = b(e)
		}
		return out
	}
	switch t := s.(type) {
	case *SelectStmt:
		return bindSelect(t, args)
	case *InsertStmt:
		out := *t
		if t.Values != nil {
			out.Values = make([][]expr.Expr, len(t.Values))
			for i, row := range t.Values {
				out.Values[i] = list(row)
			}
		}
		out.Select = bindSelect(t.Select, args)
		return &out
	case *UpdateStmt:
		out := *t
		out.Set = make([]Assignment, len(t.Set))
		for i, a := range t.Set {
			out.Set[i] = Assignment{Column: a.Column, Value: b(a.Value)}
		}
		out.Where = b(t.Where)
		return &out
	case *DeleteStmt:
		out := *t
		out.Where = b(t.Where)
		return &out
	}
	return s
}

func bindSelect(s *SelectStmt, args []types.Datum) *SelectStmt {
	if s == nil {
		return nil
	}
	b := func(e expr.Expr) expr.Expr { return expr.BindParams(e, args) }
	out := *s
	if s.Items != nil {
		out.Items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			it.Expr = b(it.Expr)
			out.Items[i] = it
		}
	}
	if s.From != nil {
		out.From = make([]TableRef, len(s.From))
		for i, ref := range s.From {
			ref.Subquery = bindSelect(ref.Subquery, args)
			out.From[i] = ref
		}
	}
	out.Where = b(s.Where)
	if s.GroupBy != nil {
		out.GroupBy = make([]expr.Expr, len(s.GroupBy))
		for i, g := range s.GroupBy {
			out.GroupBy[i] = b(g)
		}
	}
	out.Having = b(s.Having)
	if s.OrderBy != nil {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: b(o.Expr), Desc: o.Desc}
		}
	}
	return &out
}

// templateOf returns src's template bound to src's literals, or nil when
// src takes the plain path.
func templateOf(t *testing.T, src string) Statement {
	t.Helper()
	shape, args, ok := Shape(nil, nil, src)
	if !ok {
		return nil
	}
	tmpl, err := ParseTemplate(string(shape))
	if err != nil {
		return nil
	}
	return bindStatement(tmpl, args)
}

// FuzzStatementTemplate checks the template path against the plain parser:
// whenever a text has a template, the template with the text's literals
// bound is exactly what Parse makes of the text.
func FuzzStatementTemplate(f *testing.F) {
	for _, s := range tpccShapes {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT a FROM t WHERE a = -5 AND b = - -2.5 AND c = -(7) AND d = -'x'",
		"SELECT a, b FROM t WHERE a BETWEEN 1 AND 10 OR b NOT IN (1, 2.5, 'x', NULL) LIMIT 3",
		"select A from T where B = 'it''s' -- comment\n and c is not null;",
		"SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END AS size FROM t ORDER BY 1",
		"SELECT x.a FROM (SELECT a FROM t WHERE b = 2) x WHERE x.a <> 3",
		"INSERT INTO t (a, b) SELECT a, b + 1.5e3 FROM u WHERE c = TRUE",
		"SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1 HAVING COUNT(*) > 2",
		"SELECT EXTRACT(DAY FROM d) FROM t WHERE LOWER(s) = 'abc' AND .5 < f",
		"SELECT a FROM t LIMIT 1.5",
		"SELECT 1; SELECT 2",
		"CREATE TABLE t (a INT DEFAULT 5)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got := templateOf(t, src)
		if got == nil {
			return
		}
		want, err := Parse(src)
		if err != nil || len(want) != 1 {
			t.Fatalf("%q has a template but parses to %d statements, err %v", src, len(want), err)
		}
		if !reflect.DeepEqual(got, want[0]) {
			t.Fatalf("%q: bound template differs from the parse:\n got: %#v\nwant: %#v", src, got, want[0])
		}
	})
}

func TestShapeRules(t *testing.T) {
	shapeOf := func(src string) string {
		shape, _, ok := Shape(nil, nil, src)
		if !ok {
			t.Fatalf("Shape(%q) rejected", src)
		}
		return string(shape)
	}
	same := [][2]string{
		{"SELECT b FROM t WHERE a = 1", "SELECT b FROM t WHERE a = 2"},
		{"SELECT b FROM t WHERE a = 'x'", "SELECT b FROM t WHERE a = 'it''s'"},
		{"SELECT b FROM t WHERE a = 1.5", "SELECT b FROM t WHERE a = 2e3"},
		{"SELECT b FROM t WHERE a = 1", "SELECT  b\n FROM t -- note\n WHERE a=7"},
		{"SELECT b FROM t WHERE a = -1", "SELECT b FROM t WHERE a = -2"},
	}
	for _, p := range same {
		if shapeOf(p[0]) != shapeOf(p[1]) {
			t.Errorf("%q and %q should share a shape", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"SELECT b FROM t WHERE a = 1", "SELECT b FROM t WHERE a = 1.0"},
		{"SELECT b FROM t WHERE a = 1", "SELECT b FROM t WHERE a = '1'"},
		{"SELECT b FROM t WHERE a = 1", "SELECT b FROM t WHERE a = NULL"},
		{"SELECT b FROM t WHERE a = TRUE", "SELECT b FROM t WHERE a = FALSE"},
		{"SELECT b FROM t LIMIT 1", "SELECT b FROM t LIMIT 2"},
		{"SELECT b FROM t WHERE a = 1", "SELECT b FROM t WHERE a = a"},
	}
	for _, p := range differ {
		if shapeOf(p[0]) == shapeOf(p[1]) {
			t.Errorf("%q and %q must not share a shape", p[0], p[1])
		}
	}
	_, args, _ := Shape(nil, nil, "SELECT b FROM t WHERE a = 7 AND c = 'it''s' AND d = 2.5 LIMIT 3")
	want := []types.Datum{types.NewInt(7), types.NewString("it's"), types.NewFloat(2.5)}
	if !reflect.DeepEqual(args, want) {
		t.Errorf("literal values = %v, want %v", args, want)
	}
	for _, bad := range []string{"SELECT 'open", "SELECT a $ b", "SELECT 99999999999999999999", "SELECT 1e999"} {
		if _, _, ok := Shape(nil, nil, bad); ok {
			t.Errorf("Shape(%q) should reject the text", bad)
		}
	}
}

func TestShapeNegativeLiteralBindsAsOneParam(t *testing.T) {
	shape, args, _ := Shape(nil, nil, "SELECT b FROM t WHERE a = -5")
	tmpl, err := ParseTemplate(string(shape))
	if err != nil {
		t.Fatal(err)
	}
	cmp := tmpl.(*SelectStmt).Where.(*expr.BinOp)
	p, ok := cmp.R.(*expr.Param)
	if !ok || !p.Neg || p.Kind != types.KindInt {
		t.Fatalf("right operand = %#v, want a negated int Param", cmp.R)
	}
	if v := p.Value(args); v.Int() != -5 {
		t.Fatalf("bound value = %v, want -5", v)
	}
}

func TestShapeCopiesStrings(t *testing.T) {
	src := "INSERT INTO t VALUES ('a fairly long string value', 'and''another')"
	_, args, _ := Shape(nil, nil, src)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	for _, a := range args {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(a.Str()))); p >= lo && p < hi {
			t.Fatalf("literal %q shares memory with the statement text", a.Str())
		}
	}
}

func TestParseTemplateTakesOnlyOneDML(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t (a INT)",
		"EXPLAIN SELECT a FROM t",
		"SELECT a FROM t; SELECT b FROM t",
		"DROP TABLE t",
		"SELECT a FROM t LIMIT 1.5",
	} {
		shape, _, ok := Shape(nil, nil, src)
		if !ok {
			t.Fatalf("Shape(%q) rejected", src)
		}
		if _, err := ParseTemplate(string(shape)); err == nil {
			t.Errorf("ParseTemplate(%q) should leave the text to Parse", src)
		}
	}
}
