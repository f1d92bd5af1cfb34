package main

import (
	"fmt"
	"math"

	"github.com/bullfrogdb/bullfrog"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
)

// Loaded values the ledger starts from. They are the TPC-C initial
// population (clause 4.3.3.1) as tpcc.Load writes it; a loader that writes
// anything else fails the checks.
const (
	loadedWYTD       = 300000.0 // w_ytd per warehouse
	loadedDYTD       = 30000.0  // d_ytd per district
	loadedPaymentCnt = 1        // c_payment_cnt per customer
	loadedHistory    = 0        // history rows (the loader writes none)
)

// expectation is what a database must hold after a run: the loaded scale,
// the schema the run ended on, and the clients' ledger of acknowledged
// commits.
type expectation struct {
	scale  tpcc.Scale
	schema schema
	led    *ledger
}

// checker runs one check suite and collects every violation.
type checker struct {
	db       *bullfrog.DB
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) query(q string) []bullfrog.Row {
	res, err := c.db.Exec(q)
	if err != nil {
		c.failf("%s: %v", q, err)
		return nil
	}
	return res.Rows
}

func near(a, b float64) bool { return math.Abs(a-b) < 0.005 }

// checkAll runs every check that applies to exp's schema and returns the
// violations (empty when the database is correct).
func checkAll(db *bullfrog.DB, exp expectation) []string {
	c := &checker{db: db}
	c.ledger(exp)
	c.consistency(exp)
	switch exp.schema {
	case schemaSplit:
		c.splitKeys(exp.scale)
	case schemaJoin:
		c.joinGroups(exp.scale)
	}
	return c.problems
}

type district struct{ w, d int }

// ledger compares the database with the clients' tally of acknowledged
// commits.
func (c *checker) ledger(exp expectation) {
	t := tablesFor(exp.schema)
	sc, led := exp.scale, exp.led
	for _, r := range c.query("SELECT w_id, w_ytd FROM warehouse") {
		w := int(r[0].Int())
		if want := loadedWYTD + float64(led.paymentCents[w])/100; !near(r[1].Float(), want) {
			c.failf("ledger: warehouse %d w_ytd = %.2f, acknowledged payments give %.2f", w, r[1].Float(), want)
		}
	}
	for _, r := range c.query("SELECT d_w_id, d_id, d_next_o_id, d_ytd FROM district") {
		k := [2]int{int(r[0].Int()), int(r[1].Int())}
		if want := int64(sc.InitialOrdersPerD+1) + led.newOrders[k]; r[2].Int() != want {
			c.failf("ledger: district %v d_next_o_id = %d, acknowledged NewOrders give %d", k, r[2].Int(), want)
		}
		if want := loadedDYTD + float64(led.districtCents[k])/100; !near(r[3].Float(), want) {
			c.failf("ledger: district %v d_ytd = %.2f, acknowledged payments give %.2f", k, r[3].Float(), want)
		}
	}
	if rows := c.query("SELECT COUNT(*) FROM history"); len(rows) == 1 {
		if want := loadedHistory + led.payments; rows[0][0].Int() != want {
			c.failf("ledger: count(history) = %d, acknowledged payments give %d", rows[0][0].Int(), want)
		}
	}
	if rows := c.query("SELECT SUM(c_payment_cnt) FROM " + t.custFin); len(rows) == 1 {
		if want := int64(sc.Customers()*loadedPaymentCnt) + led.payments; rows[0][0].Int() != want {
			c.failf("ledger: sum(c_payment_cnt) = %d, acknowledged payments give %d", rows[0][0].Int(), want)
		}
	}
}

// consistency checks TPC-C consistency conditions 1-4 (clause 3.3.2.1-4)
// on the schema the run ended on.
func (c *checker) consistency(exp expectation) {
	t := tablesFor(exp.schema)
	// 1: W_YTD = sum(D_YTD) per warehouse.
	dSum := map[int]float64{}
	for _, r := range c.query("SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id") {
		dSum[int(r[0].Int())] = r[1].Float()
	}
	for _, r := range c.query("SELECT w_id, w_ytd FROM warehouse") {
		if w := int(r[0].Int()); !near(r[1].Float(), dSum[w]) {
			c.failf("condition 1: warehouse %d w_ytd %.2f != sum(d_ytd) %.2f", w, r[1].Float(), dSum[w])
		}
	}
	// 2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) per district.
	// 3: max(NO_O_ID) - min(NO_O_ID) + 1 = count(new_order) per district.
	maxO := map[district]int64{}
	olCnt := map[district]int64{}
	for _, r := range c.query("SELECT o_w_id, o_d_id, MAX(o_id), SUM(o_ol_cnt) FROM orders GROUP BY o_w_id, o_d_id") {
		k := district{int(r[0].Int()), int(r[1].Int())}
		maxO[k], olCnt[k] = r[2].Int(), r[3].Int()
	}
	type noStat struct{ max, min, n int64 }
	no := map[district]noStat{}
	for _, r := range c.query("SELECT no_w_id, no_d_id, MAX(no_o_id), MIN(no_o_id), COUNT(*) FROM new_order GROUP BY no_w_id, no_d_id") {
		no[district{int(r[0].Int()), int(r[1].Int())}] = noStat{r[2].Int(), r[3].Int(), r[4].Int()}
	}
	for _, r := range c.query("SELECT d_w_id, d_id, d_next_o_id FROM district") {
		k := district{int(r[0].Int()), int(r[1].Int())}
		next := r[2].Int()
		if maxO[k] != next-1 {
			c.failf("condition 2: district %v d_next_o_id-1 = %d, max(o_id) = %d", k, next-1, maxO[k])
		}
		if s, ok := no[k]; ok {
			if s.max != next-1 {
				c.failf("condition 2: district %v d_next_o_id-1 = %d, max(no_o_id) = %d", k, next-1, s.max)
			}
			if s.max-s.min+1 != s.n {
				c.failf("condition 3: district %v new_order spans %d..%d but holds %d rows", k, s.min, s.max, s.n)
			}
		}
	}
	// 4: sum(O_OL_CNT) = count(ORDER_LINE) per district. Seed rows of the
	// denormalized table (stock with no order line) have NULL order columns.
	lines := map[district]int64{}
	for _, r := range c.query(fmt.Sprintf("SELECT ol_w_id, ol_d_id, COUNT(*) FROM %s WHERE ol_o_id IS NOT NULL GROUP BY ol_w_id, ol_d_id", t.lines)) {
		lines[district{int(r[0].Int()), int(r[1].Int())}] = r[2].Int()
	}
	for k, want := range olCnt {
		if lines[k] != want {
			c.failf("condition 4: district %v has %d order lines, sum(o_ol_cnt) = %d", k, lines[k], want)
		}
	}
}

// splitKeys checks the 1:n split: every loaded customer key appears exactly
// once in each of customer_private and customer_public, and no other key
// does.
func (c *checker) splitKeys(sc tpcc.Scale) {
	for _, tbl := range []string{"customer_private", "customer_public"} {
		seen := map[[3]int64]int{}
		for _, r := range c.query("SELECT c_w_id, c_d_id, c_id FROM " + tbl) {
			seen[[3]int64{r[0].Int(), r[1].Int(), r[2].Int()}]++
		}
		if len(seen) != sc.Customers() {
			c.failf("split: %s holds %d distinct customer keys, %d were loaded", tbl, len(seen), sc.Customers())
		}
		for k, n := range seen {
			if k[0] < 1 || k[0] > int64(sc.Warehouses) || k[1] < 1 || k[1] > int64(sc.DistrictsPerW) ||
				k[2] < 1 || k[2] > int64(sc.CustomersPerDist) {
				c.failf("split: %s holds customer %v, which was never loaded", tbl, k)
			}
			if n != 1 {
				c.failf("split: customer %v appears %d times in %s", k, n, tbl)
			}
		}
	}
}

// joinGroups checks the n:n join: every stock key has a group in
// orderline_stock, the rows of a group agree on the stock columns, and the
// order-line rows number sum(o_ol_cnt).
func (c *checker) joinGroups(sc tpcc.Scale) {
	type stockCols struct {
		qty, cnt int64
		ytd      float64
	}
	groups := map[[2]int64]stockCols{}
	var orderLines int64
	for _, r := range c.query("SELECT ol_supply_w_id, ol_i_id, ol_o_id, s_quantity, s_ytd, s_order_cnt FROM orderline_stock") {
		k := [2]int64{r[0].Int(), r[1].Int()}
		v := stockCols{qty: r[3].Int(), ytd: r[4].Float(), cnt: r[5].Int()}
		if !r[2].IsNull() {
			orderLines++
		}
		if prev, ok := groups[k]; ok && (prev.qty != v.qty || prev.cnt != v.cnt || !near(prev.ytd, v.ytd)) {
			c.failf("join: group %v disagrees on stock columns: %+v vs %+v", k, prev, v)
		}
		groups[k] = v
	}
	for w := 1; w <= sc.Warehouses; w++ {
		for i := 1; i <= sc.Items; i++ {
			if _, ok := groups[[2]int64{int64(w), int64(i)}]; !ok {
				c.failf("join: stock key (%d, %d) has no row in orderline_stock", w, i)
			}
		}
	}
	if rows := c.query("SELECT SUM(o_ol_cnt) FROM orders"); len(rows) == 1 && rows[0][0].Int() != orderLines {
		c.failf("join: orderline_stock holds %d order lines, sum(o_ol_cnt) = %d", orderLines, rows[0][0].Int())
	}
}
