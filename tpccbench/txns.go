package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
)

// schema selects which tables the SQL text names: the original TPC-C
// schema, or the schema after one of the two migrations.
type schema int32

const (
	schemaOriginal schema = iota
	schemaSplit           // customer -> customer_private + customer_public
	schemaJoin            // order_line ⋈ stock -> orderline_stock
)

// Failure and retry causes. Every operation that does not complete carries
// exactly one of them.
const (
	causeSerialization = "serialization" // first-updater-wins conflict: retried
	causeLockTimeout   = "lock_timeout"  // lock wait expired: retried
	causeRowMissing    = "row_missing"   // a row TPC-C guarantees was not visible
	causeError         = "error"         // any other error: not retried
	causeExhausted     = "retries_exhausted"
)

// maxAttempts bounds the retries of one client transaction.
const maxAttempts = 50

// errRowMissing marks a key SELECT that returned no row, or a key UPDATE or
// DELETE that affected none, where TPC-C guarantees the row exists.
type errRowMissing struct{ stmt string }

func (e *errRowMissing) Error() string { return "row missing: " + e.stmt }

// errExpectedRollback is TPC-C's intended 1% NewOrder rollback.
var errExpectedRollback = errors.New("expected rollback (invalid item)")

func classify(err error) (cause string, retry bool) {
	var rm *errRowMissing
	switch {
	case errors.As(err, &rm):
		return causeRowMissing, true
	case errors.Is(err, bullfrog.ErrSerialization):
		return causeSerialization, true
	case errors.Is(err, bullfrog.ErrLockTimeout):
		return causeLockTimeout, true
	default:
		return causeError, false
	}
}

// stmtKind is the statement class a Txn.ExecContext call is timed under.
type stmtKind uint8

const (
	kindSelect stmtKind = iota
	kindUpdate
	kindInsert
	kindDelete
	numStmtKinds
)

var stmtKindNames = [numStmtKinds]string{"select", "update", "insert", "delete"}

func kindOf(q string) stmtKind {
	switch q[0] {
	case 'U':
		return kindUpdate
	case 'I':
		return kindInsert
	case 'D':
		return kindDelete
	default:
		return kindSelect
	}
}

// txnType is one of the five TPC-C transactions.
type txnType uint8

const (
	txNewOrder txnType = iota
	txPayment
	txDelivery
	txOrderStatus
	txStockLevel
	numTxnTypes
)

var txnNames = [numTxnTypes]string{"new_order", "payment", "delivery", "order_status", "stock_level"}

// pickTxn draws from the standard mix: NewOrder 45, Payment 43, Delivery 4,
// OrderStatus 4, StockLevel 4.
func pickTxn(r *rand.Rand) txnType {
	switch n := r.Intn(100); {
	case n < 45:
		return txNewOrder
	case n < 88:
		return txPayment
	case n < 92:
		return txDelivery
	case n < 96:
		return txOrderStatus
	default:
		return txStockLevel
	}
}

// params are one transaction's inputs, drawn before the first attempt so a
// retry repeats the same transaction.
type params struct {
	typ     txnType
	w, d, c int
	byName  bool
	last    string
	cents   int64 // payment amount in cents
	items   []orderItem
	invalid bool
	carrier int
	thresh  int
	stamp   int64
	// districts is the number of districts per warehouse, for Delivery.
	districts int
}

type orderItem struct{ id, supplyW, qty int }

// drawParams draws a transaction for a terminal bound to warehouse home
// (TPC-C 5.2.1: every terminal has a fixed home warehouse).
func drawParams(r *rand.Rand, sc tpcc.Scale, typ txnType, home int, stamp int64) params {
	p := params{
		typ:       typ,
		w:         home,
		d:         r.Intn(sc.DistrictsPerW) + 1,
		c:         tpcc.RandomCustomerID(r, sc.CustomersPerDist),
		stamp:     stamp,
		districts: sc.DistrictsPerW,
	}
	switch typ {
	case txNewOrder:
		n := 5 + r.Intn(sc.MaxLinesPerOrder-4)
		p.items = make([]orderItem, n)
		for i := range p.items {
			sw := p.w
			if sc.Warehouses > 1 && r.Intn(100) == 0 { // 1% remote supply
				sw = r.Intn(sc.Warehouses) + 1
			}
			p.items[i] = orderItem{id: tpcc.RandomItemID(r, sc.Items), supplyW: sw, qty: r.Intn(10) + 1}
		}
		if r.Intn(100) == 0 { // TPC-C 2.4.1.4: 1% of NewOrders roll back
			p.invalid = true
			p.items[n-1].id = sc.Items + 1
		}
	case txPayment, txOrderStatus:
		p.byName = r.Intn(100) < 60
		p.last = tpcc.LastName(tpcc.RandomLastNameNum(r, sc.CustomersPerDist))
		p.cents = int64(r.Intn(499901) + 100) // 1.00 .. 5000.00
	case txDelivery:
		p.carrier = r.Intn(10) + 1
	case txStockLevel:
		p.thresh = 10 + r.Intn(11)
	}
	return p
}

// tables names the relations a transaction touches under one schema.
type tables struct {
	custFin  string // balance, credit, payment counters
	custName string // first/last name lookups
	lines    string // order lines
}

func tablesFor(s schema) tables {
	switch s {
	case schemaSplit:
		return tables{custFin: "customer_private", custName: "customer_public", lines: "order_line"}
	case schemaJoin:
		return tables{custFin: "customer", custName: "customer", lines: "orderline_stock"}
	default:
		return tables{custFin: "customer", custName: "customer", lines: "order_line"}
	}
}

// effects is what a committed transaction adds to the client ledger.
type effects struct {
	paymentW, paymentD int
	paymentCents       int64
	newOrderW          int
	newOrderD          int
}

// session runs SQL text for one client transaction through the public
// facade: db.Begin, Txn.ExecContext, Txn.Commit. With a span recorder it
// times every call.
type session struct {
	ctx  context.Context
	db   *bullfrog.DB
	tx   *bullfrog.Txn
	rec  *recorder // nil: untraced
	txID uint64
}

func (s *session) begin() {
	if s.rec == nil {
		s.tx = s.db.Begin()
		return
	}
	t0 := time.Now()
	s.tx = s.db.Begin()
	s.rec.child(s.txID, spanBegin, t0, time.Now())
}

func (s *session) exec(q string) (*bullfrog.Result, error) {
	if s.rec == nil {
		return s.tx.ExecContext(s.ctx, q)
	}
	s.rec.parse(s.txID, q)
	t0 := time.Now()
	res, err := s.tx.ExecContext(s.ctx, q)
	s.rec.child(s.txID, spanExecSelect+uint8(kindOf(q)), t0, time.Now())
	return res, err
}

func (s *session) commit() error {
	if s.rec == nil {
		return s.tx.Commit()
	}
	t0 := time.Now()
	err := s.tx.Commit()
	s.rec.child(s.txID, spanCommit, t0, time.Now())
	return err
}

func (s *session) abort() {
	_ = s.tx.Abort() // rollback of buffered redo only; the log is never touched
}

// row runs a key SELECT that must return exactly one row.
func (s *session) row(q string) ([]bullfrog.Datum, error) {
	res, err := s.exec(q)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, &errRowMissing{stmt: q}
	}
	return res.Rows[0], nil
}

// rows runs a SELECT that must return at least one row.
func (s *session) rows(q string) ([]bullfrog.Row, error) {
	res, err := s.exec(q)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, &errRowMissing{stmt: q}
	}
	return res.Rows, nil
}

// write runs an UPDATE or DELETE by key that must affect at least one row,
// or an INSERT.
func (s *session) write(q string) error {
	res, err := s.exec(q)
	if err != nil {
		return err
	}
	if res.Affected == 0 {
		return &errRowMissing{stmt: q}
	}
	return nil
}

// amountSQL renders an amount in cents as an exact SQL decimal literal.
func amountSQL(cents int64) string { return fmt.Sprintf("%d.%02d", cents/100, cents%100) }

// stampSQL renders a logical timestamp as a SQL literal.
func stampSQL(stamp int64) string {
	return "'" + time.Unix(1622505600+stamp, 0).UTC().Format("2006-01-02 15:04:05") + "'"
}

// run executes one attempt of the transaction in p. It returns the ledger
// effects on commit, errExpectedRollback for the intended NewOrder rollback,
// and any other error with the transaction rolled back.
func (s *session) run(p *params, sch schema) (effects, error) {
	s.begin()
	var eff effects
	var err error
	t := tablesFor(sch)
	switch p.typ {
	case txNewOrder:
		eff, err = s.newOrder(p, sch, t)
	case txPayment:
		eff, err = s.payment(p, t)
	case txDelivery:
		err = s.delivery(p, t)
	case txOrderStatus:
		err = s.orderStatus(p, t)
	case txStockLevel:
		err = s.stockLevel(p, sch)
	}
	if err != nil {
		s.abort()
		return effects{}, err
	}
	return eff, s.commit()
}

func (s *session) newOrder(p *params, sch schema, t tables) (effects, error) {
	w, d, c := p.w, p.d, p.c
	if _, err := s.row(fmt.Sprintf("SELECT w_tax FROM warehouse WHERE w_id = %d", w)); err != nil {
		return effects{}, err
	}
	dist, err := s.row(fmt.Sprintf("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", w, d))
	if err != nil {
		return effects{}, err
	}
	o := dist[1].Int()
	if err := s.write(fmt.Sprintf("UPDATE district SET d_next_o_id = %d WHERE d_w_id = %d AND d_id = %d", o+1, w, d)); err != nil {
		return effects{}, err
	}
	if _, err := s.row(fmt.Sprintf("SELECT c_discount, c_credit FROM %s WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
		t.custFin, w, d, c)); err != nil {
		return effects{}, err
	}
	if err := s.write(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d, %s, NULL, %d)",
		w, d, o, c, stampSQL(p.stamp), len(p.items))); err != nil {
		return effects{}, err
	}
	if err := s.write(fmt.Sprintf("INSERT INTO new_order VALUES (%d, %d, %d)", w, d, o)); err != nil {
		return effects{}, err
	}
	for n, it := range p.items {
		res, err := s.exec(fmt.Sprintf("SELECT i_price, i_name FROM item WHERE i_id = %d", it.id))
		if err != nil {
			return effects{}, err
		}
		if len(res.Rows) == 0 {
			if p.invalid && n == len(p.items)-1 {
				return effects{}, errExpectedRollback
			}
			return effects{}, &errRowMissing{stmt: "item"}
		}
		amount := res.Rows[0][0].Float() * float64(it.qty)
		if sch == schemaJoin {
			if err := s.orderLineJoin(w, d, int(o), n+1, it, amount); err != nil {
				return effects{}, err
			}
			continue
		}
		st, err := s.row(fmt.Sprintf("SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_w_id = %d AND s_i_id = %d",
			it.supplyW, it.id))
		if err != nil {
			return effects{}, err
		}
		remote := 0
		if it.supplyW != w {
			remote = 1
		}
		if err := s.write(fmt.Sprintf("UPDATE stock SET s_quantity = %d, s_ytd = s_ytd + %d, s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + %d WHERE s_w_id = %d AND s_i_id = %d",
			newQuantity(st[0].Int(), it.qty), it.qty, remote, it.supplyW, it.id)); err != nil {
			return effects{}, err
		}
		if err := s.write(fmt.Sprintf("INSERT INTO order_line VALUES (%d, %d, %d, %d, %d, %d, NULL, %d, %.2f, 'dist-info-xxxxxxxxxxxx')",
			w, d, o, n+1, it.id, it.supplyW, it.qty, amount)); err != nil {
			return effects{}, err
		}
	}
	return effects{newOrderW: w, newOrderD: d}, nil
}

// orderLineJoin is NewOrder's stock maintenance in the denormalized schema:
// the stock columns live in every row of the (supply warehouse, item) group,
// so all of them are updated and the new order line carries the new values.
func (s *session) orderLineJoin(w, d, o, number int, it orderItem, amount float64) error {
	grp, err := s.rows(fmt.Sprintf("SELECT s_quantity, s_ytd, s_order_cnt FROM orderline_stock WHERE ol_supply_w_id = %d AND ol_i_id = %d LIMIT 1",
		it.supplyW, it.id))
	if err != nil {
		return err
	}
	qty := newQuantity(grp[0][0].Int(), it.qty)
	ytd := grp[0][1].Float() + float64(it.qty)
	cnt := grp[0][2].Int() + 1
	if err := s.write(fmt.Sprintf("UPDATE orderline_stock SET s_quantity = %d, s_ytd = %g, s_order_cnt = %d WHERE ol_supply_w_id = %d AND ol_i_id = %d",
		qty, ytd, cnt, it.supplyW, it.id)); err != nil {
		return err
	}
	return s.write(fmt.Sprintf("INSERT INTO orderline_stock VALUES (%d, %d, %d, %d, %d, %d, NULL, %d, %.2f, %d, %g, %d)",
		w, d, o, number, it.id, it.supplyW, it.qty, amount, qty, ytd, cnt))
}

// newQuantity is TPC-C 2.4.2.2's stock replenishment rule.
func newQuantity(cur int64, qty int) int64 {
	if q := cur - int64(qty); q >= 10 {
		return q
	}
	return cur - int64(qty) + 91
}

// byName resolves a customer by last name: the middle match in c_first
// order (TPC-C 2.5.2.2).
func (s *session) byName(t tables, w, d int, last string) (int, error) {
	rows, err := s.rows(fmt.Sprintf("SELECT c_id, c_first FROM %s WHERE c_w_id = %d AND c_d_id = %d AND c_last = '%s' ORDER BY c_first",
		t.custName, w, d, last))
	if err != nil {
		return 0, err
	}
	return int(rows[(len(rows)-1)/2][0].Int()), nil
}

func (s *session) payment(p *params, t tables) (effects, error) {
	w, d, c := p.w, p.d, p.c
	amount := amountSQL(p.cents)
	if err := s.write(fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %s WHERE w_id = %d", amount, w)); err != nil {
		return effects{}, err
	}
	if err := s.write(fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %s WHERE d_w_id = %d AND d_id = %d", amount, w, d)); err != nil {
		return effects{}, err
	}
	if p.byName {
		var err error
		if c, err = s.byName(t, w, d, p.last); err != nil {
			return effects{}, err
		}
	}
	if err := s.write(fmt.Sprintf("UPDATE %s SET c_balance = c_balance - %s, c_ytd_payment = c_ytd_payment + %s, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
		t.custFin, amount, amount, w, d, c)); err != nil {
		return effects{}, err
	}
	if err := s.write(fmt.Sprintf("INSERT INTO history VALUES (%d, %d, %d, %d, %d, %s, %s)",
		c, d, w, d, w, stampSQL(p.stamp), amount)); err != nil {
		return effects{}, err
	}
	return effects{paymentW: w, paymentD: d, paymentCents: p.cents}, nil
}

func (s *session) orderStatus(p *params, t tables) error {
	w, d, c := p.w, p.d, p.c
	if p.byName {
		var err error
		if c, err = s.byName(t, w, d, p.last); err != nil {
			return err
		}
	}
	if _, err := s.row(fmt.Sprintf("SELECT c_balance FROM %s WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
		t.custFin, w, d, c)); err != nil {
		return err
	}
	res, err := s.exec(fmt.Sprintf("SELECT o_id, o_carrier_id, o_ol_cnt FROM orders WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d ORDER BY o_id DESC LIMIT 1",
		w, d, c))
	if err != nil || len(res.Rows) == 0 {
		return err // a customer without orders is a valid outcome
	}
	_, err = s.rows(fmt.Sprintf("SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM %s WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d",
		t.lines, w, d, res.Rows[0][0].Int()))
	return err
}

func (s *session) delivery(p *params, t tables) error {
	w := p.w
	for d := 1; d <= p.districts; d++ {
		res, err := s.exec(fmt.Sprintf("SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = %d AND no_d_id = %d", w, d))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
			continue // no undelivered order in this district
		}
		o := res.Rows[0][0].Int()
		if err := s.write(fmt.Sprintf("DELETE FROM new_order WHERE no_w_id = %d AND no_d_id = %d AND no_o_id = %d", w, d, o)); err != nil {
			return err
		}
		ord, err := s.row(fmt.Sprintf("SELECT o_c_id FROM orders WHERE o_w_id = %d AND o_d_id = %d AND o_id = %d", w, d, o))
		if err != nil {
			return err
		}
		if err := s.write(fmt.Sprintf("UPDATE orders SET o_carrier_id = %d WHERE o_w_id = %d AND o_d_id = %d AND o_id = %d",
			p.carrier, w, d, o)); err != nil {
			return err
		}
		if err := s.write(fmt.Sprintf("UPDATE %s SET ol_delivery_d = %s WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d",
			t.lines, stampSQL(p.stamp), w, d, o)); err != nil {
			return err
		}
		sum, err := s.row(fmt.Sprintf("SELECT SUM(ol_amount) FROM %s WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d",
			t.lines, w, d, o))
		if err != nil {
			return err
		}
		if err := s.write(fmt.Sprintf("UPDATE %s SET c_balance = c_balance + %g, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
			t.custFin, sum[0].Float(), w, d, ord[0].Int())); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) stockLevel(p *params, sch schema) error {
	w, d := p.w, p.d
	dist, err := s.row(fmt.Sprintf("SELECT d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", w, d))
	if err != nil {
		return err
	}
	next := dist[0].Int()
	var q string
	if sch == schemaJoin {
		q = fmt.Sprintf("SELECT COUNT(DISTINCT ol_i_id) FROM orderline_stock WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id >= %d AND ol_o_id < %d AND s_quantity < %d",
			w, d, next-20, next, p.thresh)
	} else {
		q = fmt.Sprintf("SELECT COUNT(DISTINCT s.s_i_id) FROM order_line l, stock s WHERE l.ol_w_id = %d AND l.ol_d_id = %d AND l.ol_o_id >= %d AND l.ol_o_id < %d AND s.s_w_id = %d AND s.s_i_id = l.ol_i_id AND s.s_quantity < %d",
			w, d, next-20, next, w, p.thresh)
	}
	_, err = s.row(q)
	return err
}

// ledger is a client's own tally of acknowledged commits, kept apart from
// the database and compared with it after the run and after recovery.
type ledger struct {
	paymentCents  map[int]int64 // per warehouse
	payments      int64
	newOrders     map[[2]int]int64 // per (warehouse, district)
	districtCents map[[2]int]int64
}

func newLedger() *ledger {
	return &ledger{paymentCents: map[int]int64{}, newOrders: map[[2]int]int64{}, districtCents: map[[2]int]int64{}}
}

func (l *ledger) add(e effects) {
	if e.paymentW != 0 {
		l.paymentCents[e.paymentW] += e.paymentCents
		l.districtCents[[2]int{e.paymentW, e.paymentD}] += e.paymentCents
		l.payments++
	}
	if e.newOrderW != 0 {
		l.newOrders[[2]int{e.newOrderW, e.newOrderD}]++
	}
}

func (l *ledger) merge(o *ledger) {
	for k, v := range o.paymentCents {
		l.paymentCents[k] += v
	}
	for k, v := range o.newOrders {
		l.newOrders[k] += v
	}
	for k, v := range o.districtCents {
		l.districtCents[k] += v
	}
	l.payments += o.payments
}

// opStats counts one client's operations.
type opStats struct {
	attempted, rollbacks int64
	retries              map[string]int64
	failed               map[string]int64
	newOrders            []latencySample
}

type latencySample struct {
	at  time.Time // first attempt
	dur time.Duration
}

func newOpStats() *opStats {
	return &opStats{retries: map[string]int64{}, failed: map[string]int64{}}
}

// client is one closed-loop TPC-C terminal: it sends its next transaction
// only after the previous one completes.
type client struct {
	id     int
	home   int // home warehouse
	scale  tpcc.Scale
	db     *bullfrog.DB
	r      *rand.Rand
	schema *atomic.Int32
	led    *ledger
	stats  *opStats
	stamp  *atomic.Int64
	commit *atomic.Int64 // committed client transactions, all clients
	rounds int64
	// flip is held shared by every attempt and exclusively by the flip, so
	// no client transaction is in flight while the migration installs.
	flip *sync.RWMutex

	rec          *recorder // traced runs only
	sliceCommits []int64   // traced runs: commits per traceSlice after t0, by the slice they began in
}

// op runs one client transaction to completion: retried on retryable
// errors, counted as failed on any other error or when retries run out.
// In a traced run, spans are recorded for transactions that start in the
// even traceSlice windows after t0 and not in the odd ones, so one run
// measures its own tracing overhead.
func (c *client) op(ctx context.Context, t0 time.Time) {
	p := drawParams(c.r, c.scale, pickTxn(c.r), c.home, c.stamp.Add(1))
	c.stats.attempted++
	start := time.Now()
	rec, slice := c.rec, int(start.Sub(t0)/traceSlice)
	if slice%2 == 1 {
		rec = nil
	}
	for attempt := 1; ; attempt++ {
		s := session{ctx: ctx, db: c.db, rec: rec}
		var spanStart time.Time
		if rec != nil {
			s.txID = rec.newID()
			spanStart = time.Now()
		}
		c.flip.RLock()
		eff, err := s.run(&p, schema(c.schema.Load()))
		c.flip.RUnlock()
		if rec != nil {
			rec.txn(s.txID, p.typ, spanStart, time.Now())
		}
		if err == nil || errors.Is(err, errExpectedRollback) {
			if err == nil {
				if c.rec != nil {
					for len(c.sliceCommits) <= slice {
						c.sliceCommits = append(c.sliceCommits, 0)
					}
					c.sliceCommits[slice]++
				}
				c.commit.Add(1)
				c.led.add(eff)
			} else {
				c.stats.rollbacks++
			}
			if p.typ == txNewOrder {
				c.stats.newOrders = append(c.stats.newOrders, latencySample{at: start, dur: time.Since(start)})
			}
			return
		}
		cause, retry := classify(err)
		if !retry {
			c.stats.failed[cause]++
			fmt.Fprintf(stderr, "client %d: %s failed: %v\n", c.id, txnNames[p.typ], err)
			return
		}
		if attempt == maxAttempts {
			c.stats.failed[causeExhausted]++
			fmt.Fprintf(stderr, "client %d: %s gave up after %d attempts: %v\n", c.id, txnNames[p.typ], attempt, err)
			return
		}
		c.stats.retries[cause]++
	}
}

// fmtCounts prints per-cause counts in a stable order.
func fmtCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, fmt.Sprintf("%s=%d", k, m[k]))
	}
	if len(keys) == 0 {
		return "none"
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
