package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// errStopScan is a sentinel used by LIMIT to stop upstream execution.
var errStopScan = errors.New("engine: stop scan")

// --- values ---

// valuesNode emits fixed in-memory rows. It backs FROM-less selects and the
// BoundRows substitution used by migration transforms.
type valuesNode struct {
	cols []Column
	rows []types.Row
}

func (n *valuesNode) columns() []Column    { return n.cols }
func (n *valuesNode) children() []planNode { return nil }
func (n *valuesNode) describe() string     { return fmt.Sprintf("Values (%d rows)", len(n.rows)) }

func (n *valuesNode) execute(ctx *execCtx, emit emitFn) error {
	for _, r := range n.rows {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// --- bound rows ---

// boundRowsNode emits the rows carried by the execution context
// (Plan.ExecuteBound). It keeps no state of its own, so plans containing it
// cache and run concurrently.
type boundRowsNode struct {
	cols []Column
}

func (n *boundRowsNode) columns() []Column    { return n.cols }
func (n *boundRowsNode) children() []planNode { return nil }
func (n *boundRowsNode) describe() string     { return "Bound Rows" }

func (n *boundRowsNode) execute(ctx *execCtx, emit emitFn) error {
	for _, r := range ctx.bound {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// --- rename ---

// renameNode re-qualifies a child's output columns under a new alias
// (subquery and view references).
type renameNode struct {
	child planNode
	alias string
}

func (n *renameNode) columns() []Column {
	in := n.child.columns()
	out := make([]Column, len(in))
	for i, c := range in {
		out[i] = Column{Table: n.alias, Name: c.Name, Kind: c.Kind}
	}
	return out
}
func (n *renameNode) children() []planNode { return []planNode{n.child} }
func (n *renameNode) describe() string     { return "Subquery Scan " + n.alias }
func (n *renameNode) execute(ctx *execCtx, emit emitFn) error {
	return n.child.execute(ctx, emit)
}

// --- scan ---

// scanNode reads a base table, applying an MVCC-visible filter, optionally
// through an index range. The full filter is always re-applied to fetched
// rows, so index entries may safely be stale (key-changing updates).
type scanNode struct {
	tbl       *catalog.Table
	alias     string
	cols      []Column
	filter    expr.Expr // bound to the table row; nil = all rows
	idx       index.Index
	lo, hi    []byte
	idxDesc   string
	idxPrefix int // index columns fixed by the filter's equalities
	// The filter's operands that bound the index: one per prefix column,
	// then the range on the next column (nil when none). lo and hi are their
	// encoding, set at plan time, or per execution when a template parameter
	// is among them (bind).
	eqVals []expr.Expr
	rng    *colRange
}

func (n *scanNode) columns() []Column    { return n.cols }
func (n *scanNode) children() []planNode { return nil }

func (n *scanNode) describe() string {
	s := "Seq Scan on " + n.tbl.Def.Name
	if n.alias != n.tbl.Def.Name {
		s += " " + n.alias
	}
	if n.idx != nil {
		s = fmt.Sprintf("Index Scan using %s on %s", n.idxDesc, n.tbl.Def.Name)
		if n.alias != n.tbl.Def.Name {
			s += " " + n.alias
		}
	}
	if n.filter != nil {
		s += "\n  Filter: " + n.filter.String()
	}
	return s
}

func (n *scanNode) execute(ctx *execCtx, emit emitFn) error {
	if n.idx != nil {
		return n.executeIndex(ctx, emit)
	}
	// Batch the scanned-row count locally; one atomic add per scan, not per
	// tuple, keeps the hot path cheap.
	var scanned int64
	defer func() { ctx.db.met.Engine.RowsScanned.Add(scanned) }()
	return n.tbl.Heap.Scan(func(tid storage.TID, head *storage.Version) error {
		scanned++
		row, ok := ctx.tx.VisibleRow(head)
		if !ok {
			return nil
		}
		if n.filter != nil {
			keep, err := expr.EvalBool(n.filter, row)
			if err != nil {
				return err
			}
			if !keep {
				return nil
			}
		}
		return emit(row)
	})
}

func (n *scanNode) executeIndex(ctx *execCtx, emit emitFn) error {
	// Index entries may be stale (key-changing updates leave old postings
	// until vacuum), so each TID is visited at most once and the full filter
	// re-checks the visible row.
	seen := make(map[storage.TID]struct{})
	var scanErr error
	var scanned int64
	defer func() { ctx.db.met.Engine.RowsScanned.Add(scanned) }()
	n.idx.AscendRange(n.lo, n.hi, func(_ []byte, tid storage.TID) bool {
		if _, dup := seen[tid]; dup {
			return true
		}
		seen[tid] = struct{}{}
		scanned++
		err := n.tbl.Heap.View(tid, func(head *storage.Version) {
			row, ok := ctx.tx.VisibleRow(head)
			if !ok {
				return
			}
			if n.filter != nil {
				keep, evalErr := expr.EvalBool(n.filter, row)
				if evalErr != nil {
					scanErr = evalErr
					return
				}
				if !keep {
					return
				}
			}
			scanErr = emit(row)
		})
		if err != nil && err != storage.ErrNoSuchTuple {
			scanErr = err
		}
		return scanErr == nil
	})
	return scanErr
}

// --- filter ---

type filterNode struct {
	child planNode
	pred  expr.Expr // bound to child columns
}

func (n *filterNode) columns() []Column    { return n.child.columns() }
func (n *filterNode) children() []planNode { return []planNode{n.child} }
func (n *filterNode) describe() string     { return "Filter: " + n.pred.String() }

func (n *filterNode) execute(ctx *execCtx, emit emitFn) error {
	return n.child.execute(ctx, func(row types.Row) error {
		keep, err := expr.EvalBool(n.pred, row)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
		return emit(row)
	})
}

// --- project ---

type projectNode struct {
	child planNode
	exprs []expr.Expr // bound to child columns
	cols  []Column
}

func (n *projectNode) columns() []Column    { return n.cols }
func (n *projectNode) children() []planNode { return []planNode{n.child} }

func (n *projectNode) describe() string {
	s := "Project:"
	for i, e := range n.exprs {
		if i > 0 {
			s += ","
		}
		s += " " + e.String()
	}
	return s
}

func (n *projectNode) execute(ctx *execCtx, emit emitFn) error {
	out := make(types.Row, len(n.exprs))
	return n.child.execute(ctx, func(row types.Row) error {
		for i, e := range n.exprs {
			v, err := e.Eval(row)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return emit(out)
	})
}

// --- joins ---

// nlJoinNode is a nested-loop (cartesian) join with an optional residual
// predicate; the right side re-executes per left row.
type nlJoinNode struct {
	left, right planNode
	cols        []Column
	pred        expr.Expr // bound to concatenated columns; may be nil
}

func (n *nlJoinNode) columns() []Column    { return n.cols }
func (n *nlJoinNode) children() []planNode { return []planNode{n.left, n.right} }
func (n *nlJoinNode) describe() string {
	s := "Nested Loop"
	if n.pred != nil {
		s += "\n  Join Filter: " + n.pred.String()
	}
	return s
}

func (n *nlJoinNode) execute(ctx *execCtx, emit emitFn) error {
	leftWidth := len(n.left.columns())
	out := make(types.Row, len(n.cols))
	return n.left.execute(ctx, func(lrow types.Row) error {
		saved := append(types.Row(nil), lrow...) // lrow is reused by the left child
		return n.right.execute(ctx, func(rrow types.Row) error {
			copy(out, saved)
			copy(out[leftWidth:], rrow)
			if n.pred != nil {
				keep, err := expr.EvalBool(n.pred, out)
				if err != nil {
					return err
				}
				if !keep {
					return nil
				}
			}
			return emit(out)
		})
	})
}

// indexJoinNode looks up right-side rows through an index: each left row
// builds a key for the index's first len(probe) columns from constants of the
// right scan's filter and join-key expressions over the left row, and probes
// it.
type indexJoinNode struct {
	left     planNode
	right    *scanNode
	idx      index.Index
	probe    []expr.Expr // per probed index column: a join key bound to the left columns, or a constant
	cols     []Column
	residual expr.Expr // bound to concatenated columns
}

// children omits the right scan: the join probes its table and applies its
// filter itself, never running the scan, so describe shows both.
func (n *indexJoinNode) columns() []Column    { return n.cols }
func (n *indexJoinNode) children() []planNode { return []planNode{n.left} }
func (n *indexJoinNode) describe() string {
	s := fmt.Sprintf("Index Nested Loop using %s (=%d cols) on %s", n.idx.Def().Name, len(n.probe), n.right.tbl.Def.Name)
	if n.right.alias != n.right.tbl.Def.Name {
		s += " " + n.right.alias
	}
	if n.right.filter != nil {
		s += "\n  Filter: " + n.right.filter.String()
	}
	if n.residual != nil {
		s += "\n  Join Filter: " + n.residual.String()
	}
	return s
}

func (n *indexJoinNode) execute(ctx *execCtx, emit emitFn) error {
	leftWidth := len(n.left.columns())
	out := make(types.Row, len(n.cols))
	keyRow := make(types.Row, len(n.probe))
	idxCols := n.idx.Def().Columns
	exact := len(n.probe) == len(idxCols)
	var key []byte
	var tids []storage.TID
	var scanned int64
	defer func() { ctx.db.met.Engine.RowsScanned.Add(scanned) }()
	return n.left.execute(ctx, func(lrow types.Row) error {
		for i, p := range n.probe {
			v, err := p.Eval(lrow)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil // NULL never joins
			}
			keyRow[i] = v
		}
		key = types.EncodeKey(key[:0], keyRow)
		if exact {
			tids = n.idx.Lookup(key)
		} else {
			tids = tids[:0]
			n.idx.AscendRange(key, index.PrefixSucc(key), func(_ []byte, tid storage.TID) bool {
				tids = append(tids, tid)
				return true
			})
			// Stale postings can list a tuple under several keys of the
			// prefix: visit each once.
			sort.Slice(tids, func(i, j int) bool { return tidLess(tids[i], tids[j]) })
			tids = slices.Compact(tids)
		}
		copy(out, lrow)
		for _, tid := range tids {
			scanned++
			var innerErr error
			err := n.right.tbl.Heap.View(tid, func(head *storage.Version) {
				rrow, ok := ctx.tx.VisibleRow(head)
				if !ok {
					return
				}
				// Re-check the probed columns against the visible row (stale
				// postings), then the right scan's own filter.
				for i, v := range keyRow {
					if !types.Equal(rrow[idxCols[i]], v) {
						return
					}
				}
				if n.right.filter != nil {
					keep, err := expr.EvalBool(n.right.filter, rrow)
					if err != nil {
						innerErr = err
						return
					}
					if !keep {
						return
					}
				}
				copy(out[leftWidth:], rrow)
				if n.residual != nil {
					keep, err := expr.EvalBool(n.residual, out)
					if err != nil {
						innerErr = err
						return
					}
					if !keep {
						return
					}
				}
				innerErr = emit(out)
			})
			if err != nil && err != storage.ErrNoSuchTuple {
				return err
			}
			if innerErr != nil {
				return innerErr
			}
		}
		return nil
	})
}

func tidLess(a, b storage.TID) bool {
	return a.Page < b.Page || a.Page == b.Page && a.Slot < b.Slot
}

// hashJoinNode builds a hash table over the right input and probes it with
// left rows.
type hashJoinNode struct {
	left, right planNode
	leftKeys    []expr.Expr // bound to left columns
	rightKeys   []expr.Expr // bound to right columns
	cols        []Column
	residual    expr.Expr
}

func (n *hashJoinNode) columns() []Column    { return n.cols }
func (n *hashJoinNode) children() []planNode { return []planNode{n.left, n.right} }
func (n *hashJoinNode) describe() string {
	s := "Hash Join"
	if n.residual != nil {
		s += "\n  Join Filter: " + n.residual.String()
	}
	return s
}

func (n *hashJoinNode) execute(ctx *execCtx, emit emitFn) error {
	// Build side: right.
	table := make(map[string][]types.Row)
	keyRow := make(types.Row, len(n.rightKeys))
	err := n.right.execute(ctx, func(row types.Row) error {
		for i, ke := range n.rightKeys {
			v, err := ke.Eval(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil
			}
			keyRow[i] = v
		}
		k := string(types.EncodeKey(nil, keyRow))
		table[k] = append(table[k], row.Clone())
		return nil
	})
	if err != nil {
		return err
	}
	// Probe side: left.
	leftWidth := len(n.left.columns())
	out := make(types.Row, len(n.cols))
	probeKey := make(types.Row, len(n.leftKeys))
	return n.left.execute(ctx, func(lrow types.Row) error {
		for i, ke := range n.leftKeys {
			v, err := ke.Eval(lrow)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil
			}
			probeKey[i] = v
		}
		matches := table[string(types.EncodeKey(nil, probeKey))]
		if len(matches) == 0 {
			return nil
		}
		copy(out, lrow)
		for _, rrow := range matches {
			copy(out[leftWidth:], rrow)
			if n.residual != nil {
				keep, err := expr.EvalBool(n.residual, out)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			if err := emit(out); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- aggregation ---

type aggNode struct {
	child   planNode
	groupBy []expr.Expr // bound to child
	specs   []*expr.Agg // bound args
	cols    []Column
}

func (n *aggNode) columns() []Column    { return n.cols }
func (n *aggNode) children() []planNode { return []planNode{n.child} }
func (n *aggNode) describe() string {
	s := "HashAggregate"
	if len(n.groupBy) > 0 {
		s += "\n  Group Key:"
		for i, g := range n.groupBy {
			if i > 0 {
				s += ","
			}
			s += " " + g.String()
		}
	}
	return s
}

type accumulator interface {
	add(d types.Datum)
	result() types.Datum
}

func newAccumulator(spec *expr.Agg) accumulator {
	var base accumulator
	switch spec.Name {
	case "COUNT":
		base = &countAcc{}
	case "SUM":
		base = &sumAcc{}
	case "AVG":
		base = &avgAcc{}
	case "MIN":
		base = &minmaxAcc{min: true}
	case "MAX":
		base = &minmaxAcc{}
	default:
		base = &countAcc{}
	}
	if spec.Distinct {
		return &distinctAcc{inner: base, seen: make(map[string]struct{})}
	}
	return base
}

type countAcc struct{ n int64 }

func (a *countAcc) add(d types.Datum) {
	if !d.IsNull() {
		a.n++
	}
}
func (a *countAcc) result() types.Datum { return types.NewInt(a.n) }

type sumAcc struct {
	isFloat bool
	i       int64
	f       float64
	seenAny bool
}

func (a *sumAcc) add(d types.Datum) {
	if d.IsNull() {
		return
	}
	a.seenAny = true
	if d.Kind() == types.KindFloat || a.isFloat {
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += d.Float()
		return
	}
	a.i += d.Int()
}

func (a *sumAcc) result() types.Datum {
	if !a.seenAny {
		return types.Null
	}
	if a.isFloat {
		return types.NewFloat(a.f)
	}
	return types.NewInt(a.i)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(d types.Datum) {
	if d.IsNull() {
		return
	}
	a.sum += d.Float()
	a.n++
}

func (a *avgAcc) result() types.Datum {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.sum / float64(a.n))
}

type minmaxAcc struct {
	min  bool
	best types.Datum
	set  bool
}

func (a *minmaxAcc) add(d types.Datum) {
	if d.IsNull() {
		return
	}
	if !a.set {
		a.best, a.set = d, true
		return
	}
	c := types.Compare(d, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = d
	}
}

func (a *minmaxAcc) result() types.Datum {
	if !a.set {
		return types.Null
	}
	return a.best
}

type distinctAcc struct {
	inner accumulator
	seen  map[string]struct{}
}

func (a *distinctAcc) add(d types.Datum) {
	if d.IsNull() {
		return
	}
	k := string(types.EncodeDatum(nil, d))
	if _, dup := a.seen[k]; dup {
		return
	}
	a.seen[k] = struct{}{}
	a.inner.add(d)
}
func (a *distinctAcc) result() types.Datum { return a.inner.result() }

func (n *aggNode) execute(ctx *execCtx, emit emitFn) error {
	type group struct {
		key  types.Row
		accs []accumulator
	}
	groups := make(map[string]*group)
	var order []string // deterministic output order (first appearance)
	keyRow := make(types.Row, len(n.groupBy))
	err := n.child.execute(ctx, func(row types.Row) error {
		for i, g := range n.groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return err
			}
			keyRow[i] = v
		}
		k := string(types.EncodeKey(nil, keyRow))
		grp := groups[k]
		if grp == nil {
			grp = &group{key: keyRow.Clone(), accs: make([]accumulator, len(n.specs))}
			for i, spec := range n.specs {
				grp.accs[i] = newAccumulator(spec)
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, spec := range n.specs {
			if spec.Arg == nil { // COUNT(*)
				grp.accs[i].add(types.NewInt(1))
				continue
			}
			v, err := spec.Arg.Eval(row)
			if err != nil {
				return err
			}
			grp.accs[i].add(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A grouped query with no groups emits nothing; a global aggregate with
	// no input emits one row of empty aggregates.
	if len(groups) == 0 && len(n.groupBy) == 0 {
		out := make(types.Row, len(n.specs))
		for i, spec := range n.specs {
			out[i] = newAccumulator(spec).result()
		}
		return emit(out)
	}
	out := make(types.Row, len(n.groupBy)+len(n.specs))
	for _, k := range order {
		grp := groups[k]
		copy(out, grp.key)
		for i, acc := range grp.accs {
			out[len(n.groupBy)+i] = acc.result()
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// minProbeNode answers a lone ungrouped MIN(col) through the scan's index
// when col is the index column right after the equality prefix the scan's
// filter fixes: entries then arrive in col order, so the first entry whose
// row is visible, passes the filter with a non-NULL col, and still has the
// entry's key (a stale posting of a key-changing update does not) holds the
// minimum. The visible version's own key always has a posting, because
// vacuum only removes postings of versions no snapshot can see.
type minProbeNode struct {
	scan *scanNode
	ord  int      // table ordinal of the MIN column
	cols []Column // the aggregate's single output column
}

func (n *minProbeNode) columns() []Column    { return n.cols }
func (n *minProbeNode) children() []planNode { return []planNode{n.scan} }
func (n *minProbeNode) describe() string {
	return "Index Min Probe: MIN(" + n.scan.tbl.Def.Columns[n.ord].Name + ")"
}

func (n *minProbeNode) execute(ctx *execCtx, emit emitFn) error {
	sn := n.scan
	idxCols := sn.idx.Def().Columns
	best := types.Null
	var rowKey []byte
	var scanErr error
	var scanned int64
	defer func() { ctx.db.met.Engine.RowsScanned.Add(scanned) }()
	sn.idx.AscendRange(sn.lo, sn.hi, func(key []byte, tid storage.TID) bool {
		scanned++
		err := sn.tbl.Heap.View(tid, func(head *storage.Version) {
			row, ok := ctx.tx.VisibleRow(head)
			if !ok || row[n.ord].IsNull() {
				return
			}
			rowKey = rowKey[:0]
			for _, ord := range idxCols {
				rowKey = types.EncodeDatum(rowKey, row[ord])
			}
			if !bytes.Equal(rowKey, key) {
				return // stale posting: the row sits at its current key
			}
			if sn.filter != nil {
				keep, err := expr.EvalBool(sn.filter, row)
				if err != nil {
					scanErr = err
					return
				}
				if !keep {
					return
				}
			}
			best = row[n.ord]
		})
		if err != nil && err != storage.ErrNoSuchTuple {
			scanErr = err
		}
		return scanErr == nil && best.IsNull()
	})
	if scanErr != nil {
		return scanErr
	}
	return emit(types.Row{best})
}

// --- sort / limit / distinct ---

type sortKey struct {
	expr expr.Expr
	desc bool
}

type sortNode struct {
	child planNode
	keys  []sortKey
}

func (n *sortNode) columns() []Column    { return n.child.columns() }
func (n *sortNode) children() []planNode { return []planNode{n.child} }
func (n *sortNode) describe() string {
	s := "Sort:"
	for i, k := range n.keys {
		if i > 0 {
			s += ","
		}
		s += " " + k.expr.String()
		if k.desc {
			s += " DESC"
		}
	}
	return s
}

func (n *sortNode) execute(ctx *execCtx, emit emitFn) error {
	type keyed struct {
		row  types.Row
		keys types.Row
	}
	var rows []keyed
	err := n.child.execute(ctx, func(row types.Row) error {
		ks := make(types.Row, len(n.keys))
		for i, k := range n.keys {
			v, err := k.expr.Eval(row)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		rows = append(rows, keyed{row: row.Clone(), keys: ks})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range n.keys {
			c := types.Compare(rows[i].keys[k], rows[j].keys[k])
			if n.keys[k].desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, r := range rows {
		if err := emit(r.row); err != nil {
			return err
		}
	}
	return nil
}

type limitNode struct {
	child planNode
	n     int64
}

func (n *limitNode) columns() []Column    { return n.child.columns() }
func (n *limitNode) children() []planNode { return []planNode{n.child} }
func (n *limitNode) describe() string     { return fmt.Sprintf("Limit %d", n.n) }

func (n *limitNode) execute(ctx *execCtx, emit emitFn) error {
	if n.n == 0 {
		return nil
	}
	count := int64(0)
	err := n.child.execute(ctx, func(row types.Row) error {
		if err := emit(row); err != nil {
			return err
		}
		count++
		if count >= n.n {
			return errStopScan
		}
		return nil
	})
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

type distinctNode struct {
	child planNode
}

func (n *distinctNode) columns() []Column    { return n.child.columns() }
func (n *distinctNode) children() []planNode { return []planNode{n.child} }
func (n *distinctNode) describe() string     { return "Distinct" }

func (n *distinctNode) execute(ctx *execCtx, emit emitFn) error {
	seen := make(map[string]struct{})
	return n.child.execute(ctx, func(row types.Row) error {
		k := string(types.EncodeKey(nil, row))
		if _, dup := seen[k]; dup {
			return nil
		}
		seen[k] = struct{}{}
		return emit(row)
	})
}

// inferKind computes a best-effort output kind for an expression over the
// given input columns. Unknown shapes yield KindNull, which schema treats as
// a wildcard column type (accepting any datum) — matching how CREATE TABLE AS
// handles untyped NULL columns.
func inferKind(e expr.Expr, cols []Column) types.Kind {
	switch t := e.(type) {
	case *expr.Const:
		return t.Val.Kind()
	case *expr.Param:
		return t.Kind
	case *expr.Col:
		if t.Index >= 0 && t.Index < len(cols) {
			return cols[t.Index].Kind
		}
		return types.KindNull
	case *expr.BinOp:
		if t.Op.Comparison() || t.Op == expr.OpAnd || t.Op == expr.OpOr {
			return types.KindBool
		}
		lk, rk := inferKind(t.L, cols), inferKind(t.R, cols)
		if lk == types.KindString || rk == types.KindString {
			return types.KindString
		}
		if t.Op == expr.OpDiv || lk == types.KindFloat || rk == types.KindFloat {
			return types.KindFloat
		}
		if lk == types.KindInt && rk == types.KindInt {
			return types.KindInt
		}
		return types.KindNull
	case *expr.Not, *expr.IsNull:
		return types.KindBool
	case *expr.InList:
		return types.KindBool
	case *expr.Func:
		switch t.Name {
		case "EXTRACT", "LENGTH", "MOD":
			return types.KindInt
		case "LOWER", "UPPER", "SUBSTR":
			return types.KindString
		case "ABS":
			if len(t.Args) == 1 {
				return inferKind(t.Args[0], cols)
			}
			return types.KindNull
		case "COALESCE":
			for _, a := range t.Args {
				if k := inferKind(a, cols); k != types.KindNull {
					return k
				}
			}
			return types.KindNull
		default:
			return types.KindNull
		}
	case *expr.Case:
		for _, w := range t.Whens {
			if k := inferKind(w.Then, cols); k != types.KindNull {
				return k
			}
		}
		if t.Else != nil {
			return inferKind(t.Else, cols)
		}
		return types.KindNull
	case *expr.Agg:
		if t.Name == "COUNT" {
			return types.KindInt
		}
		return types.KindFloat
	default:
		return types.KindNull
	}
}
