package engine

import (
	"fmt"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/catalog"
	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/index"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Column describes one output column of a plan node: the binding alias of
// the table it came from ("" for computed columns), its name, and its kind.
type Column struct {
	Table string
	Name  string
	Kind  types.Kind
}

type emitFn func(types.Row) error

type execCtx struct {
	db *DB
	tx *txn.Txn
	// bound carries the in-memory relation a boundRowsNode reads, so one
	// cached plan can serve many concurrent executions over different row
	// sets (Plan.ExecuteBound).
	bound []types.Row
}

type planNode interface {
	columns() []Column
	execute(ctx *execCtx, emit emitFn) error
	describe() string // one-line EXPLAIN description
	children() []planNode
}

// Plan is a compiled, executable query.
type Plan struct {
	db   *DB
	root planNode
}

// Columns returns the output column descriptors.
func (p *Plan) Columns() []Column { return p.root.columns() }

// ColumnNames returns the output column names.
func (p *Plan) ColumnNames() []string {
	cols := p.root.columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// Execute runs the plan in the given transaction, calling emit for each
// output row. Emitted rows may be reused by the executor; clone them if
// retained.
func (p *Plan) Execute(tx *txn.Txn, emit func(types.Row) error) error {
	return p.ExecuteBound(tx, nil, emit)
}

// ExecuteBound runs a plan compiled with PlanSelectBound, substituting rows
// for the bound alias. The rows ride in the per-call execution context, not
// in the plan, so a cached plan may run concurrently under different row
// sets.
func (p *Plan) ExecuteBound(tx *txn.Txn, rows []types.Row, emit func(types.Row) error) error {
	return p.execute(tx, rows, nil, emit)
}

// execute runs the plan with bound rows and a template's literal values
// (either may be nil).
func (p *Plan) execute(tx *txn.Txn, rows []types.Row, args []types.Datum, emit func(types.Row) error) error {
	var returned int64
	err := bind(p.root, args).execute(&execCtx{db: p.db, tx: tx, bound: rows}, func(row types.Row) error {
		returned++
		return emit(row)
	})
	p.db.met.Engine.RowsReturned.Add(returned)
	return err
}

// result runs the plan and collects its rows.
func (p *Plan) result(tx *txn.Txn, args []types.Datum) (*Result, error) {
	res := &Result{Columns: p.ColumnNames()}
	err := p.execute(tx, nil, args, func(row types.Row) error {
		res.Rows = append(res.Rows, row.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func scopeOf(cols []Column) *expr.Scope {
	sc := make([]expr.ScopeCol, len(cols))
	for i, c := range cols {
		sc[i] = expr.ScopeCol{Table: c.Table, Name: c.Name, Kind: c.Kind}
	}
	return expr.NewScope(sc...)
}

// --- planner ---

// PlanSelect compiles a SELECT statement against the head catalog version,
// reusing a cached plan when the same statement was planned before against
// the same version (metric: PlansReused vs PlansBuilt). Plans are cached by
// statement identity, so this serves callers that plan one long-lived
// statement many times (migration transforms); statement text arrives
// through Prepare, whose templates give each shape one identity.
func (db *DB) PlanSelect(s *sql.SelectStmt) (*Plan, error) {
	return db.planCached(db.cat.Head(), s, "")
}

// PlanSelectBound compiles (with caching) a SELECT whose boundAlias FROM
// item reads rows supplied at execution time via Plan.ExecuteBound. This is
// the migration transform's hot path: bitmapPass/hashPass plan the transform
// SELECT once and run it per batch with that batch's claimed tuples bound.
// Migration transforms read old-schema tables which stay resolvable in the
// head version (retired, not dropped), so this plans against head.
func (db *DB) PlanSelectBound(s *sql.SelectStmt, boundAlias string) (*Plan, error) {
	return db.planCached(db.cat.Head(), s, normalizeName(boundAlias))
}

func (db *DB) planCached(v *catalog.Version, s *sql.SelectStmt, boundAlias string) (*Plan, error) {
	key := planKey{stmt: s, ver: v.ID(), alias: boundAlias}
	if p, ok := db.plans.get(key).(*Plan); ok {
		db.met.Engine.PlansReused.Inc()
		return p, nil
	}
	p, err := db.buildSelectPlan(v, s, boundAlias, nil)
	if err != nil {
		return nil, err
	}
	db.plans.put(key, p)
	return p, nil
}

// PlanSelectWithBoundRows compiles a SELECT, but the FROM item whose binding
// name equals boundAlias reads from the supplied in-memory rows instead of
// its table. BullFrog's migration executor uses this to run the migration
// transform over exactly the set of tuples it claimed (paper §3.2). The rows
// are baked into the plan, so the result is never cached; prefer
// PlanSelectBound + ExecuteBound on hot paths.
func (db *DB) PlanSelectWithBoundRows(s *sql.SelectStmt, boundAlias string, boundRows *BoundRows) (*Plan, error) {
	return db.buildSelectPlan(db.cat.Head(), s, normalizeName(boundAlias), boundRows)
}

func (db *DB) buildSelectPlan(v *catalog.Version, s *sql.SelectStmt, boundAlias string, boundRows *BoundRows) (*Plan, error) {
	b := &planBuilder{db: db, cat: v, boundAlias: boundAlias, boundRows: boundRows}
	root, err := b.buildSelect(s)
	if err != nil {
		return nil, err
	}
	db.met.Engine.PlansBuilt.Inc()
	return &Plan{db: db, root: root}, nil
}

// BoundRows is an in-memory relation substituted for a base table.
type BoundRows struct {
	Rows []types.Row
}

type planBuilder struct {
	db         *DB
	cat        *catalog.Version // the catalog version names resolve against
	boundAlias string
	boundRows  *BoundRows
	rules      accessRules
}

// accessRules turns off the planner's index-bounded access paths, so a test
// can run a query through the general operators as well and compare. The
// zero value, which every production plan uses, enables them all.
type accessRules struct {
	noIndexJoin bool // hash join instead of an index nested loop
	noMinProbe  bool // full aggregate instead of the first-entry MIN probe
}

// source is one FROM item during planning.
type source struct {
	alias string
	node  planNode
}

func (b *planBuilder) buildSelect(s *sql.SelectStmt) (planNode, error) {
	// 1. Sources.
	var sources []source
	seen := map[string]bool{}
	for _, ref := range s.From {
		src, err := b.buildSource(ref)
		if err != nil {
			return nil, err
		}
		if seen[src.alias] {
			return nil, fmt.Errorf("engine: duplicate table alias %q", src.alias)
		}
		seen[src.alias] = true
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		sources = append(sources, source{alias: "", node: &valuesNode{rows: []types.Row{{}}}})
	}

	// 2. Canonicalize WHERE column references against the combined scope.
	var allCols []Column
	for _, src := range sources {
		allCols = append(allCols, src.node.columns()...)
	}
	combined := scopeOf(allCols)
	var conjuncts []expr.Expr
	if s.Where != nil {
		canon, err := canonicalize(s.Where, combined, allCols)
		if err != nil {
			return nil, err
		}
		conjuncts = expr.SplitConjuncts(canon)
	}

	// 3. Push single-table conjuncts into their sources, join the rest.
	used := make([]bool, len(conjuncts))
	aliasesOf := func(e expr.Expr) map[string]bool {
		out := map[string]bool{}
		for _, c := range expr.CollectCols(e) {
			out[c.Table] = true
		}
		return out
	}
	for i, src := range sources {
		var own []expr.Expr
		for ci, conj := range conjuncts {
			if used[ci] {
				continue
			}
			as := aliasesOf(conj)
			if len(as) == 1 && as[src.alias] {
				own = append(own, conj)
				used[ci] = true
			} else if len(as) == 0 && i == 0 {
				own = append(own, conj) // constant predicate: attach once
				used[ci] = true
			}
		}
		if len(own) > 0 {
			n, err := b.attachFilter(src.node, expr.CombineConjuncts(own...))
			if err != nil {
				return nil, err
			}
			sources[i].node = n
		}
	}

	cur := sources[0].node
	curAliases := map[string]bool{sources[0].alias: true}
	for i := 1; i < len(sources); i++ {
		right := sources[i]
		curAliases[right.alias] = true
		var joinPreds []expr.Expr
		for ci, conj := range conjuncts {
			if used[ci] {
				continue
			}
			as := aliasesOf(conj)
			ok := true
			for a := range as {
				if !curAliases[a] {
					ok = false
					break
				}
			}
			if ok {
				joinPreds = append(joinPreds, conj)
				used[ci] = true
			}
		}
		var err error
		cur, err = b.buildJoin(cur, right.node, joinPreds)
		if err != nil {
			return nil, err
		}
	}
	for ci, conj := range conjuncts {
		if !used[ci] {
			n, err := b.attachFilter(cur, conj)
			if err != nil {
				return nil, err
			}
			cur = n
		}
	}

	// 4. Projection items (star expansion + canonicalization).
	items, err := expandItems(s.Items, cur.columns())
	if err != nil {
		return nil, err
	}

	// 5. Aggregation.
	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		if expr.ContainsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if s.Having != nil && !expr.ContainsAgg(s.Having) && len(s.GroupBy) == 0 {
		return nil, fmt.Errorf("engine: HAVING requires GROUP BY or aggregates")
	}
	var out planNode
	if hasAgg {
		out, items, err = b.buildAggregate(cur, s, items)
		if err != nil {
			return nil, err
		}
	} else {
		out = cur
	}

	// 6. Final projection.
	proj, err := b.buildProject(out, items)
	if err != nil {
		return nil, err
	}
	out = proj

	// 7. DISTINCT.
	if s.Distinct {
		out = &distinctNode{child: out}
	}

	// 8. ORDER BY (binds against the projected output columns).
	if len(s.OrderBy) > 0 {
		sn := &sortNode{child: out}
		outScope := scopeOf(out.columns())
		for _, oi := range s.OrderBy {
			bound, err := expr.Bind(oi.Expr, outScope)
			if err != nil {
				return nil, fmt.Errorf("engine: ORDER BY must reference output columns: %w", err)
			}
			sn.keys = append(sn.keys, sortKey{expr: bound, desc: oi.Desc})
		}
		out = sn
	}

	// 9. LIMIT.
	if s.Limit >= 0 {
		out = &limitNode{child: out, n: s.Limit}
	}
	return out, nil
}

// canonicalize resolves every column reference against the scope and rewrites
// it with its defining table alias filled in (still unbound, Index=-1), so
// later classification by alias is unambiguous.
func canonicalize(e expr.Expr, scope *expr.Scope, cols []Column) (expr.Expr, error) {
	return expr.Transform(e, func(x expr.Expr) (expr.Expr, error) {
		c, ok := x.(*expr.Col)
		if !ok {
			return x, nil
		}
		idx, err := scope.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		return &expr.Col{Table: cols[idx].Table, Name: cols[idx].Name, Index: -1}, nil
	})
}

func (b *planBuilder) buildSource(ref sql.TableRef) (source, error) {
	if ref.Subquery != nil {
		child, err := b.buildSelect(ref.Subquery)
		if err != nil {
			return source{}, err
		}
		return source{alias: normalizeName(ref.Alias), node: &renameNode{child: child, alias: normalizeName(ref.Alias)}}, nil
	}
	name := normalizeName(ref.Name)
	alias := normalizeName(ref.AliasOrName())
	// View expansion: a view reference plans as its defining query.
	if b.cat.HasView(name) {
		v, err := b.cat.View(name)
		if err != nil {
			return source{}, err
		}
		def, ok := v.Def.(*sql.SelectStmt)
		if !ok {
			return source{}, fmt.Errorf("engine: view %q has no planable definition", name)
		}
		child, err := b.buildSelect(def)
		if err != nil {
			return source{}, err
		}
		return source{alias: alias, node: &renameNode{child: child, alias: alias}}, nil
	}
	tbl, err := b.cat.Table(name)
	if err != nil {
		return source{}, err
	}
	if b.boundAlias != "" && alias == b.boundAlias {
		cols := make([]Column, len(tbl.Def.Columns))
		for i, c := range tbl.Def.Columns {
			cols[i] = Column{Table: alias, Name: c.Name, Kind: c.Kind}
		}
		if b.boundRows != nil {
			return source{alias: alias, node: &valuesNode{cols: cols, rows: b.boundRows.Rows}}, nil
		}
		// No rows at plan time: a cacheable plan whose rows arrive per
		// execution through ExecuteBound.
		return source{alias: alias, node: &boundRowsNode{cols: cols}}, nil
	}
	return source{alias: alias, node: newScanNode(tbl, alias)}, nil
}

// attachFilter pushes a (canonicalized, unbound) predicate onto a node,
// folding it into scan nodes so they can use indexes.
func (b *planBuilder) attachFilter(n planNode, pred expr.Expr) (planNode, error) {
	if pred == nil {
		return n, nil
	}
	bound, err := expr.Bind(pred, scopeOf(n.columns()))
	if err != nil {
		return nil, err
	}
	if sn, ok := n.(*scanNode); ok {
		sn.addFilter(bound)
		return sn, nil
	}
	return &filterNode{child: n, pred: bound}, nil
}

// buildJoin joins cur (left) with right under the given canonicalized
// predicates, choosing index-nested-loop, hash, or filtered nested-loop.
func (b *planBuilder) buildJoin(left, right planNode, preds []expr.Expr) (planNode, error) {
	leftCols, rightCols := left.columns(), right.columns()
	outCols := append(append([]Column{}, leftCols...), rightCols...)
	outScope := scopeOf(outCols)

	// Find equi-join pairs: leftExpr = rightExpr where each side references
	// only one input's columns.
	sideOf := func(e expr.Expr) int { // 0 left-only, 1 right-only, -1 mixed/none
		l, r := false, false
		for _, c := range expr.CollectCols(e) {
			if colInScope(leftCols, c) {
				l = true
			} else {
				r = true
			}
		}
		switch {
		case l && !r:
			return 0
		case r && !l:
			return 1
		default:
			return -1
		}
	}
	var leftKeys, rightKeys []expr.Expr // unbound, canonicalized
	var residual []expr.Expr
	for _, p := range preds {
		if bo, ok := p.(*expr.BinOp); ok && bo.Op == expr.OpEq {
			ls, rs := sideOf(bo.L), sideOf(bo.R)
			if ls == 0 && rs == 1 {
				leftKeys = append(leftKeys, bo.L)
				rightKeys = append(rightKeys, bo.R)
				continue
			}
			if ls == 1 && rs == 0 {
				leftKeys = append(leftKeys, bo.R)
				rightKeys = append(rightKeys, bo.L)
				continue
			}
		}
		residual = append(residual, p)
	}
	if len(leftKeys) > 0 {
		if rsn, ok := right.(*scanNode); ok && !b.rules.noIndexJoin {
			n, err := buildIndexJoin(left, rsn, leftKeys, rightKeys, residual, outCols)
			if n != nil || err != nil {
				return n, err
			}
		}
	}
	var boundResidual expr.Expr
	if len(residual) > 0 {
		var err error
		boundResidual, err = expr.Bind(expr.CombineConjuncts(residual...), outScope)
		if err != nil {
			return nil, err
		}
	}
	if len(leftKeys) > 0 {
		bl := make([]expr.Expr, len(leftKeys))
		br := make([]expr.Expr, len(rightKeys))
		for i := range leftKeys {
			var err error
			if bl[i], err = expr.Bind(leftKeys[i], scopeOf(leftCols)); err != nil {
				return nil, err
			}
			if br[i], err = expr.Bind(rightKeys[i], scopeOf(rightCols)); err != nil {
				return nil, err
			}
		}
		return &hashJoinNode{left: left, right: right, leftKeys: bl, rightKeys: br, cols: outCols, residual: boundResidual}, nil
	}

	// Cartesian nested loop with residual filter.
	return &nlJoinNode{left: left, right: right, cols: outCols, pred: boundResidual}, nil
}

// buildIndexJoin plans an index nested-loop join of left with the right
// scan when some index on the right table has a prefix whose every column is
// fixed, either by a `col = operand` conjunct of the scan's filter or by an
// equi-join key, with at least one join key among them. Each left row then
// probes that prefix; the join keys the probe does not use join the residual.
// It returns nil when no index qualifies, or when the scan's own index
// already fixes as long a prefix: the right side is then no larger than one
// probe's result, and a single hash build beats a probe per left row.
func buildIndexJoin(left planNode, rsn *scanNode, leftKeys, rightKeys, residual []expr.Expr, outCols []Column) (planNode, error) {
	joinAt := map[int]int{} // right table ordinal -> position in leftKeys
	for i, rk := range rightKeys {
		c, ok := rk.(*expr.Col)
		if !ok {
			continue
		}
		if ord := rsn.tbl.Def.ColumnIndex(c.Name); ord >= 0 {
			if _, dup := joinAt[ord]; !dup {
				joinAt[ord] = i
			}
		}
	}
	if len(joinAt) == 0 {
		return nil, nil
	}
	consts, _ := rsn.filterBounds()
	var best index.Index
	bestPrefix := 0
	for _, idx := range rsn.tbl.Indexes() {
		def := idx.Def()
		prefix, joins := 0, 0
		for _, ord := range def.Columns {
			if _, ok := consts[ord]; ok {
				prefix++
			} else if _, ok := joinAt[ord]; ok {
				prefix++
				joins++
			} else {
				break
			}
		}
		if joins == 0 || prefix <= rsn.idxPrefix {
			continue
		}
		if _, hash := idx.(*index.Hash); hash && prefix < len(def.Columns) {
			continue // a hash index answers only whole-key lookups
		}
		if best == nil || prefix > bestPrefix || (prefix == bestPrefix &&
			(def.Unique && !best.Def().Unique || def.Unique == best.Def().Unique && len(def.Columns) < len(best.Def().Columns))) {
			best, bestPrefix = idx, prefix
		}
	}
	if best == nil {
		return nil, nil
	}
	leftCols := left.columns()
	probe := make([]expr.Expr, bestPrefix)
	usedKey := make([]bool, len(leftKeys))
	for i, ord := range best.Def().Columns[:bestPrefix] {
		if v, ok := consts[ord]; ok {
			probe[i] = v
			continue
		}
		k := joinAt[ord]
		bound, err := expr.Bind(leftKeys[k], scopeOf(leftCols))
		if err != nil {
			return nil, err
		}
		probe[i] = bound
		usedKey[k] = true
	}
	for k, used := range usedKey {
		if !used {
			residual = append(residual, &expr.BinOp{Op: expr.OpEq, L: leftKeys[k], R: rightKeys[k]})
		}
	}
	var boundResidual expr.Expr
	if len(residual) > 0 {
		var err error
		boundResidual, err = expr.Bind(expr.CombineConjuncts(residual...), scopeOf(outCols))
		if err != nil {
			return nil, err
		}
	}
	return &indexJoinNode{
		left: left, right: rsn, idx: best, probe: probe,
		cols: outCols, residual: boundResidual,
	}, nil
}

func colInScope(cols []Column, c *expr.Col) bool {
	for _, col := range cols {
		if strings.EqualFold(col.Table, c.Table) && strings.EqualFold(col.Name, c.Name) {
			return true
		}
	}
	return false
}

// boundItem is a projection item after star expansion.
type boundItem struct {
	Expr  expr.Expr // canonical-ish, unbound
	Name  string
	Table string // provenance alias for bare columns
}

func expandItems(items []sql.SelectItem, inCols []Column) ([]boundItem, error) {
	var out []boundItem
	for _, it := range items {
		if it.Star {
			matched := false
			for _, c := range inCols {
				if it.StarTable == "" || strings.EqualFold(c.Table, it.StarTable) {
					out = append(out, boundItem{Expr: expr.NewCol(c.Table, c.Name), Name: c.Name, Table: c.Table})
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("engine: %s.* matches no columns", it.StarTable)
			}
			continue
		}
		name := it.Alias
		tbl := ""
		if c, ok := it.Expr.(*expr.Col); ok {
			if name == "" {
				name = c.Name
			}
			tbl = c.Table
		}
		out = append(out, boundItem{Expr: it.Expr, Name: normalizeName(name), Table: tbl})
	}
	return out, nil
}

func (b *planBuilder) buildProject(child planNode, items []boundItem) (*projectNode, error) {
	inCols := child.columns()
	scope := scopeOf(inCols)
	exprs := make([]expr.Expr, len(items))
	cols := make([]Column, len(items))
	for i, it := range items {
		bound, err := expr.Bind(it.Expr, scope)
		if err != nil {
			return nil, err
		}
		exprs[i] = bound
		cols[i] = Column{Name: it.Name, Kind: inferKind(bound, inCols)}
	}
	return &projectNode{child: child, exprs: exprs, cols: cols}, nil
}

// buildAggregate inserts a hash-aggregate node and rewrites projection items
// (and HAVING) to reference its outputs. Returns the node feeding the final
// projection (aggregate, possibly wrapped in a HAVING filter) and the
// rewritten items.
func (b *planBuilder) buildAggregate(child planNode, s *sql.SelectStmt, items []boundItem) (planNode, []boundItem, error) {
	inCols := child.columns()
	inScope := scopeOf(inCols)

	// The rewrite below matches items to GROUP BY expressions and aggregate
	// calls to one another by their text. Literals take part in that match,
	// but two template Params never print alike, so a template with one
	// there would plan differently from its text: it takes the plain path.
	fallback := aggregateHasParam(s.Having)
	for _, g := range s.GroupBy {
		fallback = fallback || expr.HasParam(g)
	}
	for _, it := range items {
		fallback = fallback || aggregateHasParam(it.Expr)
	}
	if fallback {
		return nil, nil, errTemplateFallback
	}

	// Canonicalize and bind GROUP BY expressions.
	groupExprs := make([]expr.Expr, len(s.GroupBy))
	groupCanon := make([]string, len(s.GroupBy))
	aggOutCols := make([]Column, 0, len(s.GroupBy)+4)
	for i, g := range s.GroupBy {
		canon, err := canonicalize(g, inScope, inCols)
		if err != nil {
			return nil, nil, err
		}
		bound, err := expr.Bind(canon, inScope)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i] = bound
		groupCanon[i] = canon.String()
		name := fmt.Sprintf("group_%d", i)
		tblAlias := ""
		if c, ok := canon.(*expr.Col); ok {
			name = c.Name
			tblAlias = c.Table
		}
		aggOutCols = append(aggOutCols, Column{Table: tblAlias, Name: name, Kind: inferKind(bound, inCols)})
	}

	// Collect aggregate specs from items and HAVING.
	var specs []*expr.Agg
	specKeys := map[string]int{}
	collect := func(e expr.Expr) error {
		var werr error
		expr.Walk(e, func(x expr.Expr) bool {
			a, ok := x.(*expr.Agg)
			if !ok {
				return true
			}
			spec := &expr.Agg{Name: a.Name, Distinct: a.Distinct}
			key := spec.String() // COUNT(*) form
			if a.Arg != nil {
				canon, err := canonicalize(a.Arg, inScope, inCols)
				if err != nil {
					werr = err
					return false
				}
				// The lookup key uses the canonical (alias-qualified) form so
				// SUM(x) and SUM(t.x) collapse to one spec.
				key = (&expr.Agg{Name: a.Name, Distinct: a.Distinct, Arg: canon}).String()
				bound, err := expr.Bind(canon, inScope)
				if err != nil {
					werr = err
					return false
				}
				spec.Arg = bound
			}
			if _, dup := specKeys[key]; dup {
				return false
			}
			specKeys[key] = len(specs)
			specs = append(specs, spec)
			return false
		})
		return werr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if s.Having != nil {
		if err := collect(s.Having); err != nil {
			return nil, nil, err
		}
	}
	for i, spec := range specs {
		kind := types.KindFloat
		switch spec.Name {
		case "COUNT":
			kind = types.KindInt
		case "MIN", "MAX", "SUM":
			if spec.Arg != nil {
				kind = inferKind(spec.Arg, inCols)
				if spec.Name == "SUM" && kind != types.KindInt {
					kind = types.KindFloat
				}
			}
		}
		aggOutCols = append(aggOutCols, Column{Name: fmt.Sprintf("agg_%d", i), Kind: kind})
	}

	var aggN planNode = &aggNode{child: child, groupBy: groupExprs, specs: specs, cols: aggOutCols}
	if probe := b.minProbe(child, groupExprs, specs, aggOutCols); probe != nil {
		aggN = probe
	}

	// Rewrite an expression over the input into one over the aggregate's
	// output in two passes (Transform is bottom-up, so aggregate subtrees
	// must be collapsed before loose column references are judged):
	// pass 1 replaces whole aggregate calls with agg_i refs; pass 2 maps
	// remaining columns to group-by outputs or rejects them.
	rewrite := func(e expr.Expr) (expr.Expr, error) {
		collapsed, err := expr.Transform(e, func(x expr.Expr) (expr.Expr, error) {
			a, ok := x.(*expr.Agg)
			if !ok {
				return x, nil
			}
			key := a.String()
			if a.Arg != nil {
				canon, err := canonicalize(a.Arg, inScope, inCols)
				if err != nil {
					return nil, err
				}
				key = (&expr.Agg{Name: a.Name, Distinct: a.Distinct, Arg: canon}).String()
			}
			i, found := specKeys[key]
			if !found {
				return nil, fmt.Errorf("engine: internal: aggregate %s not collected", key)
			}
			return expr.NewColIdx(fmt.Sprintf("agg_%d", i), len(groupExprs)+i), nil
		})
		if err != nil {
			return nil, err
		}
		return expr.Transform(collapsed, func(x expr.Expr) (expr.Expr, error) {
			c, ok := x.(*expr.Col)
			if !ok || c.Index >= 0 { // already-rewritten agg_i refs pass through
				return x, nil
			}
			canon, err := canonicalize(c, inScope, inCols)
			if err != nil {
				return nil, err
			}
			for i, g := range groupCanon {
				if canon.String() == g {
					return expr.NewColIdx(aggOutCols[i].Name, i), nil
				}
			}
			return nil, fmt.Errorf("engine: column %s must appear in GROUP BY or an aggregate", c)
		})
	}
	// Also allow whole group-by expressions (not just columns) in items.
	rewriteItem := func(e expr.Expr) (expr.Expr, error) {
		canon, err := canonicalize(e, inScope, inCols)
		if err == nil {
			for i, g := range groupCanon {
				if canon.String() == g {
					return expr.NewColIdx(aggOutCols[i].Name, i), nil
				}
			}
		}
		return rewrite(e)
	}

	newItems := make([]boundItem, len(items))
	for i, it := range items {
		re, err := rewriteItem(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		newItems[i] = boundItem{Expr: re, Name: it.Name, Table: ""}
	}
	out := aggN
	if s.Having != nil {
		rh, err := rewrite(s.Having)
		if err != nil {
			return nil, nil, err
		}
		out = &filterNode{child: aggN, pred: rh}
	}
	return out, newItems, nil
}

// aggregateHasParam reports whether an aggregate call in e has a template
// Param in its argument.
func aggregateHasParam(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if a, ok := x.(*expr.Agg); ok && expr.HasParam(a.Arg) {
			found = true
		}
		return !found
	})
	return found
}

// minProbe returns a first-entry probe for a lone ungrouped MIN(col) over a
// scan whose chosen B+tree index has col right after the equality prefix the
// filter fixes (see minProbeNode), or nil when the query does not have that
// shape. The column must have a declared kind, because index order matches
// Compare order only within one kind.
func (b *planBuilder) minProbe(child planNode, groupBy []expr.Expr, specs []*expr.Agg, cols []Column) planNode {
	if b.rules.noMinProbe || len(groupBy) != 0 || len(specs) != 1 || specs[0].Name != "MIN" {
		return nil
	}
	sn, ok := child.(*scanNode)
	if !ok || sn.idx == nil {
		return nil
	}
	col, ok := specs[0].Arg.(*expr.Col)
	if !ok || col.Index < 0 || sn.cols[col.Index].Kind == types.KindNull {
		return nil
	}
	idxCols := sn.idx.Def().Columns
	if _, hash := sn.idx.(*index.Hash); hash || sn.idxPrefix >= len(idxCols) || idxCols[sn.idxPrefix] != col.Index {
		return nil
	}
	return &minProbeNode{scan: sn, ord: col.Index, cols: cols}
}

// --- scan node construction & index selection ---

func newScanNode(tbl *catalog.Table, alias string) *scanNode {
	cols := make([]Column, len(tbl.Def.Columns))
	for i, c := range tbl.Def.Columns {
		cols[i] = Column{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	return &scanNode{tbl: tbl, alias: alias, cols: cols}
}

// addFilter sets or extends the scan's filter (bound against the table row)
// and re-runs index selection.
func (sn *scanNode) addFilter(bound expr.Expr) {
	sn.filter = expr.CombineConjuncts(sn.filter, bound)
	sn.chooseIndex()
}

// colRange is a range bound on one column taken from the scan's filter. A
// bound is the filter's operand: a Const, or a template's Param whose value
// arrives per execution.
type colRange struct {
	lo, hi       expr.Expr
	loInc, hiInc bool
}

// boundOperand reports whether e can bound an index scan: a non-NULL
// constant or a template parameter (never NULL, which a shape spells as a
// keyword). NULL constants never match, so they bound nothing.
func boundOperand(e expr.Expr) bool {
	switch t := e.(type) {
	case *expr.Const:
		return !t.Val.IsNull()
	case *expr.Param:
		return true
	}
	return false
}

// operandValue is the value of a bound operand (see boundOperand).
func operandValue(e expr.Expr, args []types.Datum) types.Datum {
	if p, ok := e.(*expr.Param); ok {
		return p.Value(args)
	}
	return e.(*expr.Const).Val
}

// filterBounds classifies the filter's `col OP operand` conjuncts into
// equalities and range bounds, by table ordinal.
func (sn *scanNode) filterBounds() (map[int]expr.Expr, map[int]*colRange) {
	eq := map[int]expr.Expr{}
	ranges := map[int]*colRange{}
	if sn.filter == nil {
		return eq, ranges
	}
	getRange := func(ord int) *colRange {
		if ranges[ord] == nil {
			ranges[ord] = &colRange{}
		}
		return ranges[ord]
	}
	for _, conj := range expr.SplitConjuncts(sn.filter) {
		bo, ok := conj.(*expr.BinOp)
		if !ok || !bo.Op.Comparison() {
			continue
		}
		col, cok := bo.L.(*expr.Col)
		v, op := bo.R, bo.Op
		if !cok {
			// operand OP col: flip.
			if col, cok = bo.R.(*expr.Col); !cok {
				continue
			}
			v = bo.L
			switch op {
			case expr.OpLt:
				op = expr.OpGt
			case expr.OpLe:
				op = expr.OpGe
			case expr.OpGt:
				op = expr.OpLt
			case expr.OpGe:
				op = expr.OpLe
			}
		}
		if !boundOperand(v) {
			continue
		}
		switch op {
		case expr.OpEq:
			eq[col.Index] = v
		case expr.OpGt:
			r := getRange(col.Index)
			r.lo, r.loInc = v, false
		case expr.OpGe:
			r := getRange(col.Index)
			r.lo, r.loInc = v, true
		case expr.OpLt:
			r := getRange(col.Index)
			r.hi, r.hiInc = v, false
		case expr.OpLe:
			r := getRange(col.Index)
			r.hi, r.hiInc = v, true
		}
	}
	return eq, ranges
}

// chooseIndex inspects the filter's conjuncts for equality (col = operand)
// prefixes over an index, plus an optional range bound on the following
// index column. The choice depends only on which columns are bounded, never
// on the values, so a template's plan serves every execution; the bounds'
// keys are encoded here when the operands are constants, and per execution
// (bind) when a template parameter supplies one.
func (sn *scanNode) chooseIndex() {
	sn.idx, sn.lo, sn.hi, sn.idxDesc, sn.idxPrefix = nil, nil, nil, "", 0
	sn.eqVals, sn.rng = nil, nil
	if sn.filter == nil {
		return
	}
	eq, ranges := sn.filterBounds()
	if len(eq) == 0 && len(ranges) == 0 {
		return
	}
	var best index.Index
	bestPrefix := 0
	bestHasRange := false
	for _, idx := range sn.tbl.Indexes() {
		def := idx.Def()
		prefix := 0
		for _, ord := range def.Columns {
			if _, ok := eq[ord]; ok {
				prefix++
			} else {
				break
			}
		}
		hasRange := prefix < len(def.Columns) && ranges[def.Columns[prefix]] != nil
		if prefix == 0 && !hasRange {
			continue
		}
		if prefix > bestPrefix || (prefix == bestPrefix && hasRange && !bestHasRange) {
			best, bestPrefix, bestHasRange = idx, prefix, hasRange
		}
	}
	if best == nil {
		return
	}
	def := best.Def()
	sn.eqVals = make([]expr.Expr, bestPrefix)
	params := false
	for i := range sn.eqVals {
		sn.eqVals[i] = eq[def.Columns[i]]
		_, p := sn.eqVals[i].(*expr.Param)
		params = params || p
	}
	desc := fmt.Sprintf("%s (=%d cols", def.Name, bestPrefix)
	if bestHasRange {
		sn.rng = ranges[def.Columns[bestPrefix]]
		for _, b := range []expr.Expr{sn.rng.lo, sn.rng.hi} {
			_, p := b.(*expr.Param)
			params = params || p
		}
		desc += "+range"
	}
	desc += ")"
	sn.idx, sn.idxDesc, sn.idxPrefix = best, desc, bestPrefix
	if !params {
		sn.encodeBounds(nil)
	}
}

// encodeBounds sets the index scan's key range from its bound operands,
// taking template parameters' values from args.
func (sn *scanNode) encodeBounds(args []types.Datum) {
	prefixKey := make(types.Row, len(sn.eqVals))
	for i, e := range sn.eqVals {
		prefixKey[i] = operandValue(e, args)
	}
	encoded := types.EncodeKey(nil, prefixKey)
	lo, hi := encoded, index.PrefixSucc(encoded)
	if r := sn.rng; r != nil {
		if r.lo != nil {
			lo = types.EncodeDatum(append([]byte(nil), encoded...), operandValue(r.lo, args))
			if !r.loInc {
				lo = append(lo, 0xFF) // skip the exact bound
			}
		}
		if r.hi != nil {
			hi = types.EncodeDatum(append([]byte(nil), encoded...), operandValue(r.hi, args))
			if r.hiInc {
				hi = append(hi, 0xFF)
			}
		}
	}
	sn.lo, sn.hi = lo, hi
}
