package engine

import (
	"errors"
	"fmt"

	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/txn"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Stmt is a statement ready to execute: a statement template with the
// literal values of one text (sql.Shape), or a plainly parsed statement.
type Stmt struct {
	// AST is the statement. A template's literals are expr.Param leaves,
	// which expr.BindParams binds to Args.
	AST sql.Statement
	// Args holds a template's literal values, in text order.
	Args []types.Datum
	// src is a template's statement text, parsed plainly when the template
	// does not plan; "" for a plain statement.
	src string
}

// Plain wraps a parsed statement.
func Plain(s sql.Statement) Stmt { return Stmt{AST: s} }

// errTemplateFallback reports a template the planner will not plan the way
// it plans the text (see buildAggregate): the text takes the plain path.
var errTemplateFallback = errors.New("engine: statement template takes the plain path")

// Prepare turns statement text into statements. A single SELECT, INSERT,
// UPDATE or DELETE becomes its shape's template, parsed once per shape, with
// the text's literal values; anything else (DDL, EXPLAIN, several
// statements, text the shape pass rejects) is parsed by sql.Parse, whose
// errors it returns.
func (db *DB) Prepare(src string) ([]Stmt, error) {
	var buf [256]byte
	shape, args, ok := sql.Shape(buf[:0], nil, src)
	if ok {
		tmpl, hit := db.templates.get(shape)
		if !hit {
			// A shape without a template is cached too (nil), so its texts
			// skip straight to the plain parse.
			tmpl, _ = sql.ParseTemplate(string(shape))
			db.templates.put(string(shape), tmpl)
		}
		if tmpl != nil {
			return []Stmt{{AST: tmpl, Args: args, src: src}}, nil
		}
	}
	stmts, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = Plain(s)
	}
	return out, nil
}

// execTemplate runs a template against the transaction's catalog version
// through the version's cached plan, building it on first use. It returns
// errTemplateFallback when the template does not plan; the caller then runs
// the text's plain parse, so a planning error reads as it always has.
func (db *DB) execTemplate(tx *txn.Txn, st Stmt) (*Result, error) {
	v := db.catForTxn(tx)
	key := planKey{stmt: st.AST, ver: v.ID()}
	cached := db.plans.get(key)
	if cached == nil {
		var err error
		if sel, ok := st.AST.(*sql.SelectStmt); ok {
			cached, err = db.buildSelectPlan(v, sel, "", nil)
		} else {
			cached, err = db.buildWritePlan(v, st.AST)
		}
		if err != nil {
			cached = planFailed{}
		}
		db.plans.put(key, cached)
	} else if _, failed := cached.(planFailed); !failed {
		db.met.Engine.PlansReused.Inc()
	}
	switch p := cached.(type) {
	case *Plan:
		return p.result(tx, st.Args)
	case *writePlan:
		return p.run(db, tx, st.Args)
	default:
		return nil, errTemplateFallback
	}
}

// bind returns the plan tree with a template's literal values bound: its
// inner nodes are copied with their Params replaced by constants, and a
// scan's index bounds are encoded from the values. The
// shared plan is never modified, so executions of one template run
// concurrently, each binding once per execution rather than once per row.
func bind(n planNode, args []types.Datum) planNode {
	if args == nil {
		return n
	}
	switch t := n.(type) {
	case *valuesNode, *boundRowsNode:
		return n
	case *renameNode:
		return &renameNode{child: bind(t.child, args), alias: t.alias}
	case *scanNode:
		return t.bind(args)
	case *filterNode:
		return &filterNode{child: bind(t.child, args), pred: expr.BindParams(t.pred, args)}
	case *projectNode:
		return &projectNode{child: bind(t.child, args), exprs: bindAll(t.exprs, args), cols: t.cols}
	case *nlJoinNode:
		return &nlJoinNode{left: bind(t.left, args), right: bind(t.right, args), cols: t.cols,
			pred: expr.BindParams(t.pred, args)}
	case *indexJoinNode:
		return &indexJoinNode{left: bind(t.left, args), right: t.right.bind(args), idx: t.idx,
			probe: bindAll(t.probe, args), cols: t.cols, residual: expr.BindParams(t.residual, args)}
	case *hashJoinNode:
		return &hashJoinNode{left: bind(t.left, args), right: bind(t.right, args),
			leftKeys: bindAll(t.leftKeys, args), rightKeys: bindAll(t.rightKeys, args),
			cols: t.cols, residual: expr.BindParams(t.residual, args)}
	case *aggNode:
		// Grouping keys and aggregate arguments hold no Params: a template
		// with one there takes the plain path (buildAggregate).
		return &aggNode{child: bind(t.child, args), groupBy: t.groupBy, specs: t.specs, cols: t.cols}
	case *minProbeNode:
		return &minProbeNode{scan: t.scan.bind(args), ord: t.ord, cols: t.cols}
	case *sortNode:
		keys := make([]sortKey, len(t.keys))
		for i, k := range t.keys {
			keys[i] = sortKey{expr: expr.BindParams(k.expr, args), desc: k.desc}
		}
		return &sortNode{child: bind(t.child, args), keys: keys}
	case *limitNode:
		return &limitNode{child: bind(t.child, args), n: t.n}
	case *distinctNode:
		return &distinctNode{child: bind(t.child, args)}
	default:
		panic(fmt.Sprintf("engine: bind: unknown plan node %T", n))
	}
}

// bind returns the scan with args bound into its filter and index bounds
// (the scan itself for a plain statement).
func (n *scanNode) bind(args []types.Datum) *scanNode {
	if args == nil {
		return n
	}
	c := *n
	c.filter = expr.BindParams(n.filter, args)
	if c.idx != nil {
		c.encodeBounds(args)
	}
	return &c
}

// bindAll binds each expression of list, copying the list only when one of
// them holds a Param.
func bindAll(list []expr.Expr, args []types.Datum) []expr.Expr {
	var out []expr.Expr
	for i, e := range list {
		b := expr.BindParams(e, args)
		if b != e && out == nil {
			out = append(make([]expr.Expr, 0, len(list)), list[:i]...)
		}
		if out != nil {
			out = append(out, b)
		}
	}
	if out == nil {
		return list
	}
	return out
}
