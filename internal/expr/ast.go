// Package expr defines scalar expression trees, their evaluation under SQL
// three-valued logic, name binding against row scopes, and the structural
// transformations (substitution, conjunct splitting, column collection) that
// the planner uses to push predicates through views — the mechanism at the
// heart of BullFrog's lazy-migration scoping (paper §2.1).
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Expr is a scalar expression evaluated against a single input row.
type Expr interface {
	fmt.Stringer
	// Eval evaluates the expression. Column references must have been bound
	// (their ordinal resolved) before evaluation.
	Eval(row types.Row) (types.Datum, error)
}

// Const is a literal datum.
type Const struct {
	Val types.Datum
}

// NewConst returns a constant expression.
func NewConst(d types.Datum) *Const { return &Const{Val: d} }

// Eval returns the constant's value.
func (c *Const) Eval(types.Row) (types.Datum, error) { return c.Val, nil }

func (c *Const) String() string { return c.Val.String() }

// Col is a column reference. Table may be empty (unqualified). Index is the
// resolved ordinal in the input row; -1 until bound.
type Col struct {
	Table string
	Name  string
	Index int
}

// NewCol returns an unbound column reference.
func NewCol(table, name string) *Col { return &Col{Table: table, Name: name, Index: -1} }

// NewColIdx returns a column reference bound to ordinal idx.
func NewColIdx(name string, idx int) *Col { return &Col{Name: name, Index: idx} }

// Eval returns the referenced column's value from the row.
func (c *Col) Eval(row types.Row) (types.Datum, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return types.Null, fmt.Errorf("expr: unbound or out-of-range column %s (index %d, row width %d)", c.Name, c.Index, len(row))
	}
	return row[c.Index], nil
}

func (c *Col) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Op enumerates binary and unary operators.
type Op int

// Operators supported by the engine.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpNot
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpAnd: "AND", OpOr: "OR",
	OpNot: "NOT",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// Comparison reports whether the operator is a comparison.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	L, R Expr
}

// NewBinOp returns a binary operation expression.
func NewBinOp(op Op, l, r Expr) *BinOp { return &BinOp{Op: op, L: l, R: r} }

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not is logical negation.
type Not struct {
	E Expr
}

func (n *Not) String() string { return "(NOT " + n.E.String() + ")" }

// IsNull tests for SQL NULL; with Negate it implements IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (i *IsNull) String() string {
	if i.Negate {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// Func is a scalar function call, e.g. EXTRACT, COALESCE, ABS, LOWER.
type Func struct {
	Name string // upper-cased
	Args []Expr
}

func (f *Func) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// InList is `expr IN (v1, v2, ...)`.
type InList struct {
	E    Expr
	List []Expr
}

func (in *InList) String() string {
	items := make([]string, len(in.List))
	for i, a := range in.List {
		items[i] = a.String()
	}
	return "(" + in.E.String() + " IN (" + strings.Join(items, ", ") + "))"
}

// Case is a searched CASE expression: CASE WHEN c1 THEN v1 ... ELSE e END.
type Case struct {
	Whens []When
	Else  Expr // may be nil (NULL)
}

// When is one WHEN/THEN arm of a Case.
type When struct {
	Cond Expr
	Then Expr
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Param is a literal slot of a statement template (internal/sql): the
// Idx'th literal of the statement text, of a kind fixed by the text's shape.
// Neg marks a literal under unary minus, which binds as the negated value the
// way the parser folds a negative literal. A Param must be bound to a Const
// (BindParams) before evaluation.
type Param struct {
	Idx  int
	Kind types.Kind
	Neg  bool
}

// Eval fails: a Param has no value until it is bound.
func (p *Param) Eval(types.Row) (types.Datum, error) {
	return types.Null, fmt.Errorf("expr: unbound parameter %s", p)
}

// String renders the slot by position, so two Params never print alike
// (the planner matches expressions by their text).
func (p *Param) String() string {
	s := "$" + strconv.Itoa(p.Idx+1)
	if p.Neg {
		s = "-" + s
	}
	return s
}

// Value returns the Param's value among a statement's literal values.
func (p *Param) Value(args []types.Datum) types.Datum {
	v := args[p.Idx]
	if !p.Neg {
		return v
	}
	if v.Kind() == types.KindFloat {
		return types.NewFloat(-v.Float())
	}
	return types.NewInt(-v.Int())
}
