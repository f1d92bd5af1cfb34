package expr

import (
	"fmt"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/types"
)

// ScopeCol describes one column visible to an expression: its (optional)
// table qualifier, name, and declared kind.
type ScopeCol struct {
	Table string
	Name  string
	Kind  types.Kind
}

// Scope is the ordered list of columns an expression's row refers to.
type Scope struct {
	Cols []ScopeCol
}

// NewScope builds a scope from columns.
func NewScope(cols ...ScopeCol) *Scope { return &Scope{Cols: cols} }

// Resolve finds the ordinal of a column reference, enforcing unambiguity for
// unqualified names.
func (s *Scope) Resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i, c := range s.Cols {
		if strings.ToLower(c.Name) != name {
			continue
		}
		if table != "" && strings.ToLower(c.Table) != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("expr: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("expr: unknown column %s.%s", table, name)
		}
		return -1, fmt.Errorf("expr: unknown column %q", name)
	}
	return found, nil
}

// Bind resolves every column reference in e against the scope, returning a
// new expression tree with ordinals filled in. The input tree is not
// modified.
func Bind(e Expr, scope *Scope) (Expr, error) {
	return Transform(e, func(x Expr) (Expr, error) {
		c, ok := x.(*Col)
		if !ok {
			return x, nil
		}
		idx, err := scope.Resolve(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		return &Col{Table: c.Table, Name: c.Name, Index: idx}, nil
	})
}

// Transform rewrites an expression bottom-up: children are transformed first,
// then f is applied to the (re-built) node. f returning a different node
// replaces it. The input tree is never mutated.
func Transform(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	var rebuilt Expr
	switch t := e.(type) {
	case *Const, *Col, *Param:
		rebuilt = e
	case *BinOp:
		l, err := Transform(t.L, f)
		if err != nil {
			return nil, err
		}
		r, err := Transform(t.R, f)
		if err != nil {
			return nil, err
		}
		rebuilt = &BinOp{Op: t.Op, L: l, R: r}
	case *Not:
		inner, err := Transform(t.E, f)
		if err != nil {
			return nil, err
		}
		rebuilt = &Not{E: inner}
	case *IsNull:
		inner, err := Transform(t.E, f)
		if err != nil {
			return nil, err
		}
		rebuilt = &IsNull{E: inner, Negate: t.Negate}
	case *Func:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			na, err := Transform(a, f)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		rebuilt = &Func{Name: t.Name, Args: args}
	case *Agg:
		var arg Expr
		if t.Arg != nil {
			var err error
			arg, err = Transform(t.Arg, f)
			if err != nil {
				return nil, err
			}
		}
		rebuilt = &Agg{Name: t.Name, Distinct: t.Distinct, Arg: arg}
	case *InList:
		inner, err := Transform(t.E, f)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(t.List))
		for i, a := range t.List {
			na, err := Transform(a, f)
			if err != nil {
				return nil, err
			}
			list[i] = na
		}
		rebuilt = &InList{E: inner, List: list}
	case *Case:
		whens := make([]When, len(t.Whens))
		for i, w := range t.Whens {
			c, err := Transform(w.Cond, f)
			if err != nil {
				return nil, err
			}
			v, err := Transform(w.Then, f)
			if err != nil {
				return nil, err
			}
			whens[i] = When{Cond: c, Then: v}
		}
		var els Expr
		if t.Else != nil {
			var err error
			els, err = Transform(t.Else, f)
			if err != nil {
				return nil, err
			}
		}
		rebuilt = &Case{Whens: whens, Else: els}
	default:
		return nil, fmt.Errorf("expr: Transform: unknown node %T", e)
	}
	return f(rebuilt)
}

// Walk visits every node in the expression tree, pre-order. Returning false
// from f stops descent into that subtree.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch t := e.(type) {
	case *BinOp:
		Walk(t.L, f)
		Walk(t.R, f)
	case *Not:
		Walk(t.E, f)
	case *IsNull:
		Walk(t.E, f)
	case *Func:
		for _, a := range t.Args {
			Walk(a, f)
		}
	case *Agg:
		Walk(t.Arg, f)
	case *InList:
		Walk(t.E, f)
		for _, a := range t.List {
			Walk(a, f)
		}
	case *Case:
		for _, w := range t.Whens {
			Walk(w.Cond, f)
			Walk(w.Then, f)
		}
		Walk(t.Else, f)
	}
}

// CollectCols returns every column reference in the expression, in visit
// order.
func CollectCols(e Expr) []*Col {
	var cols []*Col
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok {
			cols = append(cols, c)
		}
		return true
	})
	return cols
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// CombineConjuncts joins predicates with AND; nil inputs are dropped. Returns
// nil when no predicates remain.
func CombineConjuncts(preds ...Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &BinOp{Op: OpAnd, L: out, R: p}
		}
	}
	return out
}

// Clone deep-copies an expression tree.
func Clone(e Expr) Expr {
	out, err := Transform(e, func(x Expr) (Expr, error) {
		if c, ok := x.(*Col); ok {
			cc := *c
			return &cc, nil
		}
		if c, ok := x.(*Const); ok {
			cc := *c
			return &cc, nil
		}
		return x, nil
	})
	if err != nil {
		panic("expr: Clone cannot fail: " + err.Error())
	}
	return out
}

// BindParams replaces every Param in e with a Const of its value among args.
// It returns e itself, without allocating, when e holds no Param (or args is
// nil), and otherwise rebuilds only the path to each Param; the input tree
// is never mutated.
func BindParams(e Expr, args []types.Datum) Expr {
	if args == nil || e == nil {
		return e
	}
	out, _ := bindParams(e, args)
	return out
}

func bindParams(e Expr, args []types.Datum) (Expr, bool) {
	switch t := e.(type) {
	case *Param:
		return &Const{Val: t.Value(args)}, true
	case *BinOp:
		l, lc := bindParams(t.L, args)
		r, rc := bindParams(t.R, args)
		if !lc && !rc {
			return e, false
		}
		return &BinOp{Op: t.Op, L: l, R: r}, true
	case *Not:
		inner, c := bindParams(t.E, args)
		if !c {
			return e, false
		}
		return &Not{E: inner}, true
	case *IsNull:
		inner, c := bindParams(t.E, args)
		if !c {
			return e, false
		}
		return &IsNull{E: inner, Negate: t.Negate}, true
	case *Func:
		list, c := bindList(t.Args, args)
		if !c {
			return e, false
		}
		return &Func{Name: t.Name, Args: list}, true
	case *Agg:
		if t.Arg == nil {
			return e, false
		}
		arg, c := bindParams(t.Arg, args)
		if !c {
			return e, false
		}
		return &Agg{Name: t.Name, Distinct: t.Distinct, Arg: arg}, true
	case *InList:
		inner, ic := bindParams(t.E, args)
		list, lc := bindList(t.List, args)
		if !ic && !lc {
			return e, false
		}
		return &InList{E: inner, List: list}, true
	case *Case:
		changed := false
		whens := make([]When, len(t.Whens))
		for i, w := range t.Whens {
			c, cc := bindParams(w.Cond, args)
			v, vc := bindParams(w.Then, args)
			whens[i] = When{Cond: c, Then: v}
			changed = changed || cc || vc
		}
		var els Expr
		if t.Else != nil {
			var ec bool
			els, ec = bindParams(t.Else, args)
			changed = changed || ec
		}
		if !changed {
			return e, false
		}
		return &Case{Whens: whens, Else: els}, true
	default:
		return e, false
	}
}

// bindList binds a list of expressions, copying the list only when one of
// them changed.
func bindList(list []Expr, args []types.Datum) ([]Expr, bool) {
	var out []Expr
	for i, a := range list {
		b, c := bindParams(a, args)
		if c && out == nil {
			out = make([]Expr, len(list))
			copy(out, list[:i])
		}
		if out != nil {
			out[i] = b
		}
	}
	if out == nil {
		return list, false
	}
	return out, true
}

// HasParam reports whether e holds a Param.
func HasParam(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if _, ok := x.(*Param); ok {
			found = true
		}
		return !found
	})
	return found
}
