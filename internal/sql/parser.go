package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/expr"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Parser is a recursive-descent parser over the lexer's token stream.
type parser struct {
	src  string
	toks []token
	pos  int
}

// Parse parses a semicolon-separated sequence of statements.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var stmts []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().kind == tokEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptSymbol(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseExpr parses a standalone scalar expression (used by tests and the
// programmatic API).
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	return e, nil
}

// --- token helpers ---

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	near := t.text
	if t.kind == tokEOF {
		near = "end of input"
	}
	return fmt.Errorf("sql: %s (near %q, offset %d)", fmt.Sprintf(format, args...), near, t.pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q", sym)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	// Allow non-reserved use of a few keywords as identifiers is avoided for
	// simplicity: identifiers must not be keywords.
	if t.kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

// --- statements ---

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected a statement")
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "ALTER":
		return p.parseAlter()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		p.next()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner}, nil
	default:
		return nil, p.errf("unsupported statement %s", t.text)
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE TABLE is not valid")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("VIEW"):
		if unique {
			return nil, p.errf("UNIQUE VIEW is not valid")
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseParenOrBareSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Select: sel}, nil
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errf("expected TABLE, VIEW, or INDEX after CREATE")
	}
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	useHash := false
	if p.acceptKeyword("USING") {
		if !p.acceptKeyword("HASH") {
			return nil, p.errf("only USING HASH is supported")
		}
		useHash = true
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique, UseHash: useHash}, nil
}

// parseIdentList parses '(' ident (',' ident)* ')'.
func (p *parser) parseIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.acceptSymbol(")") {
			return out, nil
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	if p.acceptKeyword("AS") {
		sel, err := p.parseParenOrBareSelect()
		if err != nil {
			return nil, err
		}
		stmt.AsSelect = sel
		return stmt, nil
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		if err := p.parseTableElement(stmt); err != nil {
			return nil, err
		}
		if p.acceptSymbol(")") {
			break
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseTableElement(stmt *CreateTableStmt) error {
	// Table-level constraints.
	constraintName := ""
	if p.acceptKeyword("CONSTRAINT") {
		n, err := p.expectIdent()
		if err != nil {
			return err
		}
		constraintName = n
	}
	switch {
	case p.acceptKeyword("PRIMARY"):
		if err := p.expectKeyword("KEY"); err != nil {
			return err
		}
		cols, err := p.parseIdentList()
		if err != nil {
			return err
		}
		if stmt.PrimaryKey != nil {
			return p.errf("multiple primary keys")
		}
		stmt.PrimaryKey = cols
		return nil
	case p.acceptKeyword("UNIQUE"):
		cols, err := p.parseIdentList()
		if err != nil {
			return err
		}
		stmt.Uniques = append(stmt.Uniques, cols)
		return nil
	case p.acceptKeyword("CHECK"):
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		stmt.Checks = append(stmt.Checks, CheckDef{Name: constraintName, Expr: e})
		return nil
	case p.acceptKeyword("FOREIGN"):
		if err := p.expectKeyword("KEY"); err != nil {
			return err
		}
		cols, err := p.parseIdentList()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return err
		}
		refTable, err := p.expectIdent()
		if err != nil {
			return err
		}
		var refCols []string
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			refCols, err = p.parseIdentList()
			if err != nil {
				return err
			}
		}
		stmt.ForeignKeys = append(stmt.ForeignKeys, FKDef{
			Name: constraintName, Columns: cols, RefTable: refTable, RefColumns: refCols,
		})
		return nil
	}
	if constraintName != "" {
		return p.errf("expected a constraint after CONSTRAINT %s", constraintName)
	}
	// Column definition.
	colName, err := p.expectIdent()
	if err != nil {
		return err
	}
	typeName, err := p.parseTypeName()
	if err != nil {
		return err
	}
	kind, ok := TypeFromName(typeName)
	if !ok {
		return p.errf("unknown type %q", typeName)
	}
	col := ColumnDef{Name: colName, Kind: kind}
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return err
			}
			col.NotNull = true
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			col.Unique = true
		case p.acceptKeyword("CHECK"):
			if err := p.expectSymbol("("); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expectSymbol(")"); err != nil {
				return err
			}
			col.Check = e
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			col.Default = e
		default:
			stmt.Columns = append(stmt.Columns, col)
			return nil
		}
	}
}

// parseTypeName consumes a type identifier with optional parenthesized
// parameters, e.g. CHAR(6), NUMERIC(12,2).
func (p *parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return "", p.errf("expected a type name")
	}
	p.pos++
	if p.acceptSymbol("(") {
		for {
			if p.peek().kind != tokInt {
				return "", p.errf("expected a type parameter")
			}
			p.next()
			if p.acceptSymbol(")") {
				break
			}
			if err := p.expectSymbol(","); err != nil {
				return "", err
			}
		}
	}
	return t.text, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	isView := false
	switch {
	case p.acceptKeyword("TABLE"):
	case p.acceptKeyword("VIEW"):
		isView = true
	default:
		return nil, p.errf("expected TABLE or VIEW after DROP")
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if isView {
		return &DropViewStmt{Name: name, IfExists: ifExists}, nil
	}
	return &DropTableStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseAlter() (Statement, error) {
	p.next() // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("RENAME"):
		if err := p.expectKeyword("TO"); err != nil {
			return nil, err
		}
		newName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &AlterRenameStmt{Old: table, New: newName}, nil
	case p.peek().kind == tokIdent && p.peek().text == "add":
		p.next() // ADD (not a reserved keyword)
		fk := FKDef{}
		if p.acceptKeyword("CONSTRAINT") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			fk.Name = name
		}
		if err := p.expectKeyword("FOREIGN"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		fk.Columns = cols
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return nil, err
		}
		refTable, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		fk.RefTable = refTable
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			refCols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			fk.RefColumns = refCols
		}
		return &AlterAddFKStmt{Table: table, FK: fk}, nil
	case p.acceptKeyword("DROP"):
		if err := p.expectKeyword("CONSTRAINT"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &AlterDropConstraintStmt{Table: table, Name: name}, nil
	default:
		return nil, p.errf("expected RENAME TO, ADD, or DROP CONSTRAINT")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	// Optional column list — but '(' could also begin a parenthesized
	// SELECT. Disambiguate by looking ahead for SELECT.
	if p.peek().kind == tokSymbol && p.peek().text == "(" && !p.parenthesizedSelectAhead() {
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		stmt.Columns = cols
	}
	switch {
	case p.acceptKeyword("VALUES"):
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var rowExprs []expr.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				rowExprs = append(rowExprs, e)
				if p.acceptSymbol(")") {
					break
				}
				if err := p.expectSymbol(","); err != nil {
					return nil, err
				}
			}
			stmt.Values = append(stmt.Values, rowExprs)
			if !p.acceptSymbol(",") {
				break
			}
		}
	default:
		sel, err := p.parseParenOrBareSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel
	}
	if p.acceptKeyword("ON") {
		if err := p.expectKeyword("CONFLICT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("DO"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("NOTHING"); err != nil {
			return nil, err
		}
		stmt.OnConflict = ConflictDoNothing
	}
	return stmt, nil
}

// parenthesizedSelectAhead reports whether the tokens from the current '('
// lead to a SELECT (skipping nested parens).
func (p *parser) parenthesizedSelectAhead() bool {
	i := p.pos
	for i < len(p.toks) && p.toks[i].kind == tokSymbol && p.toks[i].text == "(" {
		i++
	}
	return i < len(p.toks) && p.toks[i].kind == tokKeyword && p.toks[i].text == "SELECT"
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias := ""
	if p.acceptKeyword("AS") {
		alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table, Alias: alias}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias := ""
	if p.acceptKeyword("AS") {
		alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	stmt := &DeleteStmt{Table: table, Alias: alias}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// parseParenOrBareSelect parses SELECT ... or (SELECT ...) with arbitrary
// nesting of parentheses.
func (p *parser) parseParenOrBareSelect() (*SelectStmt, error) {
	if p.acceptSymbol("(") {
		sel, err := p.parseParenOrBareSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return sel, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	// Select items.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, ref)
			// INNER JOIN ... ON cond desugars to another FROM item plus a
			// WHERE conjunct.
			for {
				inner := p.acceptKeyword("INNER")
				if !p.acceptKeyword("JOIN") {
					if inner {
						return nil, p.errf("expected JOIN after INNER")
					}
					break
				}
				joined, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				stmt.From = append(stmt.From, joined)
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				stmt.Where = expr.CombineConjuncts(stmt.Where, cond)
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = expr.CombineConjuncts(stmt.Where, w)
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errf("expected an integer LIMIT")
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// '*' or 'table.*'
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		table := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		// Bare alias (SELECT x y).
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.acceptSymbol("(") {
		sel, err := p.parseParenOrBareSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return TableRef{}, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, fmt.Errorf("sql: subquery in FROM requires an alias: %w", err)
		}
		return TableRef{Subquery: sel, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinOp(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinOp(expr.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "!=": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := comparisonOps[t.text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.NewBinOp(op, left, right), nil
		}
	}
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{E: left, Negate: negate}, nil
	}
	negate := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN") {
		p.next()
		negate = true
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSymbol(")") {
				break
			}
			if err := p.expectSymbol(","); err != nil {
				return nil, err
			}
		}
		var out expr.Expr = &expr.InList{E: left, List: list}
		if negate {
			out = &expr.Not{E: out}
		}
		return out, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		// x BETWEEN a AND b desugars to x >= a AND x <= b.
		var out expr.Expr = expr.NewBinOp(expr.OpAnd,
			expr.NewBinOp(expr.OpGe, left, lo),
			expr.NewBinOp(expr.OpLe, expr.Clone(left), hi))
		if negate {
			out = &expr.Not{E: out}
		}
		return out, nil
	}
	if negate {
		return nil, p.errf("expected IN or BETWEEN after NOT")
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol {
			return left, nil
		}
		var op expr.Op
		switch t.text {
		case "+", "||": // || is string concatenation, mapped onto OpAdd
			op = expr.OpAdd
		case "-":
			op = expr.OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinOp(op, left, right)
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol {
			return left, nil
		}
		var op expr.Op
		switch t.text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinOp(op, left, right)
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptSymbol("-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals.
		if c, ok := inner.(*expr.Const); ok {
			switch c.Val.Kind() {
			case types.KindInt:
				return expr.NewConst(types.NewInt(-c.Val.Int())), nil
			case types.KindFloat:
				return expr.NewConst(types.NewFloat(-c.Val.Float())), nil
			}
		}
		if prm, ok := inner.(*expr.Param); ok && (prm.Kind == types.KindInt || prm.Kind == types.KindFloat) {
			return &expr.Param{Idx: prm.Idx, Kind: prm.Kind, Neg: !prm.Neg}, nil
		}
		return expr.NewBinOp(expr.OpSub, expr.NewConst(types.NewInt(0)), inner), nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer %q", t.text)
		}
		return expr.NewConst(types.NewInt(v)), nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return expr.NewConst(types.NewFloat(v)), nil
	case tokString:
		p.next()
		return expr.NewConst(types.NewString(t.text)), nil
	case tokParam:
		p.next()
		return &expr.Param{Idx: t.pos, Kind: paramKinds[t.text[0]]}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q", t.text)
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return expr.NewConst(types.Null), nil
		case "TRUE":
			p.next()
			return expr.NewConst(types.NewBool(true)), nil
		case "FALSE":
			p.next()
			return expr.NewConst(types.NewBool(false)), nil
		case "CASE":
			return p.parseCase()
		case "EXTRACT":
			return p.parseExtract()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseAggregate()
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf("unexpected token in expression")
	}
}

func (p *parser) parseCase() (expr.Expr, error) {
	p.next() // CASE
	c := &expr.Case{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Then: val})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseExtract handles EXTRACT(FIELD FROM expr), normalizing the field into
// a string-constant first argument.
func (p *parser) parseExtract() (expr.Expr, error) {
	p.next() // EXTRACT
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fieldTok := p.peek()
	if fieldTok.kind != tokIdent && fieldTok.kind != tokKeyword {
		return nil, p.errf("expected a field name in EXTRACT")
	}
	p.next()
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	field := strings.ToUpper(fieldTok.text)
	return &expr.Func{Name: "EXTRACT", Args: []expr.Expr{
		expr.NewConst(types.NewString(field)), arg,
	}}, nil
}

func (p *parser) parseAggregate() (expr.Expr, error) {
	name := p.next().text // already upper-cased keyword
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	agg := &expr.Agg{Name: name}
	if p.acceptSymbol("*") {
		if name != "COUNT" {
			return nil, p.errf("%s(*) is not valid", name)
		}
	} else {
		agg.Distinct = p.acceptKeyword("DISTINCT")
		// DISTINCT may itself wrap a parenthesized expression.
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return agg, nil
}

// parseIdentExpr handles column references (a, t.a) and function calls
// (coalesce(...)).
func (p *parser) parseIdentExpr() (expr.Expr, error) {
	name := p.next().text
	// Function call?
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		f := &expr.Func{Name: strings.ToUpper(name)}
		if !p.acceptSymbol(")") {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, arg)
				if p.acceptSymbol(")") {
					break
				}
				if err := p.expectSymbol(","); err != nil {
					return nil, err
				}
			}
		}
		return f, nil
	}
	// Qualified column?
	if p.peek().kind == tokSymbol && p.peek().text == "." {
		p.next()
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return expr.NewCol(name, col), nil
	}
	return expr.NewCol("", name), nil
}
