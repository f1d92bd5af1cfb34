package engine

import (
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/sql"
	"github.com/bullfrogdb/bullfrog/internal/txn"
)

// ExplainPlan renders a plan tree in an indented, PostgreSQL-flavored form —
// the same output BullFrog inspects to extract filters pushed onto base
// tables after view expansion (paper §2.1).
func ExplainPlan(p *Plan) string {
	var sb strings.Builder
	explainNode(&sb, p.root, 0)
	return strings.TrimRight(sb.String(), "\n")
}

func explainNode(sb *strings.Builder, n planNode, depth int) {
	indent := strings.Repeat("  ", depth)
	desc := n.describe()
	for i, line := range strings.Split(desc, "\n") {
		prefix := indent
		if i == 0 && depth > 0 {
			prefix = indent[:len(indent)-2] + "->"
		}
		sb.WriteString(prefix)
		sb.WriteString(strings.TrimPrefix(line, "  "))
		if i > 0 {
			// keep sub-lines (Filter: ...) aligned under the node
			_ = line
		}
		sb.WriteString("\n")
	}
	for _, c := range n.children() {
		explainNode(sb, c, depth+1)
	}
}

func (db *DB) execExplain(tx *txn.Txn, s *sql.ExplainStmt) (*Result, error) {
	switch inner := s.Inner.(type) {
	case *sql.SelectStmt:
		p, err := db.buildSelectPlan(db.cat.Head(), inner, "", nil)
		if err != nil {
			return nil, err
		}
		text := ExplainPlan(p)
		return &Result{Columns: []string{"QUERY PLAN"}, Explain: text}, nil
	default:
		return nil, errUnexplainable
	}
}

var errUnexplainable = errorString("engine: only SELECT statements can be explained")

type errorString string

func (e errorString) Error() string { return string(e) }
