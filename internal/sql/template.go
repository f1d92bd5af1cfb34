package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Statement templates: a statement text splits into its shape — the token
// stream with every number and string literal replaced by a placeholder
// tagged with the literal's kind — and the literal values. Texts that differ
// only in their literals share a shape, so the engine parses and plans each
// shape once (ParseTemplate) and binds the values per execution. The shape
// keeps everything that can change a parse or a plan:
//
//   - the literal's kind: 1, 1.0 and '1' give three shapes;
//   - the keywords NULL, TRUE and FALSE, which are not literals here;
//   - the integer after LIMIT, which the parser reads as a count.
//
// A unary minus stays a token; the parser folds it with the placeholder
// after it into one negative parameter, as it folds a negative literal.

// paramMark starts a placeholder in a shape key. The lexer rejects the byte
// in statement text, so a shape key's placeholders cannot collide with
// anything a statement spells.
const paramMark = '$'

// Placeholder kind letters, after paramMark.
var paramKinds = map[byte]types.Kind{'i': types.KindInt, 'f': types.KindFloat, 's': types.KindString}

// Shape appends the shape key of src to key and the values of its literals,
// in text order, to args. It mirrors the lexer's tokenization in one pass
// and allocates only to copy string literals out of src, so a stored value
// never pins the statement text. ok is false when src holds anything the
// lexer would reject or a number the parser could not convert; such text
// must take the plain Parse path, which reports the error.
func Shape(key []byte, args []types.Datum, src string) (_ []byte, _ []types.Datum, ok bool) {
	afterLimit := false
	for i := 0; ; {
		i = skipSpaceAndComments(src, i)
		if i >= len(src) {
			return key, args, true
		}
		if len(key) > 0 {
			key = append(key, ' ')
		}
		start := i
		c := src[i]
		wasLimit := afterLimit
		afterLimit = false
		switch {
		case c == '\'':
			v, end, ok := scanString(src, i)
			if !ok {
				return key, args, false
			}
			key = append(key, paramMark, 's')
			args = append(args, types.NewString(v))
			i = end
		case isDigit(c) || (c == '.' && i+1 < len(src) && isDigit(src[i+1])):
			end, float := scanNumber(src, i)
			i = end
			text := src[start:end]
			if wasLimit && !float {
				key = append(key, text...) // LIMIT's count is part of the shape
				continue
			}
			if float {
				v, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return key, args, false
				}
				key = append(key, paramMark, 'f')
				args = append(args, types.NewFloat(v))
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return key, args, false
				}
				key = append(key, paramMark, 'i')
				args = append(args, types.NewInt(v))
			}
		case isIdentStart(c):
			for i < len(src) && isIdentBody(src[i]) {
				i++
			}
			key = append(key, src[start:i]...)
			afterLimit = strings.EqualFold(src[start:i], "LIMIT")
		default:
			n := symbolLen(src, i)
			if n == 0 {
				return key, args, false
			}
			key = append(key, src[i:i+n]...)
			i += n
		}
	}
}

// ParseTemplate parses a shape key (Shape) into a statement whose literal
// slots are expr.Param leaves, numbered as Shape numbered the values. Only a
// single SELECT, INSERT, UPDATE or DELETE makes a template; anything else is
// an error, and its text belongs on the plain Parse path.
func ParseTemplate(shape string) (Statement, error) {
	toks, err := lexMode(shape, true)
	if err != nil {
		return nil, err
	}
	p := &parser{src: shape, toks: toks}
	for p.acceptSymbol(";") {
	}
	if t := p.peek(); t.kind != tokKeyword || (t.text != "SELECT" && t.text != "INSERT" && t.text != "UPDATE" && t.text != "DELETE") {
		return nil, p.errf("no template for this statement")
	}
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	for p.acceptSymbol(";") {
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: a template holds exactly one statement")
	}
	return s, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpaceAndComments returns the offset of the next token at or after i.
func skipSpaceAndComments(src string, i int) int {
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		default:
			return i
		}
	}
	return i
}

// scanString reads the string literal whose opening quote is at i, with a
// doubled quote escaping a quote, and returns its value (copied out of src)
// and the offset after the closing quote.
func scanString(src string, i int) (string, int, bool) {
	start := i + 1
	escaped := false
	for i = start; i < len(src); i++ {
		if src[i] != '\'' {
			continue
		}
		if i+1 < len(src) && src[i+1] == '\'' {
			escaped = true
			i++
			continue
		}
		body := src[start:i]
		if escaped {
			return strings.ReplaceAll(body, "''", "'"), i + 1, true
		}
		return strings.Clone(body), i + 1, true
	}
	return "", i, false
}

// scanNumber reads the number at i as the lexer does and returns the offset
// after it and whether the lexer calls it a float.
func scanNumber(src string, i int) (int, bool) {
	float := false
	for i < len(src) {
		c := src[i]
		if isDigit(c) {
			i++
			continue
		}
		if c == '.' && !float {
			float = true
			i++
			continue
		}
		if (c == 'e' || c == 'E') && i+1 < len(src) {
			if next := src[i+1]; isDigit(next) || next == '+' || next == '-' {
				float = true
				i += 2
				continue
			}
		}
		break
	}
	return i, float
}

// symbolLen returns the length of the operator or punctuation at i, 0 when
// the lexer would reject the character.
func symbolLen(src string, i int) int {
	if i+1 < len(src) {
		switch src[i : i+2] {
		case "<=", ">=", "<>", "!=", "||":
			return 2
		}
	}
	switch src[i] {
	case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/', '?':
		return 1
	}
	return 0
}
