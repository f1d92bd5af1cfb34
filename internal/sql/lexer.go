package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokInt
	tokFloat
	tokSymbol // punctuation and operators
	tokParam  // a literal slot of a statement template (see Shape)
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased; symbols literal; a tokParam's kind letter
	pos  int    // byte offset, for error messages; a tokParam's literal ordinal
}

// keywords recognized by the lexer. Everything else alphanumeric is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"AS": true, "DISTINCT": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "IS": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CREATE": true, "TABLE": true, "VIEW": true,
	"INDEX": true, "UNIQUE": true, "DROP": true, "ALTER": true, "RENAME": true,
	"TO": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "PRIMARY": true, "KEY": true, "FOREIGN": true,
	"REFERENCES": true, "CHECK": true, "CONSTRAINT": true, "DEFAULT": true,
	"JOIN": true, "INNER": true, "ON": true, "CONFLICT": true, "DO": true,
	"NOTHING": true, "EXPLAIN": true, "EXTRACT": true, "IF": true,
	"EXISTS": true, "USING": true, "HASH": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true,
}

type lexer struct {
	src    string
	pos    int
	toks   []token
	params int // tokParam tokens so far, when lexing a shape key
}

// lex tokenizes the input. SQL comments (-- to end of line) are skipped.
func lex(src string) ([]token, error) { return lexMode(src, false) }

// lexMode is lex; with shape set, it reads a shape key (see Shape), whose
// placeholders become tokParam tokens numbered in order.
func lexMode(src string, shape bool) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber(start)
		case isIdentStart(c):
			l.lexWord(start)
		case shape && c == paramMark && l.pos+1 < len(l.src):
			l.toks = append(l.toks, token{kind: tokParam, text: l.src[l.pos+1 : l.pos+2], pos: l.params})
			l.params++
			l.pos += 2
		default:
			if sym := l.lexSymbol(); sym == "" {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			} else {
				l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) lexString() (string, error) {
	// Opening quote at l.pos; '' escapes a quote.
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("sql: unterminated string literal")
}

func (l *lexer) lexNumber(start int) {
	kind := tokInt
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
			continue
		}
		if c == '.' && kind == tokInt {
			kind = tokFloat
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			if unicode.IsDigit(rune(next)) || next == '+' || next == '-' {
				kind = tokFloat
				l.pos += 2
				continue
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentBody(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && isIdentBody(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
	}
}

// lexSymbol recognizes multi-char operators first.
func (l *lexer) lexSymbol() string {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		return two
	}
	one := l.src[l.pos]
	switch one {
	case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/', '?':
		l.pos++
		return string(one)
	}
	return ""
}
