// Package types defines the value model shared by every layer of the
// database: datums (typed scalar values), rows, comparison and hashing, and
// an order-preserving binary key encoding used by indexes and the WAL.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types the engine supports. The set matches what
// the paper's TPC-C schema and migration DDL need: integers, decimals
// (represented as float64), fixed/variable strings, booleans, timestamps and
// dates, plus SQL NULL.
type Kind uint8

// The supported datum kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // timestamp or date, stored as UTC nanoseconds
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Datum is a single scalar value. It is a small value type (no pointers
// except the string header) so rows can be copied cheaply and stored
// compactly in heap pages.
//
// A float keeps its IEEE-754 bits in i, so a datum is 32 bytes: the kind
// goes last, where it shares the final word's padding.
type Datum struct {
	i    int64 // int, bool (0/1), time (unix nanos), float (math.Float64bits)
	s    string
	kind Kind
}

// Null is the SQL NULL datum.
var Null = Datum{kind: KindNull}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, i: i}
}

// NewTime returns a timestamp datum. The time is normalized to UTC with
// nanosecond precision.
func NewTime(t time.Time) Datum { return Datum{kind: KindTime, i: t.UTC().UnixNano()} }

// float decodes a KindFloat datum's value from its stored bits.
func (d Datum) float() float64 { return math.Float64frombits(uint64(d.i)) }

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer value. It panics if the datum is not an integer.
func (d Datum) Int() int64 {
	if d.kind != KindInt {
		panic("types: Int() on " + d.kind.String())
	}
	return d.i
}

// Float returns the float value, widening integers. It panics for other
// kinds.
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return d.float()
	case KindInt:
		return float64(d.i)
	}
	panic("types: Float() on " + d.kind.String())
}

// Str returns the string value. It panics if the datum is not a string.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic("types: Str() on " + d.kind.String())
	}
	return d.s
}

// Bool returns the boolean value. It panics if the datum is not a boolean.
func (d Datum) Bool() bool {
	if d.kind != KindBool {
		panic("types: Bool() on " + d.kind.String())
	}
	return d.i != 0
}

// Time returns the timestamp value. It panics if the datum is not a time.
func (d Datum) Time() time.Time {
	if d.kind != KindTime {
		panic("types: Time() on " + d.kind.String())
	}
	return time.Unix(0, d.i).UTC()
}

// String renders the datum for display and EXPLAIN output.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		f := d.float()
		if f == 0 {
			return "0" // never "-0", which re-parses as an integer literal
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		// '' escaping keeps the printed literal re-parseable by the SQL lexer.
		return "'" + strings.ReplaceAll(d.s, "'", "''") + "'"
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return "'" + d.Time().Format("2006-01-02 15:04:05.999999999") + "'"
	default:
		return "<?>"
	}
}

// Row is a tuple of datums in table column order.
type Row []Datum

// Clone returns a deep copy of the row. Datums are values, so a slice copy
// suffices.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	s := "("
	for i, d := range r {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	return s + ")"
}
