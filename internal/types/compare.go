package types

import (
	"hash/maphash"
	"math"
	"strings"
)

// Compare orders two datums. NULL sorts before every non-NULL value (the
// PostgreSQL NULLS FIRST convention for ascending keys). Integers and floats
// compare numerically across kinds; all other cross-kind comparisons order by
// kind, which gives a stable total order for index keys.
func Compare(a, b Datum) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	// Numeric cross-kind comparison.
	if (a.kind == KindInt || a.kind == KindFloat) && (b.kind == KindInt || b.kind == KindFloat) {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i)
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		return cmpInt(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool, KindTime, KindInt:
		return cmpInt(a.i, b.i)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two datums compare equal. Note this is comparison
// equality (1 == 1.0), not representational identity, matching SQL `=`
// semantics for the engine's internal use. SQL three-valued NULL logic is handled
// by the expression evaluator, not here.
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

// Identical reports whether two datums have the same kind and value, and so
// the same key encoding: unlike Equal, 1 and 1.0 differ, as do 0.0 and -0.0,
// while NaNs, which the key encoding normalizes, are identical.
func Identical(a, b Datum) bool {
	if a == b {
		return true
	}
	return a.kind == KindFloat && b.kind == KindFloat && math.IsNaN(a.float()) && math.IsNaN(b.float())
}

var hashSeed = maphash.MakeSeed()

// Hash returns a hash of the datum, consistent with Equal: datums that
// compare equal hash identically (floats with integral values hash as their
// integer counterpart).
func Hash(d Datum) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch d.kind {
	case KindNull:
		h.WriteByte(0)
	case KindInt:
		h.WriteByte(1)
		writeUint64(&h, uint64(d.i))
	case KindFloat:
		f := d.float()
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			h.WriteByte(1) // hash like the equal integer
			writeUint64(&h, uint64(int64(f)))
		} else {
			h.WriteByte(2)
			writeUint64(&h, math.Float64bits(f))
		}
	case KindString:
		h.WriteByte(3)
		h.WriteString(d.s)
	case KindBool:
		h.WriteByte(4)
		h.WriteByte(byte(d.i))
	case KindTime:
		h.WriteByte(5)
		writeUint64(&h, uint64(d.i))
	}
	return h.Sum64()
}

// HashRow hashes a row (e.g. a group key) consistently with element-wise
// Equal.
func HashRow(r Row) uint64 {
	var acc uint64 = 1469598103934665603
	for _, d := range r {
		acc = (acc ^ Hash(d)) * 1099511628211
	}
	return acc
}

func writeUint64(h *maphash.Hash, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}
