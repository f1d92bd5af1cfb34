package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Order-preserving ("memcomparable") key encoding. For any two rows a and b
// whose corresponding datums have the same kind (or are NULL),
// bytes.Compare(EncodeKey(nil,a), EncodeKey(nil,b)) matches lexicographic
// Compare of the rows. Index key columns always hold a single declared kind,
// so this is exactly the contract B+tree and hash indexes need. The encoding
// is unambiguous and round-trips exactly, so it doubles as the canonical
// serialized row format for hash-table group keys. (Stored rows in the WAL
// use the shorter, unordered value encoding in value.go; logs written before
// it carry this one.)
//
// Layout per datum: a one-byte kind tag followed by a kind-specific payload.
// NULL's tag is smallest so NULL sorts first, as in Compare.

const (
	tagNull   byte = 0x01
	tagInt    byte = 0x02
	tagFloat  byte = 0x03
	tagBool   byte = 0x04
	tagTime   byte = 0x05
	tagString byte = 0x06
)

// EncodeKey appends the order-preserving encoding of each datum in the row to
// buf and returns the extended buffer.
func EncodeKey(buf []byte, row Row) []byte {
	for _, d := range row {
		buf = EncodeDatum(buf, d)
	}
	return buf
}

// EncodeDatum appends the order-preserving encoding of a single datum.
func EncodeDatum(buf []byte, d Datum) []byte {
	switch d.kind {
	case KindNull:
		return append(buf, tagNull)
	case KindInt:
		buf = append(buf, tagInt)
		return appendOrderedInt(buf, d.i)
	case KindFloat:
		buf = append(buf, tagFloat)
		return appendOrderedFloat(buf, d.float())
	case KindBool:
		buf = append(buf, tagBool)
		return append(buf, byte(d.i))
	case KindTime:
		buf = append(buf, tagTime)
		return appendOrderedInt(buf, d.i)
	case KindString:
		buf = append(buf, tagString)
		return appendEscapedString(buf, d.s)
	default:
		panic(fmt.Sprintf("types: cannot encode kind %v", d.kind))
	}
}

// appendOrderedInt encodes an int64 so unsigned byte comparison matches
// signed integer comparison (flip the sign bit, big-endian).
func appendOrderedInt(buf []byte, v int64) []byte {
	u := uint64(v) ^ (1 << 63)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(buf, b[:]...)
}

// appendOrderedFloat encodes a float64 so byte comparison matches numeric
// comparison: positive floats flip the sign bit, negative floats flip all
// bits. NaN is normalized to the largest encoding.
func appendOrderedFloat(buf []byte, f float64) []byte {
	u := math.Float64bits(f)
	if math.IsNaN(f) {
		u = math.MaxUint64
	} else if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(buf, b[:]...)
}

// appendEscapedString writes the string with 0x00 bytes escaped as 0x00 0xFF
// and a 0x00 0x01 terminator, preserving prefix ordering across adjacent
// keys.
func appendEscapedString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00, 0x01)
}

// ErrCorruptKey is returned when decoding malformed key bytes.
var ErrCorruptKey = errors.New("types: corrupt key encoding")

// DecodeDatum decodes one datum from buf, returning the datum and the
// remaining bytes.
func DecodeDatum(buf []byte) (Datum, []byte, error) {
	if len(buf) == 0 {
		return Null, nil, ErrCorruptKey
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNull:
		return Null, buf, nil
	case tagInt:
		if len(buf) < 8 {
			return Null, nil, ErrCorruptKey
		}
		v := int64(binary.BigEndian.Uint64(buf[:8]) ^ (1 << 63))
		return NewInt(v), buf[8:], nil
	case tagFloat:
		if len(buf) < 8 {
			return Null, nil, ErrCorruptKey
		}
		u := binary.BigEndian.Uint64(buf[:8])
		if u&(1<<63) != 0 {
			u &^= 1 << 63
		} else {
			u = ^u
		}
		return NewFloat(math.Float64frombits(u)), buf[8:], nil
	case tagBool:
		if len(buf) < 1 {
			return Null, nil, ErrCorruptKey
		}
		return NewBool(buf[0] != 0), buf[1:], nil
	case tagTime:
		if len(buf) < 8 {
			return Null, nil, ErrCorruptKey
		}
		nanos := int64(binary.BigEndian.Uint64(buf[:8]) ^ (1 << 63))
		return Datum{kind: KindTime, i: nanos}, buf[8:], nil
	case tagString:
		var out []byte
		for i := 0; i < len(buf); i++ {
			if buf[i] != 0x00 {
				out = append(out, buf[i])
				continue
			}
			if i+1 >= len(buf) {
				return Null, nil, ErrCorruptKey
			}
			switch buf[i+1] {
			case 0xFF:
				out = append(out, 0x00)
				i++
			case 0x01:
				return NewString(string(out)), buf[i+2:], nil
			default:
				return Null, nil, ErrCorruptKey
			}
		}
		return Null, nil, ErrCorruptKey
	default:
		return Null, nil, ErrCorruptKey
	}
}

// DecodeKey decodes all datums from buf.
func DecodeKey(buf []byte) (Row, error) {
	return decodeRow(buf, DecodeDatum)
}

// decodeRow decodes datums until buf is empty. Rows of up to 32 columns are
// gathered in a stack scratch array and copied out once at their exact size,
// so a decode allocates one row instead of growing it by append.
func decodeRow(buf []byte, next func([]byte) (Datum, []byte, error)) (Row, error) {
	var scratch [32]Datum
	row := scratch[:0]
	for len(buf) > 0 {
		d, rest, err := next(buf)
		if err != nil {
			return nil, err
		}
		row = append(row, d)
		buf = rest
	}
	if len(row) == 0 {
		return nil, nil
	}
	return append(make(Row, 0, len(row)), row...), nil
}
