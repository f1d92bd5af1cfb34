package types

import (
	"encoding/binary"
	"math"
)

// Compact value encoding for stored rows (WAL records and checkpoint
// snapshots). Unlike the key encoding it does not preserve order, so it can
// spend fewer bytes: a one-byte kind tag (the key encoding's tags) followed by
//
//	NULL:        nothing
//	INT, TIME:   zigzag varint (1 byte for -64..63, 2 bytes up to ±8191)
//	FLOAT:       8 bytes, IEEE-754 bits little-endian
//	BOOL:        1 byte, 0 or 1
//	TEXT:        uvarint length, then the bytes unescaped
//
// TPC-C rows are mostly small integers and short strings, which take 2 and
// 2+len bytes here against 9 and 3+len in the key encoding.

// EncodeValues appends the compact value encoding of each datum in the row to
// buf and returns the extended buffer.
func EncodeValues(buf []byte, row Row) []byte {
	for _, d := range row {
		buf = AppendValue(buf, d)
	}
	return buf
}

// AppendValue appends the compact value encoding of a single datum.
func AppendValue(buf []byte, d Datum) []byte {
	switch d.kind {
	case KindNull:
		return append(buf, tagNull)
	case KindInt:
		return binary.AppendVarint(append(buf, tagInt), d.i)
	case KindTime:
		return binary.AppendVarint(append(buf, tagTime), d.i)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat), uint64(d.i))
	case KindBool:
		return append(buf, tagBool, byte(d.i))
	case KindString:
		buf = binary.AppendUvarint(append(buf, tagString), uint64(len(d.s)))
		return append(buf, d.s...)
	default:
		panic("types: cannot encode kind " + d.kind.String())
	}
}

// DecodeValue decodes one datum in the compact value encoding from buf,
// returning the datum and the remaining bytes.
func DecodeValue(buf []byte) (Datum, []byte, error) {
	if len(buf) == 0 {
		return Null, nil, ErrCorruptKey
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNull:
		return Null, buf, nil
	case tagInt, tagTime:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Null, nil, ErrCorruptKey
		}
		kind := KindInt
		if tag == tagTime {
			kind = KindTime
		}
		return Datum{kind: kind, i: v}, buf[n:], nil
	case tagFloat:
		if len(buf) < 8 {
			return Null, nil, ErrCorruptKey
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case tagBool:
		if len(buf) < 1 || buf[0] > 1 {
			return Null, nil, ErrCorruptKey
		}
		return NewBool(buf[0] == 1), buf[1:], nil
	case tagString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || l > uint64(len(buf)-n) {
			return Null, nil, ErrCorruptKey
		}
		end := n + int(l)
		return NewString(string(buf[n:end])), buf[end:], nil
	default:
		return Null, nil, ErrCorruptKey
	}
}

// DecodeValues decodes all datums of a compact value encoding from buf.
func DecodeValues(buf []byte) (Row, error) {
	return decodeRow(buf, DecodeValue)
}
