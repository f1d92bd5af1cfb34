package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

func sampleRecords() []Record {
	return []Record{
		{Type: RecBegin, XID: 1},
		{Type: RecInsert, XID: 1, Table: "customer", TID: storage.TID{Page: 2, Slot: 3},
			Row: types.Row{types.NewInt(7), types.NewString("alice"), types.Null}},
		{Type: RecUpdate, XID: 1, Table: "customer", TID: storage.TID{Page: 2, Slot: 3},
			Row: types.Row{types.NewInt(7), types.NewString("bob"), types.NewFloat(1.5)}},
		{Type: RecDelete, XID: 1, Table: "orders", TID: storage.TID{Page: 9, Slot: 0}},
		{Type: RecMigrated, XID: 1, Table: "split:customer", Key: []byte{0xAA, 0x00, 0xBB}},
		{Type: RecInstall, Table: "split", Key: []byte(`{"hash":"abc"}`)},
		{Type: RecCommit, XID: 1},
		{Type: RecBegin, XID: 2},
		{Type: RecAbort, XID: 2},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := sampleRecords()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}

	var got []Record
	if err := Replay(&buf, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		g := got[i]
		if g.Type != want.Type || g.XID != want.XID || g.Table != want.Table || g.TID != want.TID {
			t.Errorf("record %d: got %+v, want %+v", i, g, want)
		}
		if len(g.Row) != len(want.Row) {
			t.Errorf("record %d row width %d, want %d", i, len(g.Row), len(want.Row))
			continue
		}
		for j := range want.Row {
			if !want.Row[j].IsNull() && !types.Equal(g.Row[j], want.Row[j]) {
				t.Errorf("record %d row[%d] = %v, want %v", i, j, g.Row[j], want.Row[j])
			}
		}
		if !bytes.Equal(g.Key, want.Key) {
			t.Errorf("record %d key = %v, want %v", i, g.Key, want.Key)
		}
	}
}

// TestInstallRecordOldFormatDecodes pins backward compatibility: install
// markers written before the schema version registry carry a bare migration
// name (no metadata payload) and must still decode, with an empty Key.
func TestInstallRecordOldFormatDecodes(t *testing.T) {
	payload := []byte{byte(RecInstall)}
	payload = binary.AppendUvarint(payload, 0) // XID
	payload = binary.AppendUvarint(payload, uint64(len("legacy")))
	payload = append(payload, "legacy"...)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	r := NewReader(bytes.NewReader(append(frame[:], payload...)))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecInstall || rec.Table != "legacy" || len(rec.Key) != 0 {
		t.Errorf("decoded %+v, want bare install marker for \"legacy\"", rec)
	}
}

// legacyRowFrame frames an insert or update record the way logs and
// checkpoints were written before the value codec: the RecInsert/RecUpdate
// code with the row in the order-preserving key encoding.
func legacyRowFrame(rec Record) []byte {
	payload := []byte{byte(rec.Type)}
	payload = binary.AppendUvarint(payload, rec.XID)
	payload = appendString(payload, rec.Table)
	payload = binary.AppendUvarint(payload, uint64(rec.TID.Page))
	payload = binary.AppendUvarint(payload, uint64(rec.TID.Slot))
	row := types.EncodeKey(nil, rec.Row)
	payload = binary.AppendUvarint(payload, uint64(len(row)))
	payload = append(payload, row...)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return append(frame[:], payload...)
}

// TestRowRecordsOldFormatReplay pins backward compatibility of row records:
// a log mixing key-encoded rows (written before the value codec) with
// value-encoded ones replays both to the same records, every datum kind
// included.
func TestRowRecordsOldFormatReplay(t *testing.T) {
	row := types.Row{types.NewInt(-3), types.NewInt(1 << 40), types.NewFloat(-0.25),
		types.NewString("a\x00b"), types.NewBool(true), types.Null,
		types.NewTime(time.Date(2024, 5, 6, 7, 8, 9, 10, time.UTC)), types.NewString("")}
	recs := []Record{
		{Type: RecInsert, XID: 5, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Row: row},
		{Type: RecUpdate, XID: 5, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Row: row[:3]},
	}
	var log bytes.Buffer
	for _, rec := range recs {
		log.Write(legacyRowFrame(rec))
	}
	w := NewWriter(&log)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := Replay(&log, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), 2*len(recs))
	}
	for i, g := range got {
		want := recs[i%len(recs)]
		if g.Type != want.Type || g.XID != want.XID || g.Table != want.Table || g.TID != want.TID {
			t.Errorf("record %d: got %+v, want %+v", i, g, want)
		}
		if len(g.Row) != len(want.Row) {
			t.Fatalf("record %d row width %d, want %d", i, len(g.Row), len(want.Row))
		}
		for j := range want.Row {
			if g.Row[j].Kind() != want.Row[j].Kind() || types.Compare(g.Row[j], want.Row[j]) != 0 {
				t.Errorf("record %d row[%d] = %v, want %v", i, j, g.Row[j], want.Row[j])
			}
		}
	}
}

// TestValueRowsAreSmaller pins the point of the value codec: a TPC-C-like
// row of small integers and short strings costs fewer bytes than in the key
// encoding, and a row over 127 bytes (two-byte length prefix) round-trips.
func TestValueRowsAreSmaller(t *testing.T) {
	row := types.Row{types.NewInt(1), types.NewInt(7), types.NewInt(3001), types.NewString("BARBARBAR"), types.NewFloat(12.5)}
	rec := Record{Type: RecInsert, XID: 9, Table: "order_line", Row: row}
	compact := len(encodeRecord(nil, rec))
	legacy := len(legacyRowFrame(rec)) - 8
	if compact >= legacy*3/4 {
		t.Errorf("value-encoded record is %d bytes, key-encoded %d: want at least a quarter smaller", compact, legacy)
	}
	long := Record{Type: RecUpdate, XID: 9, Table: "t", Row: types.Row{types.NewString(strings.Repeat("x", 300)), types.NewInt(5)}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(long); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != RecUpdate || len(got.Row) != 2 || got.Row[0].Str() != long.Row[0].Str() || got.Row[1].Int() != 5 {
		t.Errorf("long row decoded as %+v", got)
	}
}

func TestTornTailIsEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Type: RecBegin, XID: 1})
	w.Append(Record{Type: RecCommit, XID: 1})
	w.Flush()
	full := buf.Bytes()

	// Truncate at every byte boundary of the second record; replay must
	// surface exactly one record and no error.
	firstLen := 8 + 1 + 1 // header + type + uvarint(1)
	for cut := firstLen + 1; cut < len(full); cut++ {
		var n int
		err := Replay(bytes.NewReader(full[:cut]), func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n != 1 {
			t.Fatalf("cut=%d: replayed %d records, want 1", cut, n)
		}
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Type: RecInsert, XID: 5, Table: "t", Row: types.Row{types.NewInt(1)}})
	w.Flush()
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF // flip a payload byte
	err := Replay(bytes.NewReader(data), func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted payload: err = %v, want ErrCorrupt", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Type: RecBegin, XID: 1})
	w.Flush()
	sentinel := errors.New("stop")
	if err := Replay(&buf, func(Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("callback error not propagated: %v", err)
	}
}

func TestCommittedSet(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Type: RecBegin, XID: 1})
	w.Append(Record{Type: RecCommit, XID: 1})
	w.Append(Record{Type: RecBegin, XID: 2})
	w.Append(Record{Type: RecAbort, XID: 2})
	w.Append(Record{Type: RecBegin, XID: 3}) // in-flight at crash
	w.Flush()
	set, err := CommittedSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !set[1] || set[2] || set[3] {
		t.Errorf("CommittedSet = %v", set)
	}
}

func TestNopLogger(t *testing.T) {
	var l Logger = Nop{}
	if err := l.Append(Record{Type: RecBegin, XID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(xid uint64) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				w.Append(Record{Type: RecInsert, XID: xid, Table: "t",
					TID: storage.TID{Slot: uint32(j)}, Row: types.Row{types.NewInt(int64(j))}})
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	w.Flush()
	n := 0
	if err := Replay(&buf, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Errorf("replayed %d records, want %d", n, workers*per)
	}
}

func TestRecTypeString(t *testing.T) {
	want := map[RecType]string{
		RecBegin: "BEGIN", RecCommit: "COMMIT", RecAbort: "ABORT",
		RecInsert: "INSERT", RecUpdate: "UPDATE", RecDelete: "DELETE",
		RecMigrated: "MIGRATED",
	}
	for rt, s := range want {
		if rt.String() != s {
			t.Errorf("%d.String() = %q, want %q", rt, rt.String(), s)
		}
	}
	if RecType(99).String() != "RecType(99)" {
		t.Error("unknown type formatting")
	}
}

func TestReaderDirectEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty log: %v", err)
	}
}

// TestDeltaUpdateRoundTrip pins the delta update record: the changed column
// ordinals and their values come back as written, an empty delta stays a
// delta (not a full image), and a record without Cols stays a full image.
func TestDeltaUpdateRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecUpdate, XID: 3, Table: "t", TID: storage.TID{Page: 1, Slot: 2},
			Cols: []int{0, 3}, Row: types.Row{types.NewInt(5), types.NewString("x")}},
		{Type: RecUpdate, XID: 3, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Cols: []int{}, Row: types.Row{}},
		{Type: RecUpdate, XID: 3, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Row: types.Row{types.NewInt(1)}},
	}
	var log bytes.Buffer
	w := NewWriter(&log)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := Replay(bytes.NewReader(log.Bytes()), func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if (r.Cols == nil) != (recs[i].Cols == nil) || len(r.Cols) != len(recs[i].Cols) || len(r.Row) != len(recs[i].Row) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, recs[i])
		}
		for j := range r.Cols {
			if r.Cols[j] != recs[i].Cols[j] || !types.Identical(r.Row[j], recs[i].Row[j]) {
				t.Fatalf("record %d: got %+v, want %+v", i, r, recs[i])
			}
		}
	}
	// A delta whose value count disagrees with its columns is corrupt.
	bad := encodeRecord(nil, Record{Type: RecUpdate, XID: 1, Table: "t", Cols: []int{1, 2}, Row: types.Row{types.NewInt(1)}})
	if _, err := decodeRecord(bad, new(string)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched delta decoded with %v, want ErrCorrupt", err)
	}
}

// TestReplayStopsDecodingOnError checks that Replay returns the callback's
// error and that the decoder, which runs ahead, has let go of the reader.
func TestReplayStopsDecodingOnError(t *testing.T) {
	var log bytes.Buffer
	w := NewWriter(&log)
	for i := 0; i < 3*replayBatch; i++ {
		if err := w.Append(Record{Type: RecCommit, XID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	n := 0
	err := Replay(bytes.NewReader(log.Bytes()), func(Record) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 10 {
		t.Fatalf("Replay = %v after %d records, want stop after 10", err, n)
	}
}
