package wal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// fuzzSeedStream builds a valid multi-record log covering every record type
// the encoder supports.
func fuzzSeedStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{Type: RecBegin, XID: 1},
		{Type: RecInsert, XID: 1, Table: "t", TID: storage.TID{Page: 1, Slot: 2},
			Row: []types.Datum{types.NewInt(7), types.NewString("x")}},
		{Type: RecInsert, XID: 1, Table: "t", TID: storage.TID{Page: 3, Slot: 4},
			Row: []types.Datum{types.NewInt(-1 << 40), types.NewFloat(-0.5), types.NewBool(true),
				types.Null, types.NewString(strings.Repeat("y", 200))}},
		{Type: RecUpdate, XID: 1, Table: "t", TID: storage.TID{Page: 1, Slot: 2},
			Row: []types.Datum{types.NewInt(8)}},
		{Type: RecUpdate, XID: 1, Table: "t", TID: storage.TID{Page: 3, Slot: 4},
			Cols: []int{1, 4}, Row: []types.Datum{types.NewFloat(9.5), types.NewString("z")}},
		{Type: RecUpdate, XID: 1, Table: "t", TID: storage.TID{Page: 3, Slot: 4}, Cols: []int{}},
		{Type: RecDelete, XID: 1, Table: "t", TID: storage.TID{Page: 1, Slot: 2}},
		{Type: RecMigrated, XID: 1, Table: "split:t", Key: []byte{0, 1, 2}},
		{Type: RecInstall, Table: "v2"},
		{Type: RecCheckpoint, Key: CheckpointMeta{FirstSeg: 3, Watermark: 42}.encode(nil)},
		{Type: RecCommit, XID: 1},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzLegacySeed is a log of key-encoded row records, as written before the
// value codec, so the fuzzer mutates the legacy decoder's input too.
func fuzzLegacySeed() []byte {
	row := types.Row{types.NewInt(7), types.NewString("x"), types.NewFloat(2.5), types.Null}
	out := legacyRowFrame(Record{Type: RecInsert, XID: 1, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Row: row})
	return append(out, legacyRowFrame(Record{Type: RecUpdate, XID: 1, Table: "t", TID: storage.TID{Page: 1, Slot: 2}, Row: row[:2]})...)
}

// FuzzWALReplay feeds arbitrary byte streams to Replay. Invariants:
//   - Replay never panics and always terminates.
//   - The error is exactly nil or ErrCorrupt (a torn tail is a clean stop).
//   - Any truncation of a VALID stream replays cleanly: the cut record is a
//     torn tail, never an error — this is what crash recovery relies on.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSeedStream(f)
	f.Add(valid, 0)
	f.Add(valid, len(valid)/2)
	f.Add(fuzzLegacySeed(), 0)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, 1)
	f.Add(fuzzDeltaSeed(f), 3)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		// Arbitrary bytes: must terminate with nil or ErrCorrupt.
		if err := Replay(bytes.NewReader(data), func(Record) error { return nil }); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay(arbitrary) = %v, want nil or ErrCorrupt", err)
		}
		// Truncated valid stream: every prefix replays without error, and the
		// surviving records are a prefix of the full stream.
		if cut < 0 {
			cut = -cut
		}
		cut %= len(valid) + 1
		var n int
		err := Replay(bytes.NewReader(valid[:cut]), func(Record) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("Replay(valid[:%d]) = %v, want nil (torn tail)", cut, err)
		}
		var full int
		if err := Replay(bytes.NewReader(valid), func(Record) error { full++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n > full {
			t.Fatalf("prefix replayed %d records, full stream only %d", n, full)
		}
	})
}

// fuzzDeltaSeed is a log of update records that carry only their changed
// columns.
func fuzzDeltaSeed(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, cols := range [][]int{{0}, {2, 5, 300}, {}} {
		row := make(types.Row, len(cols))
		for j := range row {
			row[j] = types.NewInt(int64(i*10 + j))
		}
		if err := w.Append(Record{Type: RecUpdate, XID: 2, Table: "d", TID: storage.TID{Page: 9, Slot: uint32(i)}, Cols: cols, Row: row}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
