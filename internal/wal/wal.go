// Package wal implements a binary redo log. Every committed data mutation
// (insert / update / delete) and every migration-status transition is logged
// so that, after a crash, both table contents and BullFrog's migration
// tracking state can be rebuilt by replay.
//
// The paper (§3.5) notes that BullFrog's status-tracking structures live in
// volatile memory and must be re-derived from the REDO log during recovery —
// a feature the authors had "yet to implement". This package implements it:
// RecMigrated records are emitted when a migration transaction commits, and
// Replay hands them back so trackers can be restored to [0 1] / migrated.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/obs"
	"github.com/bullfrogdb/bullfrog/internal/obs/trace"
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// RecType identifies a log record's kind.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecUpdate
	RecDelete
	RecMigrated   // a migration granule (tuple ordinal or group key) completed
	RecInstall    // a catalog version install (migration big flip) was published
	RecCheckpoint // a checkpoint completed; Key carries its CheckpointMeta
)

// Wire codes of insert and update records whose row is in the compact value
// encoding (types.EncodeValues). The encoder writes only these for row
// records; the decoder maps them back to RecInsert/RecUpdate. The codes
// RecInsert and RecUpdate themselves still decode a row in the key encoding,
// which is what logs and checkpoints written before the value codec hold, so
// those replay unchanged.
const (
	wireInsertValues byte = 0x10
	wireUpdateValues byte = 0x11
	// wireUpdateDelta is an update record that carries only the changed
	// columns: their ordinals, then their values in the value encoding.
	// Replay patches the tuple's head row with them.
	wireUpdateDelta byte = 0x12
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecMigrated:
		return "MIGRATED"
	case RecInstall:
		return "INSTALL"
	case RecCheckpoint:
		return "CHECKPOINT"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one log entry. Field use by type:
//
//	RecBegin/RecCommit/RecAbort: XID only
//	RecInsert/RecUpdate:         XID, Table, TID, Row (the new image)
//	RecUpdate with Cols:         XID, Table, TID, Cols (the changed column
//	                             ordinals, ascending) and Row (their new
//	                             values, one per ordinal): a delta on the
//	                             tuple's previous image
//	RecDelete:                   XID, Table, TID
//	RecMigrated:                 XID, Table (tracker name), Key (granule key)
//	RecInstall:                  Table (migration name), Key (schema version
//	                             metadata; optional, absent in old logs); XID
//	                             unused (0)
//	RecCheckpoint:               Key (encoded CheckpointMeta); XID unused (0)
type Record struct {
	Type  RecType
	XID   uint64
	Table string
	TID   storage.TID
	Row   types.Row
	Cols  []int
	Key   []byte
}

// Logger is the interface the engine writes through. Nop discards.
type Logger interface {
	Append(rec Record) error
	// Flush forces buffered records to the underlying writer and, when the
	// writer knows its device (see Syncer), all the way to durable media.
	Flush() error
}

// Syncer is the durable-media half of a log target: os.File implements it.
// A Writer whose target implements Syncer makes flushed records durable with
// a real device sync; without one, "durable" means flushed.
type Syncer interface {
	Sync() error
}

// BatchLogger appends a group of records atomically (one buffer-lock hold,
// no interleaving with other appenders) and returns once every record in the
// batch is durable. The engine commits through this: a transaction's redo
// records plus its RecCommit form one contiguous batch, so a log written
// this way never contains records of uncommitted transactions.
type BatchLogger interface {
	AppendBatch(recs []Record) error
}

// SpanBatchLogger is a BatchLogger that can attribute an AppendBatch's
// buffer-append, group-commit wait, and fsync time onto a trace span
// (*Writer and *Dir implement it).
type SpanBatchLogger interface {
	AppendBatchSpan(recs []Record, sp *trace.Span) error
}

// CommitFencer lets a checkpointer fence the commit pipeline. A committer
// calls EnterCommit before appending its batch and invokes the release only
// after the transaction is visible; BeginCheckpoint blocks new entrants and
// drains the in-flight window, so a segment rotation cleanly separates
// transactions that are fully committed from ones that have not started.
type CommitFencer interface {
	EnterCommit() (release func())
}

// GroupCommit tunes the leader/follower flush protocol.
type GroupCommit struct {
	// MaxDelay is how long a flush leader waits for more committers to pile
	// up before syncing, when fewer than MaxBatch records are pending.
	// 0 syncs immediately (latency-optimal; batching still happens naturally
	// while a sync is in progress).
	MaxDelay time.Duration
	// MaxBatch is the pending-record count at which the leader skips the
	// MaxDelay wait (0 = 64).
	MaxBatch int
}

func (g GroupCommit) maxBatch() int64 {
	if g.MaxBatch <= 0 {
		return 64
	}
	return int64(g.MaxBatch)
}

// Nop is a Logger that discards all records (logging disabled).
type Nop struct{}

// Append discards the record.
func (Nop) Append(Record) error { return nil }

// Flush does nothing.
func (Nop) Flush() error { return nil }

// Writer appends records to an io.Writer with buffering. Safe for concurrent
// use.
//
// Durability is published as an epoch: the number of records appended. A
// committer appends its batch under the buffer lock, reads the resulting
// epoch, and waits until the durable epoch covers it. The wait elects a
// flush leader (one CAS): the leader flushes and syncs once for every record
// appended so far — amortizing the device sync across all concurrent
// committers — publishes the new durable epoch, and wakes the followers
// parked on the current generation channel.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte
	n   int64           // records appended (the epoch counter)
	b   int64           // bytes appended
	met *obs.WALMetrics // nil = no instrumentation

	sync Syncer // device sync target; nil = flush-only durability
	gc   GroupCommit
	tr   *trace.Tracer // group-sync ring events; nil = no tracing

	durable atomic.Int64                  // highest epoch known durable
	leading atomic.Bool                   // flush-leader election token
	gen     atomic.Pointer[chan struct{}] // followers park here; closed per leader round
	failed  atomic.Pointer[error]         // sticky device failure
}

// NewWriter wraps w in a WAL writer. If w implements Syncer (os.File does),
// durability includes a device sync; otherwise it means flushed to w.
func NewWriter(w io.Writer) *Writer {
	wr := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if s, ok := w.(Syncer); ok {
		wr.sync = s
	}
	ch := make(chan struct{})
	wr.gen.Store(&ch)
	return wr
}

// SetGroupCommit installs group-commit tuning. Call before concurrent use.
func (w *Writer) SetGroupCommit(gc GroupCommit) {
	w.mu.Lock()
	w.gc = gc
	w.mu.Unlock()
}

// SetSyncer overrides the device-sync target (nil disables the sync step).
// Call before concurrent use.
func (w *Writer) SetSyncer(s Syncer) {
	w.mu.Lock()
	w.sync = s
	w.mu.Unlock()
}

// SetObs attaches WAL metrics (records, exact encoded bytes, flush and sync
// latency, group batch sizes). Call before concurrent use.
func (w *Writer) SetObs(m *obs.WALMetrics) {
	w.mu.Lock()
	w.met = m
	w.mu.Unlock()
}

// SetTracer attaches a tracer: every flush-leader round records a group_sync
// ring event (batch size, dwell, fsync time). Call before concurrent use.
func (w *Writer) SetTracer(tr *trace.Tracer) {
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
}

func (w *Writer) err() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *Writer) fail(err error) error {
	e := fmt.Errorf("wal: log device failed: %w", err)
	w.failed.CompareAndSwap(nil, &e)
	return w.err()
}

// Append encodes and buffers one record. The record is not durable until the
// next Flush or group-commit sync.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(rec)
}

func (w *Writer) appendLocked(rec Record) error {
	if err := w.err(); err != nil {
		return err
	}
	w.buf = encodeRecord(w.buf[:0], rec)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(w.buf)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(w.buf))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return w.fail(err)
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return w.fail(err)
	}
	w.n++
	w.b += int64(len(hdr) + len(w.buf))
	if w.met != nil {
		w.met.Records.Inc()
		w.met.Bytes.Add(int64(len(hdr) + len(w.buf)))
	}
	return nil
}

// AppendBatch appends recs as one contiguous run under a single buffer-lock
// hold and returns once every record in the batch is durable, electing or
// following a flush leader (see the Writer doc).
func (w *Writer) AppendBatch(recs []Record) error {
	return w.AppendBatchSpan(recs, nil)
}

// AppendBatchSpan is AppendBatch attributing its time onto sp when non-nil:
// the buffer append as wal_append, the committer's own fsync rounds as
// fsync, and the rest of the durable wait (dwell + parked follower time) as
// group_commit_wait. A nil sp costs one nil check.
func (w *Writer) AppendBatchSpan(recs []Record, sp *trace.Span) error {
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	w.mu.Lock()
	for _, rec := range recs {
		if err := w.appendLocked(rec); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	epoch := w.n
	w.mu.Unlock()
	if sp == nil {
		return w.waitDurable(epoch)
	}
	sp.AddSince(trace.PhaseWALAppend, start)
	waitStart := time.Now()
	fsync, err := w.waitDurableTimed(epoch)
	sp.Add(trace.PhaseFsync, fsync)
	sp.Add(trace.PhaseGroupWait, time.Since(waitStart)-fsync)
	return err
}

// waitDurable blocks until the durable epoch covers epoch, doing leader duty
// when the election CAS is won. No mutex is held at any blocking point.
func (w *Writer) waitDurable(epoch int64) error {
	_, err := w.waitDurableTimed(epoch)
	return err
}

// waitDurableTimed is waitDurable reporting how much of the wait this
// goroutine spent inside device syncs as the flush leader — the part of a
// committer's durable wait that is fsync rather than batching dwell or
// follower parking.
func (w *Writer) waitDurableTimed(epoch int64) (fsync time.Duration, err error) {
	for {
		if err := w.err(); err != nil {
			return fsync, err
		}
		if w.durable.Load() >= epoch {
			return fsync, nil
		}
		if w.leading.CompareAndSwap(false, true) {
			fsync += w.leadSync()
			w.releaseLeader()
			continue
		}
		ch := w.gen.Load()
		// Park only while a leader is active: its release closes the current
		// generation, and the durable re-check after capturing the channel
		// covers a leader that published between our first check and here. If
		// no one holds the token, loop and win the election ourselves.
		if w.durable.Load() >= epoch || w.err() != nil || !w.leading.Load() {
			continue
		}
		<-*ch
	}
}

// leadSync is one leader round: optionally dwell for more committers, then
// flush under the buffer lock and sync with no lock held, then publish the
// durable epoch. Must be called holding the leadership token. Returns the
// time spent in the device sync (0 when there is no Syncer).
func (w *Writer) leadSync() time.Duration {
	var dwell time.Duration
	if d := w.gc.MaxDelay; d > 0 {
		w.mu.Lock()
		pending := w.n - w.durable.Load()
		w.mu.Unlock()
		if pending < w.gc.maxBatch() {
			time.Sleep(d)
			dwell = d
		}
	}
	w.mu.Lock()
	target := w.n
	start := time.Now()
	err := w.bw.Flush()
	w.mu.Unlock()
	if w.met != nil {
		w.met.FlushLatency.ObserveSince(start)
	}
	if err != nil {
		_ = w.fail(err)
		return 0
	}
	var syncDur time.Duration
	if s := w.sync; s != nil {
		start = time.Now()
		err = s.Sync()
		syncDur = time.Since(start)
		if w.met != nil {
			w.met.SyncLatency.Observe(int64(syncDur))
			w.met.Syncs.Inc()
		}
		if err != nil {
			_ = w.fail(err)
			return syncDur
		}
	}
	prev := w.durable.Load()
	w.advanceDurable(target)
	if w.tr != nil && target > prev {
		w.tr.Event(trace.EvGroupSync, 0, target-prev,
			fmt.Sprintf("dwell=%s fsync=%s", dwell, syncDur))
	}
	return syncDur
}

// advanceDurable publishes epoch as durable (monotone) and records the group
// size. Must be called holding the leadership token.
func (w *Writer) advanceDurable(epoch int64) {
	prev := w.durable.Load()
	if epoch <= prev {
		return
	}
	if w.met != nil {
		w.met.GroupBatchSize.Observe(epoch - prev)
	}
	w.durable.Store(epoch)
}

// acquireLeader spins until it wins the flush-leader token. Used by segment
// rotation, which must exclude concurrent leader syncs; the spin is bounded
// by one leader round (flush + sync + optional MaxDelay dwell).
func (w *Writer) acquireLeader() {
	for !w.leading.CompareAndSwap(false, true) {
		time.Sleep(10 * time.Microsecond)
	}
}

// releaseLeader drops the token and wakes parked followers by closing the
// current generation channel.
func (w *Writer) releaseLeader() {
	w.leading.Store(false)
	ch := make(chan struct{})
	old := w.gen.Swap(&ch)
	close(*old)
}

// swapTarget flushes the buffered tail to the current target and retargets
// the writer at nw with syncer ns. It returns the epoch and byte count the
// old target now holds; the caller is responsible for syncing the old target
// before treating that epoch as durable. Must be called holding the
// leadership token (see acquireLeader) so no concurrent leader publishes an
// epoch that spans the swap.
func (w *Writer) swapTarget(nw io.Writer, ns Syncer) (epoch, bytes int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return 0, 0, w.fail(err)
	}
	w.bw.Reset(nw)
	w.sync = ns
	return w.n, w.b, nil
}

// Flush forces buffered records to the underlying writer and, when a Syncer
// is attached, to durable media. The buffered-writer drain is timed as
// wal.flush_latency; the device sync as wal.sync_latency.
func (w *Writer) Flush() error {
	w.mu.Lock()
	start := time.Now()
	err := w.bw.Flush()
	s := w.sync
	w.mu.Unlock()
	if w.met != nil {
		w.met.FlushLatency.ObserveSince(start)
	}
	if err != nil {
		return w.fail(err)
	}
	if s != nil {
		start = time.Now()
		err = s.Sync()
		if w.met != nil {
			w.met.SyncLatency.ObserveSince(start)
			w.met.Syncs.Inc()
		}
		if err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// Instrument attaches metrics to a logger: a *Writer or *Dir records in
// place (exact byte counts), Nop stays uninstrumented, and anything else is
// wrapped so records and flush latency are still counted (bytes are unknown
// and stay 0).
func Instrument(l Logger, m *obs.WALMetrics) Logger {
	switch t := l.(type) {
	case nil:
		return l
	case Nop:
		return l
	case *Writer:
		t.SetObs(m)
		return l
	case *Dir:
		t.SetObs(m)
		return l
	default:
		return &instrumented{l: l, met: m}
	}
}

type instrumented struct {
	l   Logger
	met *obs.WALMetrics
}

func (w *instrumented) Append(rec Record) error {
	err := w.l.Append(rec)
	if err == nil {
		w.met.Records.Inc()
	}
	return err
}

// Flush times the wrapped flush as flush latency; whether the wrapped logger
// reaches a device is unknown, so no sync is recorded.
func (w *instrumented) Flush() error {
	start := time.Now()
	err := w.l.Flush()
	w.met.FlushLatency.ObserveSince(start)
	return err
}

// Count returns the number of records appended.
func (w *Writer) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Bytes returns the encoded bytes appended (headers included).
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b
}

func encodeRecord(buf []byte, rec Record) []byte {
	switch {
	case rec.Type == RecInsert:
		buf = append(buf, wireInsertValues)
	case rec.Type == RecUpdate && rec.Cols != nil:
		buf = append(buf, wireUpdateDelta)
	case rec.Type == RecUpdate:
		buf = append(buf, wireUpdateValues)
	default:
		buf = append(buf, byte(rec.Type))
	}
	buf = binary.AppendUvarint(buf, rec.XID)
	switch rec.Type {
	case RecBegin, RecCommit, RecAbort:
		return buf
	case RecInsert, RecUpdate:
		buf = appendString(buf, rec.Table)
		buf = binary.AppendUvarint(buf, uint64(rec.TID.Page))
		buf = binary.AppendUvarint(buf, uint64(rec.TID.Slot))
		if rec.Cols != nil {
			buf = binary.AppendUvarint(buf, uint64(len(rec.Cols)))
			for _, ord := range rec.Cols {
				buf = binary.AppendUvarint(buf, uint64(ord))
			}
		}
		rowBytes := types.EncodeValues(nil, rec.Row)
		buf = binary.AppendUvarint(buf, uint64(len(rowBytes)))
		return append(buf, rowBytes...)
	case RecDelete:
		buf = appendString(buf, rec.Table)
		buf = binary.AppendUvarint(buf, uint64(rec.TID.Page))
		return binary.AppendUvarint(buf, uint64(rec.TID.Slot))
	case RecMigrated, RecCheckpoint:
		buf = appendString(buf, rec.Table)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
		return append(buf, rec.Key...)
	case RecInstall:
		buf = appendString(buf, rec.Table)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
		return append(buf, rec.Key...)
	default:
		panic(fmt.Sprintf("wal: cannot encode record type %d", rec.Type))
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ErrCorrupt reports a malformed or checksum-failing log.
var ErrCorrupt = errors.New("wal: corrupt log")

// Reader decodes records from an io.Reader. The payload scratch buffer is
// reused across Next calls — decodeRecord copies every field it keeps
// (strings, keys, row datums), so returned Records never alias it.
type Reader struct {
	br      *bufio.Reader
	scratch []byte
	table   string // the previous record's table name, reused while it repeats
}

// NewReader wraps r in a WAL reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record, or io.EOF at the end. A truncated trailing
// record (torn write) is reported as io.EOF, matching standard redo-log
// recovery semantics; a checksum mismatch is ErrCorrupt.
func (r *Reader) Next() (Record, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if size > 1<<28 {
		return Record{}, ErrCorrupt
	}
	if uint32(cap(r.scratch)) < size {
		r.scratch = make([]byte, size)
	}
	payload := r.scratch[:size]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return Record{}, io.EOF // torn tail
		}
		return Record{}, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, ErrCorrupt
	}
	return decodeRecord(payload, &r.table)
}

// decodeRecord decodes one payload. table holds the table name of the
// previous record: a record naming the same table shares the string instead
// of allocating its own.
func decodeRecord(buf []byte, table *string) (Record, error) {
	if len(buf) == 0 {
		return Record{}, ErrCorrupt
	}
	rec := Record{Type: RecType(buf[0])}
	decodeRow := types.DecodeKey // legacy RecInsert/RecUpdate codes
	delta := false
	switch buf[0] {
	case wireInsertValues:
		rec.Type, decodeRow = RecInsert, types.DecodeValues
	case wireUpdateValues:
		rec.Type, decodeRow = RecUpdate, types.DecodeValues
	case wireUpdateDelta:
		rec.Type, decodeRow, delta = RecUpdate, types.DecodeValues, true
	}
	buf = buf[1:]
	xid, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, ErrCorrupt
	}
	rec.XID = xid
	buf = buf[n:]
	readString := func() (string, error) {
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return "", ErrCorrupt
		}
		if b := buf[n : n+int(l)]; string(b) != *table {
			*table = string(b)
		}
		buf = buf[n+int(l):]
		return *table, nil
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, ErrCorrupt
		}
		buf = buf[n:]
		return v, nil
	}
	switch rec.Type {
	case RecBegin, RecCommit, RecAbort:
		return rec, nil
	case RecInsert, RecUpdate:
		var err error
		if rec.Table, err = readString(); err != nil {
			return Record{}, err
		}
		page, err := readUvarint()
		if err != nil {
			return Record{}, err
		}
		slot, err := readUvarint()
		if err != nil {
			return Record{}, err
		}
		rec.TID = storage.TID{Page: uint32(page), Slot: uint32(slot)}
		if delta {
			n, err := readUvarint()
			if err != nil || n > uint64(len(buf)) {
				return Record{}, ErrCorrupt
			}
			rec.Cols = make([]int, n)
			for i := range rec.Cols {
				ord, err := readUvarint()
				if err != nil || ord > 1<<16 {
					return Record{}, ErrCorrupt
				}
				rec.Cols[i] = int(ord)
			}
		}
		rowLen, err := readUvarint()
		if err != nil || uint64(len(buf)) < rowLen {
			return Record{}, ErrCorrupt
		}
		row, err := decodeRow(buf[:rowLen])
		if err != nil {
			// Checksum-valid but undecodable is still corruption: keep the
			// reader's contract at exactly {nil, io.EOF, ErrCorrupt}.
			return Record{}, fmt.Errorf("%w: row: %v", ErrCorrupt, err)
		}
		if delta && len(row) != len(rec.Cols) {
			return Record{}, fmt.Errorf("%w: delta has %d values for %d columns", ErrCorrupt, len(row), len(rec.Cols))
		}
		rec.Row = row
		return rec, nil
	case RecDelete:
		var err error
		if rec.Table, err = readString(); err != nil {
			return Record{}, err
		}
		page, err := readUvarint()
		if err != nil {
			return Record{}, err
		}
		slot, err := readUvarint()
		if err != nil {
			return Record{}, err
		}
		rec.TID = storage.TID{Page: uint32(page), Slot: uint32(slot)}
		return rec, nil
	case RecMigrated, RecCheckpoint:
		var err error
		if rec.Table, err = readString(); err != nil {
			return Record{}, err
		}
		keyLen, err := readUvarint()
		if err != nil || uint64(len(buf)) < keyLen {
			return Record{}, ErrCorrupt
		}
		rec.Key = append([]byte(nil), buf[:keyLen]...)
		return rec, nil
	case RecInstall:
		var err error
		if rec.Table, err = readString(); err != nil {
			return Record{}, err
		}
		// The version-metadata payload is optional: logs written before the
		// schema version registry carry a bare migration name.
		if len(buf) == 0 {
			return rec, nil
		}
		keyLen, err := readUvarint()
		if err != nil || uint64(len(buf)) < keyLen {
			return Record{}, ErrCorrupt
		}
		rec.Key = append([]byte(nil), buf[:keyLen]...)
		return rec, nil
	default:
		return Record{}, ErrCorrupt
	}
}

// replayBatch is how many decoded records the decoder hands over at once.
const replayBatch = 256

// replayChunk is a run of decoded records, and the error that ended the log
// after them (nil at a clean or torn end).
type replayChunk struct {
	recs []Record
	err  error
}

// Replay reads every record, calling fn for each in log order. It stops at a
// clean or torn end-of-log, and propagates ErrCorrupt for mid-log corruption
// after fn has seen every record before it. Decoding runs on its own
// goroutine, a few batches ahead of fn; it has stopped reading r by the time
// Replay returns, so the caller may close r then.
func Replay(r io.Reader, fn func(Record) error) error {
	ch := make(chan replayChunk, 4)
	done := make(chan struct{})
	go decodeAll(NewReader(r), ch, done)
	defer func() {
		close(done)
		for range ch { // wait for the decoder to let go of r
		}
	}()
	for c := range ch {
		for _, rec := range c.recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// decodeAll sends rd's records to ch in batches until the end of the log or
// until done closes, then closes ch.
func decodeAll(rd *Reader, ch chan<- replayChunk, done <-chan struct{}) {
	defer close(ch)
	recs := make([]Record, 0, replayBatch)
	for {
		rec, err := rd.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			select {
			case ch <- replayChunk{recs: recs, err: err}:
			case <-done:
			}
			return
		}
		recs = append(recs, rec)
		if len(recs) == replayBatch {
			select {
			case ch <- replayChunk{recs: recs}:
			case <-done:
				return
			}
			recs = make([]Record, 0, replayBatch)
		}
	}
}

// CommittedSet scans the log and returns the set of XIDs with a commit
// record — the transactions whose effects should be replayed.
func CommittedSet(r io.Reader) (map[uint64]bool, error) {
	committed := make(map[uint64]bool)
	err := Replay(r, func(rec Record) error {
		if rec.Type == RecCommit {
			committed[rec.XID] = true
		}
		return nil
	})
	return committed, err
}
