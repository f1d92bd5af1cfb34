package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/bullfrogdb/bullfrog/internal/sql"
)

// Span names. Client-transaction spans share their root's id as the trace
// id; each call the benchmark makes into a layer is a child of that root.
const (
	spanTxn          uint8 = 0                                    // + txnType: one attempt of a client transaction
	spanBegin              = spanTxn + uint8(numTxnTypes)         // db.Begin
	spanParse              = spanBegin + 1                        // the benchmark's own sql.Parse of the text it sends
	spanExecSelect         = spanParse + 1                        // + stmtKind: Txn.ExecContext
	spanCommit             = spanExecSelect + uint8(numStmtKinds) // Txn.Commit
	spanMigrate            = spanCommit + 1                       // MigrateContext
	spanAwait              = spanMigrate + 1                      // AwaitMigration
	spanVacuum             = spanAwait + 1                        // DB.Vacuum
	spanLoad               = spanVacuum + 1                       // schema + tpcc load
	spanRecovery           = spanLoad + 1                         // whole crash recovery (parent of the next two)
	spanOpenRecovery       = spanRecovery + 1                     // wal.OpenRecovery
	spanRecoverFrom        = spanOpenRecovery + 1                 // Controller.RecoverFrom
	numSpanNames           = spanRecoverFrom + 1
)

var spanNames = func() [numSpanNames]string {
	var n [numSpanNames]string
	for t := txnType(0); t < numTxnTypes; t++ {
		n[spanTxn+uint8(t)] = "txn." + txnNames[t]
	}
	n[spanBegin] = "bullfrog.begin"
	n[spanParse] = "sql.parse"
	for k := stmtKind(0); k < numStmtKinds; k++ {
		n[spanExecSelect+uint8(k)] = "bullfrog.exec_" + stmtKindNames[k]
	}
	n[spanCommit] = "bullfrog.commit"
	n[spanMigrate] = "bullfrog.migrate"
	n[spanAwait] = "bullfrog.await_migration"
	n[spanVacuum] = "bullfrog.vacuum"
	n[spanLoad] = "tpcc.load"
	n[spanRecovery] = "recovery"
	n[spanOpenRecovery] = "wal.open_recovery"
	n[spanRecoverFrom] = "core.recover_from"
	return n
}()

type spanRec struct {
	id, parent uint64
	name       uint8
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory; they are written out
// when the run ends. It is not safe for concurrent use: every client owns
// one.
type recorder struct {
	epoch time.Time
	base  uint64
	next  uint64
	spans []spanRec
}

func newRecorder(epoch time.Time, owner int) *recorder {
	return &recorder{epoch: epoch, base: uint64(owner) << 48}
}

func (r *recorder) newID() uint64 {
	r.next++
	return r.base | r.next
}

func (r *recorder) add(id, parent uint64, name uint8, t0, t1 time.Time) {
	r.spans = append(r.spans, spanRec{id: id, parent: parent, name: name,
		start: int64(t0.Sub(r.epoch)), end: int64(t1.Sub(r.epoch))})
}

// child records a call made inside the client transaction whose root span
// is parent.
func (r *recorder) child(parent uint64, name uint8, t0, t1 time.Time) {
	r.add(r.newID(), parent, name, t0, t1)
}

// parse times sql.Parse on a statement text the benchmark is about to send,
// the sql layer's cost measured from outside the facade.
func (r *recorder) parse(parent uint64, q string) {
	t0 := time.Now()
	_, _ = sql.Parse(q) // the facade parses the same text and reports its errors
	r.child(parent, spanParse, t0, time.Now())
}

// txn records the root span of one client-transaction attempt.
func (r *recorder) txn(id uint64, typ txnType, t0, t1 time.Time) {
	r.add(id, 0, spanTxn+uint8(typ), t0, t1)
}

// timed records a span around fn; with a nil recorder it only runs fn.
func (r *recorder) timed(name uint8, parent uint64, fn func()) {
	if r == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	r.add(r.newID(), parent, name, t0, time.Now())
}

// selfTimes returns, per span name, the summed self time (a span's duration
// minus the part its children cover) and the span count.
func selfTimes(recs []*recorder) (self [numSpanNames]int64, count [numSpanNames]int64) {
	childTime := map[uint64]int64{}
	for _, r := range recs {
		for _, s := range r.spans {
			if s.parent != 0 {
				childTime[s.parent] += s.end - s.start
			}
		}
	}
	for _, r := range recs {
		for _, s := range r.spans {
			self[s.name] += s.end - s.start - childTime[s.id]
			count[s.name]++
		}
	}
	return self, count
}

// durations returns the durations (ns) of every span with one of names,
// sorted ascending.
func durations(recs []*recorder, names ...uint8) []int64 {
	var want [numSpanNames]bool
	for _, n := range names {
		want[n] = true
	}
	var out []int64
	for _, r := range recs {
		for _, s := range r.spans {
			if want[s.name] {
				out = append(out, s.end-s.start)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeSpans writes every span as one JSON object per line, gzip-compressed.
func writeSpans(path string, recs []*recorder) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	for _, r := range recs {
		for _, s := range r.spans {
			fmt.Fprintf(bw, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
				traceOf(s), s.id, s.parent, spanNames[s.name], s.start, s.end-s.start)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	if err := zw.Close(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// traceOf is the id shared by the spans of one request: the root's id.
func traceOf(s spanRec) uint64 {
	if s.parent != 0 {
		return s.parent
	}
	return s.id
}
