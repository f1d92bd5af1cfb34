// Package index provides the two index structures the engine uses: an
// ordered B+tree (range and prefix scans) and a hash index (equality
// lookups). Both map order-preserving encoded keys (types.EncodeKey) to sets
// of heap TIDs.
//
// Index entries are maintained eagerly on insert and update but interpreted
// lazily on read: a posting may reference a tuple version that is invisible
// to the reading transaction (not yet committed, deleted, or from an aborted
// transaction), so readers must re-check visibility and, for updated keys,
// re-check the key value against the visible row. This is the same contract
// PostgreSQL indexes have, and it is what lets BullFrog's migration
// transactions abort cheaply.
package index

import (
	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

// Def describes an index: which table ordinals it covers and whether it
// enforces uniqueness. ID is globally unique and doubles as the lock-table
// space for unique-key arbitration.
type Def struct {
	ID      uint64
	Name    string
	Table   string
	Columns []int // table column ordinals, in key order
	Unique  bool
}

// KeyFromRow extracts and encodes the index key for a full table row.
func (d *Def) KeyFromRow(row types.Row) []byte { return d.AppendKey(nil, row) }

// AppendKey appends the index key of a full table row to buf.
func (d *Def) AppendKey(buf []byte, row types.Row) []byte {
	for _, ord := range d.Columns {
		buf = types.EncodeDatum(buf, row[ord])
	}
	return buf
}

// Index is the operation set shared by the B+tree and hash implementations.
type Index interface {
	// Def returns the index definition.
	Def() *Def
	// Insert adds a posting. Duplicate (key, tid) pairs are ignored.
	Insert(key []byte, tid storage.TID)
	// Delete removes a posting, reporting whether it was present.
	Delete(key []byte, tid storage.TID) bool
	// Lookup returns the TIDs for an exact key (copy; safe to retain).
	Lookup(key []byte) []storage.TID
	// AscendRange visits postings with lo <= key < hi in key order. A nil hi
	// means no upper bound. Returning false stops the scan.
	AscendRange(lo, hi []byte, fn func(key []byte, tid storage.TID) bool)
	// Len returns the number of postings (key/tid pairs).
	Len() int
}

// PrefixSucc returns the smallest key strictly greater than every key having
// the given prefix — i.e. the exclusive upper bound for a prefix scan. It
// increments the final byte, dropping trailing 0xFF bytes; nil means
// "unbounded".
func PrefixSucc(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
