package index

import (
	"bytes"
	"slices"
	"sync"

	"github.com/bullfrogdb/bullfrog/internal/storage"
)

// btree node fanout: max keys per node. Chosen for decent cache behavior at
// in-memory scale.
const btreeOrder = 64

// BTree is a B+tree mapping encoded keys to TID postings. All methods are
// safe for concurrent use (single writer, many readers via an RWMutex).
type BTree struct {
	def  *Def
	mu   sync.RWMutex
	root node
	n    int // postings
}

// NewBTree returns an empty B+tree index.
func NewBTree(def *Def) *BTree {
	return &BTree{def: def, root: &leaf{}}
}

// Def returns the index definition.
func (t *BTree) Def() *Def { return t.def }

// Len returns the number of postings.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

type node interface {
	// insert returns (newRight, splitKey) when the node split.
	insert(key []byte, tid storage.TID, counter *int) (node, []byte)
	// delete removes a posting; reports whether it was removed.
	delete(key []byte, tid storage.TID) bool
	// firstLeafGE returns the leaf that may contain key and the position of
	// the first key >= key within it.
	firstLeafGE(key []byte) (*leaf, int)
}

// leaf holds its keys in order in slots. A slot keeps its key as a span of
// the leaf's arena rather than a slice of its own, and its first posting
// inline: a key with one TID, the common case of a unique index, costs its
// bytes plus one slot and no allocation of its own.
type leaf struct {
	slots []slot
	// arena holds the key bytes of the slots, appended as keys arrive.
	// Bytes are never overwritten: a delete leaves them dead, and the arena
	// is rebuilt into a fresh array once half of it is dead, so a key slice
	// handed to a reader stays intact.
	arena []byte
	dead  int
	next  *leaf
}

type slot struct {
	off, n uint32 // the key is arena[off : off+n]
	tid    storage.TID
	more   *[]storage.TID // postings after tid; nil while there are none
}

func (l *leaf) key(i int) []byte {
	s := l.slots[i]
	return l.arena[s.off : s.off+s.n : s.off+s.n]
}

type inner struct {
	keys     [][]byte // keys[i] = smallest key in children[i+1]
	children []node
}

// search returns the first slot with key >= key.
func (l *leaf) search(key []byte) int {
	lo, hi := 0, len(l.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(l.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *leaf) has(pos int, key []byte) bool {
	return pos < len(l.slots) && bytes.Equal(l.key(pos), key)
}

func (l *leaf) insert(key []byte, tid storage.TID, counter *int) (node, []byte) {
	pos := l.search(key)
	if l.has(pos, key) {
		s := &l.slots[pos]
		if s.tid == tid {
			return nil, nil // duplicate posting
		}
		if s.more == nil {
			s.more = &[]storage.TID{}
		}
		for _, existing := range *s.more {
			if existing == tid {
				return nil, nil
			}
		}
		*s.more = append(*s.more, tid)
		*counter++
		return nil, nil
	}
	off := len(l.arena)
	l.arena = append(l.arena, key...)
	l.slots = slices.Insert(l.slots, pos, slot{off: uint32(off), n: uint32(len(key)), tid: tid})
	*counter++
	if len(l.slots) <= btreeOrder {
		return nil, nil
	}
	// Split, each half into an arena of its own keys.
	mid := len(l.slots) / 2
	right := &leaf{next: l.next}
	right.slots = append(right.slots, l.slots[mid:]...)
	right.arena = repack(right.slots, l.arena)
	l.slots = l.slots[:mid:mid]
	l.arena = repack(l.slots, l.arena)
	l.dead = 0
	l.next = right
	return right, append([]byte(nil), right.key(0)...)
}

// repack copies the slots' keys out of arena into a fresh array and points
// the slots at it.
func repack(slots []slot, arena []byte) []byte {
	n := 0
	for _, s := range slots {
		n += int(s.n)
	}
	out := make([]byte, 0, n)
	for i, s := range slots {
		slots[i].off = uint32(len(out))
		out = append(out, arena[s.off:s.off+s.n]...)
	}
	return out
}

func (l *leaf) delete(key []byte, tid storage.TID) bool {
	pos := l.search(key)
	if !l.has(pos, key) {
		return false
	}
	s := &l.slots[pos]
	var more []storage.TID
	if s.more != nil {
		more = *s.more
	}
	switch i := slices.Index(more, tid); {
	case i >= 0:
		more = slices.Delete(more, i, i+1)
	case s.tid == tid && len(more) > 0:
		s.tid, more = more[0], more[1:]
	case s.tid == tid:
		// The key's last posting: remove the key (no rebalancing; lazy
		// deletion).
		l.dead += int(s.n)
		l.slots = slices.Delete(l.slots, pos, pos+1)
		if l.dead > len(l.arena)/2 {
			l.arena = repack(l.slots, l.arena)
			l.dead = 0
		}
		return true
	default:
		return false
	}
	s.more = nil
	if len(more) > 0 {
		s.more = &more
	}
	return true
}

func (l *leaf) firstLeafGE(key []byte) (*leaf, int) {
	return l, l.search(key)
}

func (in *inner) childFor(key []byte) int {
	// children[i] covers keys < keys[i]; the last child covers the rest.
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(in.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (in *inner) insert(key []byte, tid storage.TID, counter *int) (node, []byte) {
	ci := in.childFor(key)
	newRight, splitKey := in.children[ci].insert(key, tid, counter)
	if newRight == nil {
		return nil, nil
	}
	in.keys = append(in.keys, nil)
	copy(in.keys[ci+1:], in.keys[ci:])
	in.keys[ci] = splitKey
	in.children = append(in.children, nil)
	copy(in.children[ci+2:], in.children[ci+1:])
	in.children[ci+1] = newRight
	if len(in.children) <= btreeOrder {
		return nil, nil
	}
	mid := len(in.keys) / 2
	up := in.keys[mid]
	right := &inner{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	return right, up
}

func (in *inner) delete(key []byte, tid storage.TID) bool {
	return in.children[in.childFor(key)].delete(key, tid)
}

func (in *inner) firstLeafGE(key []byte) (*leaf, int) {
	return in.children[in.childFor(key)].firstLeafGE(key)
}

// Insert adds a posting for key.
func (t *BTree) Insert(key []byte, tid storage.TID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	newRight, splitKey := t.root.insert(key, tid, &t.n)
	if newRight != nil {
		t.root = &inner{keys: [][]byte{splitKey}, children: []node{t.root, newRight}}
	}
}

// Delete removes a posting, reporting whether it existed.
func (t *BTree) Delete(key []byte, tid storage.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.delete(key, tid) {
		t.n--
		return true
	}
	return false
}

// Lookup returns the postings for an exact key.
func (t *BTree) Lookup(key []byte) []storage.TID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, pos := t.root.firstLeafGE(key)
	if !l.has(pos, key) {
		return nil
	}
	s := l.slots[pos]
	out := []storage.TID{s.tid}
	if s.more != nil {
		out = append(out, *s.more...)
	}
	return out
}

// AscendRange visits postings with lo <= key < hi in key order (hi nil means
// unbounded). The callback must not modify the tree.
func (t *BTree) AscendRange(lo, hi []byte, fn func(key []byte, tid storage.TID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, pos := t.root.firstLeafGE(lo)
	for l != nil {
		for ; pos < len(l.slots); pos++ {
			key := l.key(pos)
			if hi != nil && bytes.Compare(key, hi) >= 0 {
				return
			}
			s := l.slots[pos]
			if !fn(key, s.tid) {
				return
			}
			if s.more != nil {
				for _, tid := range *s.more {
					if !fn(key, tid) {
						return
					}
				}
			}
		}
		l = l.next
		pos = 0
	}
}
