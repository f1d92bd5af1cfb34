package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/bullfrogdb/bullfrog/internal/storage"
	"github.com/bullfrogdb/bullfrog/internal/types"
)

func intKey(v int64) []byte {
	return types.EncodeKey(nil, types.Row{types.NewInt(v)})
}

func tid(n int) storage.TID {
	return storage.TID{Page: uint32(n / 256), Slot: uint32(n % 256)}
}

// both index implementations must satisfy the same behavioral contract.
func eachImpl(t *testing.T, fn func(t *testing.T, idx Index)) {
	t.Helper()
	t.Run("btree", func(t *testing.T) {
		fn(t, NewBTree(&Def{ID: 1, Name: "bt", Table: "t", Columns: []int{0}}))
	})
	t.Run("hash", func(t *testing.T) {
		fn(t, NewHash(&Def{ID: 2, Name: "h", Table: "t", Columns: []int{0}}))
	})
}

func TestInsertLookupDelete(t *testing.T) {
	eachImpl(t, func(t *testing.T, idx Index) {
		idx.Insert(intKey(5), tid(1))
		idx.Insert(intKey(5), tid(2))
		idx.Insert(intKey(5), tid(1)) // duplicate, ignored
		idx.Insert(intKey(7), tid(3))
		if idx.Len() != 3 {
			t.Errorf("Len = %d, want 3", idx.Len())
		}
		got := idx.Lookup(intKey(5))
		if len(got) != 2 {
			t.Fatalf("Lookup(5) = %v", got)
		}
		if idx.Lookup(intKey(99)) != nil {
			t.Error("Lookup on absent key should be nil")
		}
		if !idx.Delete(intKey(5), tid(1)) {
			t.Error("Delete existing posting should report true")
		}
		if idx.Delete(intKey(5), tid(1)) {
			t.Error("double Delete should report false")
		}
		if idx.Delete(intKey(42), tid(9)) {
			t.Error("Delete on absent key should report false")
		}
		if got := idx.Lookup(intKey(5)); len(got) != 1 || got[0] != tid(2) {
			t.Errorf("after delete, Lookup(5) = %v", got)
		}
		// Deleting the last posting removes the key.
		idx.Delete(intKey(5), tid(2))
		if idx.Lookup(intKey(5)) != nil {
			t.Error("key should vanish when posting list empties")
		}
		if idx.Len() != 1 {
			t.Errorf("Len = %d, want 1", idx.Len())
		}
	})
}

func TestAscendRange(t *testing.T) {
	eachImpl(t, func(t *testing.T, idx Index) {
		for i := 0; i < 100; i++ {
			idx.Insert(intKey(int64(i)), tid(i))
		}
		var got []int64
		idx.AscendRange(intKey(10), intKey(20), func(key []byte, _ storage.TID) bool {
			row, err := types.DecodeKey(key)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, row[0].Int())
			return true
		})
		if len(got) != 10 || got[0] != 10 || got[9] != 19 {
			t.Errorf("range [10,20) = %v", got)
		}
		// Unbounded above.
		count := 0
		idx.AscendRange(intKey(95), nil, func([]byte, storage.TID) bool {
			count++
			return true
		})
		if count != 5 {
			t.Errorf("range [95,∞) = %d keys", count)
		}
		// Early stop.
		count = 0
		idx.AscendRange(intKey(0), nil, func([]byte, storage.TID) bool {
			count++
			return count < 7
		})
		if count != 7 {
			t.Errorf("early stop visited %d", count)
		}
	})
}

// TestBTreeMatchesModel drives the B+tree against a reference map with random
// operations and verifies Lookup, Len, and full-range iteration agree.
func TestBTreeMatchesModel(t *testing.T) {
	idx := NewBTree(&Def{ID: 3, Name: "model", Table: "t", Columns: []int{0}})
	model := make(map[int64]map[storage.TID]bool)
	r := rand.New(rand.NewSource(42))
	for step := 0; step < 20000; step++ {
		k := int64(r.Intn(500))
		id := tid(r.Intn(800))
		if r.Intn(3) > 0 { // 2/3 inserts
			idx.Insert(intKey(k), id)
			if model[k] == nil {
				model[k] = make(map[storage.TID]bool)
			}
			model[k][id] = true
		} else {
			want := model[k][id]
			got := idx.Delete(intKey(k), id)
			if got != want {
				t.Fatalf("step %d: Delete(%d,%v) = %v, want %v", step, k, id, got, want)
			}
			delete(model[k], id)
			if len(model[k]) == 0 {
				delete(model, k)
			}
		}
	}
	// Compare Len.
	want := 0
	for _, s := range model {
		want += len(s)
	}
	if idx.Len() != want {
		t.Fatalf("Len = %d, model has %d", idx.Len(), want)
	}
	// Compare per-key lookups.
	for k, s := range model {
		got := idx.Lookup(intKey(k))
		if len(got) != len(s) {
			t.Fatalf("Lookup(%d) returned %d postings, want %d", k, len(got), len(s))
		}
		for _, id := range got {
			if !s[id] {
				t.Fatalf("Lookup(%d) returned unexpected %v", k, id)
			}
		}
	}
	// Full iteration must be sorted and complete.
	var keys []int64
	prev := []byte(nil)
	total := 0
	idx.AscendRange(nil, nil, func(key []byte, _ storage.TID) bool {
		if prev != nil && bytes.Compare(prev, key) > 0 {
			t.Fatal("iteration out of order")
		}
		prev = append(prev[:0], key...)
		row, _ := types.DecodeKey(key)
		keys = append(keys, row[0].Int())
		total++
		return true
	})
	if total != want {
		t.Fatalf("iteration visited %d postings, want %d", total, want)
	}
	uniq := map[int64]bool{}
	for _, k := range keys {
		uniq[k] = true
	}
	if len(uniq) != len(model) {
		t.Fatalf("iteration saw %d distinct keys, model has %d", len(uniq), len(model))
	}
}

func TestBTreeSplitsDeep(t *testing.T) {
	idx := NewBTree(&Def{ID: 4, Name: "deep", Table: "t", Columns: []int{0}})
	const n = 50000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, v := range perm {
		idx.Insert(intKey(int64(v)), tid(v%1000))
	}
	// Every key must be findable.
	for i := 0; i < n; i += 997 {
		if idx.Lookup(intKey(int64(i))) == nil {
			t.Fatalf("key %d missing after bulk insert", i)
		}
	}
	// Iteration is fully sorted.
	prevV := int64(-1)
	count := 0
	idx.AscendRange(nil, nil, func(key []byte, _ storage.TID) bool {
		row, _ := types.DecodeKey(key)
		v := row[0].Int()
		if v <= prevV {
			t.Fatalf("out of order: %d after %d", v, prevV)
		}
		prevV = v
		count++
		return true
	})
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	eachImpl(t, func(t *testing.T, idx Index) {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					idx.Lookup(intKey(50))
					idx.AscendRange(intKey(0), intKey(100), func([]byte, storage.TID) bool { return true })
				}
			}()
		}
		for i := 0; i < 3000; i++ {
			idx.Insert(intKey(int64(i%200)), tid(i))
		}
		close(stop)
		wg.Wait()
		if idx.Len() != 3000 {
			t.Errorf("Len = %d, want 3000", idx.Len())
		}
	})
}

func TestKeyFromRow(t *testing.T) {
	def := &Def{Columns: []int{2, 0}}
	row := types.Row{types.NewInt(1), types.NewString("x"), types.NewInt(3)}
	key := def.KeyFromRow(row)
	decoded, err := types.DecodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].Int() != 3 || decoded[1].Int() != 1 {
		t.Errorf("KeyFromRow decoded to %v", decoded)
	}
}

func TestPrefixSucc(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{nil, nil},
	}
	for _, c := range cases {
		got := PrefixSucc(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("PrefixSucc(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Semantics: every key with the prefix sorts below the successor.
	prefix := types.EncodeKey(nil, types.Row{types.NewInt(10)})
	succ := PrefixSucc(prefix)
	full := types.EncodeKey(nil, types.Row{types.NewInt(10), types.NewString("zzz")})
	if !(bytes.Compare(full, succ) < 0 && bytes.Compare(prefix, succ) < 0) {
		t.Error("PrefixSucc is not an upper bound for extended keys")
	}
}

func TestHashAscendRangeSorted(t *testing.T) {
	idx := NewHash(&Def{ID: 9, Name: "h2", Table: "t", Columns: []int{0}})
	var want []string
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("key-%03d", i)
		idx.Insert(types.EncodeKey(nil, types.Row{types.NewString(s)}), tid(i))
		want = append(want, s)
	}
	sort.Strings(want)
	var got []string
	idx.AscendRange(nil, nil, func(key []byte, _ storage.TID) bool {
		row, _ := types.DecodeKey(key)
		got = append(got, row[0].Str())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestBTreeLeafFootprint bounds the live heap of a B+tree holding 100k
// unique keys. With a slice per key and one per posting list, this tree
// held about 150 bytes per 18-byte key on amd64; leaves that keep keys in
// an arena and a unique key's posting inline must stay at least 30 % below.
func TestBTreeLeafFootprint(t *testing.T) {
	const n = 100000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = types.EncodeKey(nil, types.Row{types.NewInt(int64(i % 7)), types.NewInt(int64(i))})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := NewBTree(&Def{Name: "k", Columns: []int{0, 1}, Unique: true})
	for i, k := range keys {
		tr.Insert(k, storage.TID{Page: uint32(i / 256), Slot: uint32(i % 256)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / n
	if perKey > 0.7*150 {
		t.Fatalf("B+tree holds %.1f live bytes per key, want at most %.0f", perKey, 0.7*150)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}
