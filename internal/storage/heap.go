// Package storage implements the in-memory heap: slotted pages holding MVCC
// version chains addressed by stable TIDs.
//
// A TID (page, slot) never changes for the lifetime of a logical tuple:
// updates push a new version onto the slot's chain rather than moving the
// tuple. This mirrors how BullFrog's PostgreSQL prototype uses TIDs to map
// tuples to bits in its migration bitmaps (paper §4): a stable TID gives a
// stable bitmap position.
//
// Storage is deliberately policy-free: it knows nothing about visibility or
// transaction status. The txn package interprets version xmin/xmax fields
// against its snapshot and status tables.
package storage

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"sync"
	"sync/atomic"

	"github.com/bullfrogdb/bullfrog/internal/types"
)

// TID identifies a tuple slot: page number and slot within the page.
type TID struct {
	Page uint32
	Slot uint32
}

// String renders the TID PostgreSQL-style.
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// Ordinal returns the dense 0-based index of the TID given the heap's page
// size; this is the tuple's position in migration bitmaps.
func (t TID) Ordinal(pageSize uint32) int64 {
	return int64(t.Page)*int64(pageSize) + int64(t.Slot)
}

// TIDFromOrdinal inverts Ordinal.
func TIDFromOrdinal(ord int64, pageSize uint32) TID {
	return TID{Page: uint32(ord / int64(pageSize)), Slot: uint32(ord % int64(pageSize))}
}

// Version is one MVCC version of a tuple. XMin is the transaction that
// created it; XMax, if nonzero, is the transaction that deleted (or
// superseded) it. Next points to the previous (older) version.
//
// All fields are protected by the owning page's latch: access them only
// inside View/Mutate callbacks or storage's own methods.
type Version struct {
	XMin uint64
	XMax uint64
	Row  types.Row
	Next *Version
}

type page struct {
	mu    sync.RWMutex
	slots []*Version // head (newest) version per slot; nil while an insert fills it, and after vacuum empties it
	// chained has a bit per slot that gained a second version or a
	// deletion mark since a vacuum last found it single and live; vacuum
	// visits only those slots. chains mirrors "some bit is set" so vacuum
	// can skip a page without its latch.
	chained []uint64
	chains  atomic.Bool
	// keysMoved is set by MarkKeysMoved and cleared with chains.
	keysMoved atomic.Bool
}

// markChained records that slot has a chain or a deletion mark. Must hold
// the page write latch.
func (p *page) markChained(slot uint32) {
	for int(slot/64) >= len(p.chained) {
		p.chained = append(p.chained, 0)
	}
	p.chained[slot/64] |= 1 << (slot % 64)
	p.chains.Store(true)
}

// Heap is an append-only collection of pages. Slots are never reused; a
// deleted tuple's chain remains until vacuum empties its slot.
type Heap struct {
	pageSize uint32
	nslots   atomic.Int64 // total slots allocated (high-water mark)

	mu    sync.RWMutex // guards pages slice growth (not page contents)
	pages []*page
}

// DefaultPageSize is the number of tuple slots per page.
const DefaultPageSize = 256

// NewHeap creates an empty heap with the given slots-per-page (0 means
// DefaultPageSize).
func NewHeap(pageSize uint32) *Heap {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	return &Heap{pageSize: pageSize}
}

// PageSize returns the heap's slots-per-page.
func (h *Heap) PageSize() uint32 { return h.pageSize }

// NumSlots returns the number of slots ever allocated (including slots whose
// tuples are deleted). Bitmap trackers size themselves from this.
func (h *Heap) NumSlots() int64 { return h.nslots.Load() }

// NumPages returns the number of allocated pages.
func (h *Heap) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// ErrNoSuchTuple is returned for TIDs that address unallocated slots.
var ErrNoSuchTuple = errors.New("storage: no such tuple")

// Insert allocates a new slot containing a single version created by xid and
// returns its TID. The row is stored as-is; callers must not modify it
// afterwards.
func (h *Heap) Insert(xid uint64, row types.Row) TID {
	ord := h.nslots.Add(1) - 1
	tid := TIDFromOrdinal(ord, h.pageSize)
	p := h.pageFor(tid.Page, true)
	v := &Version{XMin: xid, Row: row}
	p.mu.Lock()
	for int(tid.Slot) >= len(p.slots) {
		p.slots = append(p.slots, nil)
	}
	p.slots[tid.Slot] = v
	p.mu.Unlock()
	return tid
}

func (h *Heap) pageFor(n uint32, grow bool) *page {
	h.mu.RLock()
	if int(n) < len(h.pages) {
		p := h.pages[n]
		h.mu.RUnlock()
		return p
	}
	h.mu.RUnlock()
	if !grow {
		return nil
	}
	h.mu.Lock()
	for int(n) >= len(h.pages) {
		h.pages = append(h.pages, &page{})
	}
	p := h.pages[n]
	h.mu.Unlock()
	return p
}

// View runs fn with the slot's head version under the page read latch. fn
// must not block or mutate the chain; it may copy out whatever it needs.
func (h *Heap) View(tid TID, fn func(head *Version)) error {
	p := h.pageFor(tid.Page, false)
	if p == nil {
		return ErrNoSuchTuple
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if int(tid.Slot) >= len(p.slots) || p.slots[tid.Slot] == nil {
		return ErrNoSuchTuple
	}
	fn(p.slots[tid.Slot])
	return nil
}

// Slot is the mutable view of a tuple slot handed to Mutate callbacks.
type Slot struct {
	p    *page
	slot uint32
}

// Head returns the newest version.
func (s Slot) Head() *Version { return s.p.slots[s.slot] }

// Push prepends a new version created by xid (an update): the old head gets
// XMax = xid, the new head XMin = xid.
func (s Slot) Push(xid uint64, row types.Row) {
	old := s.p.slots[s.slot]
	old.XMax = xid
	s.p.slots[s.slot] = &Version{XMin: xid, Row: row, Next: old}
	s.p.markChained(s.slot)
}

// Replace overwrites the head version's row in place when xid created that
// head and nobody deleted it, reporting whether it did. Only a transaction
// whose own uncommitted head no other snapshot can see may do this; WAL
// replay, which applies the whole log in one transaction, is the user.
func (s Slot) Replace(xid uint64, row types.Row) bool {
	head := s.p.slots[s.slot]
	if head.XMin != xid || head.XMax != 0 {
		return false
	}
	head.Row = row
	return true
}

// MarkKeysMoved records that the head's index keys differ from those of the
// version it superseded. Vacuum reports the versions it cuts off chains only
// on pages so marked; elsewhere every removed version shares its keys with
// the surviving head, so there is nothing to reclaim.
func (s Slot) MarkKeysMoved() { s.p.keysMoved.Store(true) }

// SetXMax marks the head version as deleted by xid. It fails if another
// transaction already claimed it.
func (s Slot) SetXMax(xid uint64) error {
	head := s.p.slots[s.slot]
	if head.XMax != 0 && head.XMax != xid {
		return fmt.Errorf("storage: tuple already deleted by txn %d", head.XMax)
	}
	head.XMax = xid
	s.p.markChained(s.slot)
	return nil
}

// ClearXMax removes a deletion mark owned by xid (abort undo).
func (s Slot) ClearXMax(xid uint64) {
	head := s.p.slots[s.slot]
	if head.XMax == xid {
		head.XMax = 0
	}
}

// Pop removes the head version if it was created by xid (abort undo of an
// update), restoring the previous version and clearing its XMax. It reports
// whether a version was popped.
func (s Slot) Pop(xid uint64) bool {
	head := s.p.slots[s.slot]
	if head.XMin != xid || head.Next == nil {
		return false
	}
	prev := head.Next
	if prev.XMax == xid {
		prev.XMax = 0
	}
	s.p.slots[s.slot] = prev
	return true
}

// Mutate runs fn with the slot under the page write latch.
func (h *Heap) Mutate(tid TID, fn func(Slot) error) error {
	p := h.pageFor(tid.Page, false)
	if p == nil {
		return ErrNoSuchTuple
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(tid.Slot) >= len(p.slots) || p.slots[tid.Slot] == nil {
		return ErrNoSuchTuple
	}
	return fn(Slot{p: p, slot: tid.Slot})
}

// Scan visits every allocated slot in TID order, invoking fn with the head
// version under the page read latch. fn must not mutate this heap (collect
// TIDs first, then Mutate). Returning a non-nil error stops the scan and is
// propagated.
func (h *Heap) Scan(fn func(tid TID, head *Version) error) error {
	h.mu.RLock()
	npages := len(h.pages)
	h.mu.RUnlock()
	for pn := 0; pn < npages; pn++ {
		h.mu.RLock()
		p := h.pages[pn]
		h.mu.RUnlock()
		p.mu.RLock()
		for sn := 0; sn < len(p.slots); sn++ {
			if p.slots[sn] == nil {
				continue
			}
			if err := fn(TID{Page: uint32(pn), Slot: uint32(sn)}, p.slots[sn]); err != nil {
				p.mu.RUnlock()
				return err
			}
		}
		p.mu.RUnlock()
	}
	return nil
}

// ScanRange visits slots with ordinals in [lo, hi), same contract as Scan.
// Used by background migration to cover the table in chunks.
func (h *Heap) ScanRange(lo, hi int64, fn func(tid TID, head *Version) error) error {
	if max := h.nslots.Load(); hi > max {
		hi = max
	}
	for ord := lo; ord < hi; {
		tid := TIDFromOrdinal(ord, h.pageSize)
		p := h.pageFor(tid.Page, false)
		if p == nil {
			return nil
		}
		endSlot := int64(h.pageSize)
		if remaining := hi - ord + int64(tid.Slot); remaining < endSlot {
			endSlot = remaining
		}
		p.mu.RLock()
		for sn := int64(tid.Slot); sn < endSlot && int(sn) < len(p.slots); sn++ {
			if p.slots[sn] == nil {
				continue
			}
			if err := fn(TID{Page: tid.Page, Slot: uint32(sn)}, p.slots[sn]); err != nil {
				p.mu.RUnlock()
				return err
			}
		}
		p.mu.RUnlock()
		ord += endSlot - int64(tid.Slot)
	}
	return nil
}

// Vacuum truncates version chains and empties dead slots. `prunable`
// reports whether a version, and everything older, is invisible to all
// current and future snapshots. A chain is cut above its first prunable
// version; a slot whose head itself is prunable (a deletion every snapshot
// sees) is emptied, so scans skip it and View and Mutate report
// ErrNoSuchTuple. The slot is not reused.
//
// When reclaim is non-nil it is called with the surviving chain (nil for an
// emptied slot) and the removed one, for every emptied slot and for every
// cut chain on a page marked by Slot.MarkKeysMoved.
// Both callbacks run under the page write latch, so they must not block or
// take locks: a caller that must update other structures (index postings)
// collects what to do and does it after Vacuum returns. An index scan holds
// its index lock while it takes page latches, so the opposite nesting would
// invert the lock order.
func (h *Heap) Vacuum(prunable func(v *Version) bool, reclaim func(tid TID, live, dead *Version)) (pruned int) {
	h.mu.RLock()
	pages := h.pages
	h.mu.RUnlock()
	for pn, p := range pages {
		if !p.chains.Load() {
			continue // every slot holds a single live version
		}
		p.mu.Lock()
		moved := p.keysMoved.Load()
		remaining := false
		for w, bits := range p.chained {
			for ; bits != 0; bits &= bits - 1 {
				sn := uint32(w*64 + mathbits.TrailingZeros64(bits))
				head := p.slots[sn]
				tid := TID{Page: uint32(pn), Slot: sn}
				// A version without XMax was never deleted or superseded.
				if head.XMax != 0 && prunable(head) {
					pruned += chainLen(head)
					p.slots[sn] = nil
					if reclaim != nil {
						reclaim(tid, nil, head)
					}
				} else {
					for v := head; v.Next != nil; v = v.Next {
						if prunable(v.Next) {
							dead := v.Next
							v.Next = nil
							pruned += chainLen(dead)
							if reclaim != nil && moved {
								reclaim(tid, head, dead)
							}
							break
						}
					}
				}
				if kept := p.slots[sn]; kept == nil || kept.Next == nil && kept.XMax == 0 {
					p.chained[w] &^= 1 << (sn % 64)
				} else {
					remaining = true
				}
			}
		}
		p.chains.Store(remaining)
		if !remaining {
			p.keysMoved.Store(false)
		}
		p.mu.Unlock()
	}
	return pruned
}

func chainLen(v *Version) int {
	n := 0
	for ; v != nil; v = v.Next {
		n++
	}
	return n
}
