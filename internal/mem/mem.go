// Package mem provides the memory models used by the XIMD and VLIW
// simulators.
//
// The research model uses an idealized shared memory (Section 2.3): one
// shared word-addressed space, every functional unit may read or write
// every cycle, all operations complete in one cycle, and multiple writes
// to the same location in one cycle are undefined (detected and reported
// here). The prototype instead uses distributed memory, 1MB per FU
// (Section 4.3), which Distributed models.
//
// Memory-mapped devices (package device) can be attached to address
// ranges to model the unpredictable processor interfaces of Sections 1.3
// and 3.4 (Figure 12).
package mem

import (
	"fmt"
	"math/bits"
	"sync"

	"ximd/internal/isa"
)

// Device is a memory-mapped peripheral. Loads observe the device at the
// current cycle; stores take effect at cycle commit, matching the
// synchronous datapath.
type Device interface {
	// Load returns the device's value at the given address offset within
	// its mapped range during the given cycle.
	Load(cycle uint64, offset uint32) isa.Word
	// Store delivers a write to the device at cycle commit time.
	Store(cycle uint64, offset uint32, v isa.Word)
}

// Memory is the interface the simulators drive. Loads see the state at
// the start of the cycle; stores are staged and become visible at Commit.
type Memory interface {
	// Load reads the word at addr on behalf of functional unit fu.
	Load(fu int, addr uint32) (isa.Word, error)
	// Store stages a write of v to addr on behalf of fu. A same-cycle
	// store conflict is reported as a *ConflictError; the write is still
	// staged (last-staged-wins in tolerant mode).
	Store(fu int, addr uint32, v isa.Word) error
	// BeginCycle starts cycle accounting for the given cycle number.
	BeginCycle(cycle uint64)
	// Commit applies staged stores.
	Commit()
}

// ConflictError reports multiple writes to one location in one cycle —
// undefined on the real machine (Section 2.3).
type ConflictError struct {
	Addr     uint32
	FirstFU  int
	SecondFU int
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("memory write conflict: FU%d and FU%d both write M(%d) in one cycle",
		e.FirstFU, e.SecondFU, e.Addr)
}

// OutOfRangeError reports an access outside the configured address space.
type OutOfRangeError struct {
	Addr uint32
	Size uint32
	FU   int
}

func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("FU%d accesses M(%d) outside memory of %d words", e.FU, e.Addr, e.Size)
}

type mapping struct {
	base, size uint32
	dev        Device
}

type pendingStore struct {
	addr uint32
	val  isa.Word
	fu   int
	dev  *mapping // nil for plain memory
}

// Shared is the idealized shared memory of the research model.
//
// The words are one dense array, so loads and stores stay a bounds
// check and an index. Beside it a dirty bitmap records which pages
// (PageWords words each) have been written since the image was last
// zeroed: a clean page is all zero, a dirty page may hold anything.
// Checkpoints copy and encode only the dirty pages, and Release
// re-zeroes only them, so a run pays for the pages it touches rather
// than for the whole address space.
type Shared struct {
	words    []isa.Word
	dirty    []uint64 // bit p%64 of dirty[p/64]: page p may be nonzero
	mappings []mapping
	pending  []pendingStore
	cycle    uint64

	loads  uint64
	stores uint64
}

// DefaultWords is the default shared-memory size: 1M 32-bit words (4MB).
const DefaultWords = 1 << 20

// PageWords is the dirty-tracking granularity in words. DirtyIndex
// and DirtyBit locate an address's page in the bitmap Raw returns.
const (
	PageWords = 1 << pageShift
	pageShift = 10
)

// DirtyIndex returns the bitmap word holding addr's page bit.
func DirtyIndex(addr uint32) uint32 { return addr >> (pageShift + 6) }

// DirtyBit returns addr's page bit within its bitmap word.
func DirtyBit(addr uint32) uint64 { return 1 << (addr >> pageShift & 63) }

// sharedPool recycles released default-size images. A sync.Pool rather
// than a free list: the runtime empties it over two collections, so an
// idle process does not keep dead 4 MB images live.
var sharedPool sync.Pool

// NewShared returns a zeroed shared memory of the given size in words;
// size 0 selects DefaultWords. Default-size images are recycled from
// the ones Release returned.
func NewShared(size uint32) *Shared {
	if size == 0 {
		size = DefaultWords
	}
	if size == DefaultWords {
		if v := sharedPool.Get(); v != nil {
			return v.(*Shared)
		}
	}
	return &Shared{
		words: make([]isa.Word, size),
		dirty: make([]uint64, bitmapWords(size)),
	}
}

// bitmapWords is the length of the dirty bitmap of a size-word image.
func bitmapWords(size uint32) int {
	pages := (uint64(size) + PageWords - 1) >> pageShift
	return int((pages + 63) / 64)
}

// Release hands the image back for reuse by a later NewShared: it
// zeroes the dirty pages, drops device mappings and staged stores, and
// resets the counters and cycle. Only the image's sole owner may call
// it, once, when nothing (machine, result, caller) will touch the
// image again; images of other sizes are simply left to the collector.
func (m *Shared) Release() {
	m.zeroDirty()
	clear(m.mappings)
	m.mappings = m.mappings[:0]
	clear(m.pending)
	m.pending = m.pending[:0]
	m.cycle, m.loads, m.stores = 0, 0, 0
	if len(m.words) == DefaultWords {
		sharedPool.Put(m)
	}
}

// zeroDirty zeroes every dirty page and marks the image clean.
func (m *Shared) zeroDirty() {
	forEachPage(m.dirty, len(m.words), func(lo, hi int) { clear(m.words[lo:hi]) })
	clear(m.dirty)
}

// forEachPage calls fn with the word range [lo, hi) of each page set in
// dirty, in ascending order, for an image of size words.
func forEachPage(dirty []uint64, size int, fn func(lo, hi int)) {
	for i, bm := range dirty {
		for bm != 0 {
			p := i*64 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			lo := p << pageShift
			fn(lo, min(lo+PageWords, size))
		}
	}
}

// markDirty records a write to addr, which must be in range.
func (m *Shared) markDirty(addr uint32) {
	m.dirty[DirtyIndex(addr)] |= DirtyBit(addr)
}

// Size returns the memory size in words.
func (m *Shared) Size() uint32 { return uint32(len(m.words)) }

// Map attaches a device to the address range [base, base+size). Mapped
// ranges must not overlap each other and must lie inside the address
// space; loads and stores in the range go to the device instead of RAM.
func (m *Shared) Map(base, size uint32, dev Device) error {
	if size == 0 {
		return fmt.Errorf("mem: zero-length device mapping at %d", base)
	}
	if base+size < base || base+size > m.Size() {
		return fmt.Errorf("mem: device mapping [%d,%d) outside memory of %d words", base, base+size, m.Size())
	}
	for _, mp := range m.mappings {
		if base < mp.base+mp.size && mp.base < base+size {
			return fmt.Errorf("mem: device mapping [%d,%d) overlaps existing [%d,%d)",
				base, base+size, mp.base, mp.base+mp.size)
		}
	}
	m.mappings = append(m.mappings, mapping{base: base, size: size, dev: dev})
	return nil
}

func (m *Shared) findMapping(addr uint32) *mapping {
	for i := range m.mappings {
		mp := &m.mappings[i]
		if addr >= mp.base && addr < mp.base+mp.size {
			return mp
		}
	}
	return nil
}

// Load implements Memory.
func (m *Shared) Load(fu int, addr uint32) (isa.Word, error) {
	m.loads++
	if mp := m.findMapping(addr); mp != nil {
		return mp.dev.Load(m.cycle, addr-mp.base), nil
	}
	if addr >= m.Size() {
		return 0, &OutOfRangeError{Addr: addr, Size: m.Size(), FU: fu}
	}
	return m.words[addr], nil
}

// Store implements Memory.
func (m *Shared) Store(fu int, addr uint32, v isa.Word) error {
	m.stores++
	mp := m.findMapping(addr)
	if mp == nil && addr >= m.Size() {
		return &OutOfRangeError{Addr: addr, Size: m.Size(), FU: fu}
	}
	var conflict error
	for _, p := range m.pending {
		if p.addr == addr {
			conflict = &ConflictError{Addr: addr, FirstFU: p.fu, SecondFU: fu}
			break
		}
	}
	m.pending = append(m.pending, pendingStore{addr: addr, val: v, fu: fu, dev: mp})
	return conflict
}

// LoadFast is the devirtualized load path for simulators that hold a
// concrete *Shared: the common case — no device mappings, address in
// range — is simple enough to inline into the caller's cycle loop.
// Anything unusual falls back to the general Load.
func (m *Shared) LoadFast(fu int, addr uint32) (isa.Word, error) {
	if len(m.mappings) == 0 && addr < uint32(len(m.words)) {
		m.loads++
		return m.words[addr], nil
	}
	return m.Load(fu, addr)
}

// StoreFast is the devirtualized store path: the first in-range store of
// a cycle with no device mappings stages directly; later stores (which
// must scan for same-cycle conflicts), device ranges, and out-of-range
// addresses fall back to the general Store.
func (m *Shared) StoreFast(fu int, addr uint32, v isa.Word) error {
	if len(m.mappings) == 0 && len(m.pending) == 0 && addr < uint32(len(m.words)) {
		m.stores++
		m.pending = append(m.pending, pendingStore{addr: addr, val: v, fu: fu})
		return nil
	}
	return m.Store(fu, addr, v)
}

// BeginCycle implements Memory.
func (m *Shared) BeginCycle(cycle uint64) {
	m.cycle = cycle
	m.pending = m.pending[:0]
}

// Commit implements Memory.
func (m *Shared) Commit() {
	for _, p := range m.pending {
		if p.dev != nil {
			p.dev.dev.Store(m.cycle, p.addr-p.dev.base, p.val)
		} else {
			m.words[p.addr] = p.val
			m.markDirty(p.addr)
		}
	}
}

// Peek reads RAM directly, bypassing devices and accounting.
func (m *Shared) Peek(addr uint32) isa.Word {
	if addr >= m.Size() {
		return 0
	}
	return m.words[addr]
}

// Poke writes RAM directly, bypassing devices and accounting; for host
// initialization of workload data.
func (m *Shared) Poke(addr uint32, v isa.Word) {
	if addr < m.Size() {
		m.words[addr] = v
		m.markDirty(addr)
	}
}

// PokeInts writes consecutive integers starting at base.
func (m *Shared) PokeInts(base uint32, vals ...int32) {
	for i, v := range vals {
		m.Poke(base+uint32(i), isa.WordFromInt(v))
	}
}

// PeekInts reads n consecutive integers starting at base.
func (m *Shared) PeekInts(base uint32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = m.Peek(base + uint32(i)).Int()
	}
	return out
}

// Counters returns cumulative load/store counts.
func (m *Shared) Counters() (loads, stores uint64) { return m.loads, m.stores }

// HasMappings reports whether any device is mapped. The fused execution
// engines require plain RAM (device loads are cycle-dependent and
// stores have commit-time side effects), so they check this before
// entering a fused run.
func (m *Shared) HasMappings() bool { return len(m.mappings) > 0 }

// Raw exposes the RAM words and the dirty-page bitmap directly,
// bypassing devices, staging, and accounting. It exists for the fused
// execution engines, which buffer stores themselves and account
// loads/stores in bulk via AddCounters; any other caller should use
// Load/Store or Peek/Poke. Every word the caller writes must set its
// page bit: dirty[DirtyIndex(addr)] |= DirtyBit(addr). The caller must
// have checked HasMappings() == false.
func (m *Shared) Raw() (words []isa.Word, dirty []uint64) { return m.words, m.dirty }

// AddCounters folds externally-accounted load/store counts into the
// cumulative counters — the bulk half of the fused engines' deferred
// accounting contract: fused runs access RAM via Raw and report the
// operation counts here at run exit, so Counters() observes exactly
// what the per-cycle paths would have counted.
func (m *Shared) AddCounters(loads, stores uint64) {
	m.loads += loads
	m.stores += stores
}
