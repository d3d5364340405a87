package mem

import (
	"fmt"

	"ximd/internal/isa"
)

// Checkpointing. The sweep retry policy recovers a transiently-faulted
// run by restoring the machine to its last checkpoint, and a machine
// checkpoint must include its memory. State is opaque to callers: only
// the model that produced a State can restore it, and only onto an
// instance of identical geometry.
//
// Snapshots are only meaningful between cycles (after Commit, before the
// next BeginCycle), which is the only time the simulators take them;
// RestoreState discards any staged stores so a restore mid-cycle cannot
// leak writes from the abandoned timeline.

// State is an opaque memory checkpoint.
type State any

// Checkpointable is implemented by memory models whose complete state
// can be captured and restored. Models holding external state (mapped
// devices) refuse to snapshot rather than silently exclude it.
type Checkpointable interface {
	SnapshotState() (State, error)
	RestoreState(State) error
}

// sharedState holds only the dirty pages of the image: pages is their
// words concatenated in ascending page order, and every page not set in
// dirty is all zero.
type sharedState struct {
	size   uint32
	dirty  []uint64
	pages  []isa.Word
	loads  uint64
	stores uint64
}

// forEachChunk calls fn with each maximal run of consecutive dirty
// pages: its first address and its words. Runs are ascending and
// separated by at least one clean (all-zero) page.
func (st *sharedState) forEachChunk(fn func(base int, words []isa.Word)) {
	off, base, n := 0, 0, 0
	forEachPage(st.dirty, int(st.size), func(lo, hi int) {
		if n > 0 && lo != base+n {
			fn(base, st.pages[off:off+n])
			off += n
			n = 0
		}
		if n == 0 {
			base = lo
		}
		n += hi - lo
	})
	if n > 0 {
		fn(base, st.pages[off:off+n])
	}
}

// SnapshotState implements Checkpointable. A memory with mapped devices
// cannot be checkpointed: device state lives outside the model.
func (m *Shared) SnapshotState() (State, error) {
	if len(m.mappings) > 0 {
		return nil, fmt.Errorf("mem: cannot checkpoint shared memory with %d mapped devices", len(m.mappings))
	}
	n := 0
	forEachPage(m.dirty, len(m.words), func(lo, hi int) { n += hi - lo })
	st := &sharedState{
		size:   uint32(len(m.words)),
		dirty:  append([]uint64(nil), m.dirty...),
		pages:  make([]isa.Word, 0, n),
		loads:  m.loads,
		stores: m.stores,
	}
	forEachPage(m.dirty, len(m.words), func(lo, hi int) { st.pages = append(st.pages, m.words[lo:hi]...) })
	return st, nil
}

// RestoreState implements Checkpointable: it zeroes the current dirty
// pages, writes the checkpoint's pages, and takes its dirty set.
func (m *Shared) RestoreState(s State) error {
	st, ok := s.(*sharedState)
	if !ok {
		return fmt.Errorf("mem: %T is not a shared-memory checkpoint", s)
	}
	if len(m.mappings) > 0 {
		return fmt.Errorf("mem: cannot restore shared memory with %d mapped devices", len(m.mappings))
	}
	if int(st.size) != len(m.words) {
		return fmt.Errorf("mem: checkpoint of %d words does not fit memory of %d", st.size, len(m.words))
	}
	m.zeroDirty()
	st.forEachChunk(func(base int, words []isa.Word) { copy(m.words[base:], words) })
	copy(m.dirty, st.dirty)
	m.loads, m.stores = st.loads, st.stores
	m.pending = m.pending[:0]
	return nil
}

type distributedState struct {
	banks [][]isa.Word
}

// SnapshotState implements Checkpointable.
func (m *Distributed) SnapshotState() (State, error) {
	banks := make([][]isa.Word, len(m.banks))
	for i, b := range m.banks {
		banks[i] = append([]isa.Word(nil), b...)
	}
	return &distributedState{banks: banks}, nil
}

// RestoreState implements Checkpointable.
func (m *Distributed) RestoreState(s State) error {
	st, ok := s.(*distributedState)
	if !ok {
		return fmt.Errorf("mem: %T is not a distributed-memory checkpoint", s)
	}
	if len(st.banks) != len(m.banks) {
		return fmt.Errorf("mem: checkpoint of %d banks does not fit %d banks", len(st.banks), len(m.banks))
	}
	for i, b := range st.banks {
		if len(b) != len(m.banks[i]) {
			return fmt.Errorf("mem: bank %d checkpoint of %d words does not fit bank of %d", i, len(b), len(m.banks[i]))
		}
	}
	for i, b := range st.banks {
		copy(m.banks[i], b)
	}
	m.pending = m.pending[:0]
	return nil
}
