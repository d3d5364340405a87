package mem

import (
	"fmt"

	"ximd/internal/isa"
	"ximd/internal/wire"
)

// Binary serialization of memory checkpoints for the durable
// checkpoint format (internal/ckpt). State is opaque to callers, so
// the encode/decode pair lives here with the concrete state types.
//
// Word arrays are encoded sparsely: a run-length segment list of the
// nonzero regions. Simulated memories are large (the default shared
// memory is 1M words) but programs touch a tiny fraction of them, so
// the sparse form keeps periodic checkpoints proportional to the
// touched footprint instead of the address-space size — load-bearing
// for the <2% checkpoint-overhead budget.

// State type tags of the encoded stream.
const (
	stateTagShared      = 1
	stateTagDistributed = 2
)

// segGap is the zero-run length below which two nonzero segments are
// merged into one: a handful of inline zeros costs less than another
// segment header.
const segGap = 8

// chunks yields, in ascending order, every region of a word array that
// may hold nonzero words: the region's first address and its words.
// Regions are separated by at least segGap zeros, so no segment spans
// two of them.
type chunks func(fn func(base int, words []isa.Word))

// dense is the chunks of a plain word array: the whole array.
func dense(words []isa.Word) chunks {
	return func(fn func(int, []isa.Word)) { fn(0, words) }
}

// encodeWords appends the sparse segment encoding of a size-word array
// whose nonzero words all lie in cs. The bytes depend only on the
// array's contents, not on how cs splits it.
func encodeWords(w *wire.Writer, size int, cs chunks) {
	w.U32(uint32(size))
	// First pass: count segments (the count prefixes the list).
	var nseg uint32
	cs(func(_ int, words []isa.Word) {
		forEachSegment(words, func(start, end int) { nseg++ })
	})
	w.U32(nseg)
	cs(func(base int, words []isa.Word) {
		forEachSegment(words, func(start, end int) {
			w.U32(uint32(base + start))
			w.U32(uint32(end - start))
			for _, v := range words[start:end] {
				w.U32(uint32(v))
			}
		})
	})
}

// forEachSegment walks the maximal nonzero segments of words, merging
// segments separated by fewer than segGap zeros.
func forEachSegment(words []isa.Word, fn func(start, end int)) {
	i := 0
	for i < len(words) {
		if words[i] == 0 {
			i++
			continue
		}
		start := i
		end := i + 1 // one past the last nonzero word seen
		for j := i + 1; j < len(words) && j-end < segGap; j++ {
			if words[j] != 0 {
				end = j + 1
			}
		}
		fn(start, end)
		i = end
	}
}

// decodeSize reads the declared size of a sparse segment encoding,
// validated against maxWords so corrupt bytes cannot demand a huge
// allocation.
func decodeSize(r *wire.Reader, maxWords uint32) (uint32, error) {
	size := r.U32()
	if size > maxWords {
		return 0, fmt.Errorf("mem: decoded size %d exceeds limit %d", size, maxWords)
	}
	return size, r.Err()
}

// decodeSegments reads the segment list of a sparse encoding of a
// size-word array and passes every decoded word to put, in ascending
// address order. Segment bounds are validated against size and their
// lengths against the remaining input, so corrupt bytes fail instead of
// writing out of range.
func decodeSegments(r *wire.Reader, size uint32, put func(addr uint32, v isa.Word)) error {
	nseg := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	prevEnd := uint32(0)
	for s := uint32(0); s < nseg; s++ {
		start := r.U32()
		n := r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if start < prevEnd || n == 0 || uint64(start)+uint64(n) > uint64(size) {
			return fmt.Errorf("mem: segment [%d,+%d) out of order or out of range %d", start, n, size)
		}
		if uint64(n)*4 > uint64(r.Remaining()) {
			return wire.ErrTruncated
		}
		for i := uint32(0); i < n; i++ {
			put(start+i, isa.Word(r.U32()))
		}
		prevEnd = start + n
	}
	return r.Err()
}

// decodeWords reads a sparse segment encoding into a fresh zeroed
// slice of the declared size.
func decodeWords(r *wire.Reader, maxWords uint32) ([]isa.Word, error) {
	size, err := decodeSize(r, maxWords)
	if err != nil {
		return nil, err
	}
	words := make([]isa.Word, size)
	if err := decodeSegments(r, size, func(addr uint32, v isa.Word) { words[addr] = v }); err != nil {
		return nil, err
	}
	return words, nil
}

// zeroPage backs the fresh pages decodeShared appends.
var zeroPage [PageWords]isa.Word

// decodeShared reads a sparse segment encoding into a shared-memory
// checkpoint holding only the pages the segments touch.
func decodeShared(r *wire.Reader, st *sharedState) error {
	size, err := decodeSize(r, maxCheckpointWords)
	if err != nil {
		return err
	}
	st.size = size
	st.dirty = make([]uint64, bitmapWords(size))
	page, pageBase := uint32(0), 0 // the latest page: its index and offset in st.pages
	return decodeSegments(r, size, func(addr uint32, v isa.Word) {
		if len(st.pages) == 0 || addr>>pageShift != page {
			page = addr >> pageShift
			lo := page << pageShift
			pageBase = len(st.pages)
			st.pages = append(st.pages, zeroPage[:min(PageWords, size-lo)]...)
			st.dirty[DirtyIndex(addr)] |= DirtyBit(addr)
		}
		st.pages[pageBase+int(addr-(page<<pageShift))] = v
	})
}

// maxCheckpointWords bounds a decoded memory geometry (words per array
// or per bank). It is far above any configured simulator memory; a
// larger declared size marks corruption, not a checkpoint.
const maxCheckpointWords = 1 << 26

// EncodeState appends a memory checkpoint (as returned by
// Checkpointable.SnapshotState) to w. Only states produced by this
// package's models encode.
func EncodeState(w *wire.Writer, s State) error {
	switch st := s.(type) {
	case *sharedState:
		w.U8(stateTagShared)
		w.U64(st.loads)
		w.U64(st.stores)
		encodeWords(w, int(st.size), st.forEachChunk)
		return nil
	case *distributedState:
		w.U8(stateTagDistributed)
		w.U32(uint32(len(st.banks)))
		for _, b := range st.banks {
			encodeWords(w, len(b), dense(b))
		}
		return nil
	default:
		return fmt.Errorf("mem: cannot encode %T as a memory checkpoint", s)
	}
}

// DecodeState reads a memory checkpoint written by EncodeState. The
// result restores onto a model of identical geometry via
// Checkpointable.RestoreState, exactly like a fresh snapshot.
func DecodeState(r *wire.Reader) (State, error) {
	switch tag := r.U8(); tag {
	case stateTagShared:
		st := &sharedState{loads: r.U64(), stores: r.U64()}
		if err := decodeShared(r, st); err != nil {
			return nil, err
		}
		return st, nil
	case stateTagDistributed:
		n := r.U32()
		if n > isa.NumFU {
			return nil, fmt.Errorf("mem: decoded bank count %d exceeds %d", n, isa.NumFU)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		st := &distributedState{banks: make([][]isa.Word, n)}
		for i := range st.banks {
			b, err := decodeWords(r, maxCheckpointWords)
			if err != nil {
				return nil, err
			}
			st.banks[i] = b
		}
		return st, r.Err()
	default:
		return nil, fmt.Errorf("mem: unknown memory checkpoint tag %d", tag)
	}
}
