package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ximd/internal/isa"
	"ximd/internal/wire"
)

// fullScanEncodeWords is the sparse encoder as it was before dirty-page
// tracking: one pass over every word of the array. It is the oracle the
// dirty-page encoder must match byte for byte.
func fullScanEncodeWords(w *wire.Writer, words []isa.Word) {
	w.U32(uint32(len(words)))
	var nseg uint32
	forEachSegment(words, func(start, end int) { nseg++ })
	w.U32(nseg)
	forEachSegment(words, func(start, end int) {
		w.U32(uint32(start))
		w.U32(uint32(end - start))
		for _, v := range words[start:end] {
			w.U32(uint32(v))
		}
	})
}

// fullScanEncodeShared is the oracle's encoding of a whole shared image.
func fullScanEncodeShared(m *Shared) []byte {
	w := &wire.Writer{}
	w.U8(stateTagShared)
	w.U64(m.loads)
	w.U64(m.stores)
	fullScanEncodeWords(w, m.words)
	return w.Bytes()
}

// writeRandomImage pokes a random mix of the layouts that stress the
// segment walk at page granularity: segments straddling a page
// boundary, short zero runs that end a page next to a clean page, zero
// words written onto otherwise clean pages, and scattered singletons.
func writeRandomImage(r *rand.Rand, m *Shared) {
	size := int(m.Size())
	pages := (size + PageWords - 1) / PageWords
	word := func() isa.Word {
		if r.Intn(5) == 0 {
			return 0
		}
		return isa.Word(r.Uint32() | 1)
	}
	for n := r.Intn(40); n > 0; n-- {
		p := r.Intn(pages)
		lo := p * PageWords
		switch r.Intn(5) {
		case 0: // straddle the boundary into the next page
			start := lo + PageWords - 1 - r.Intn(segGap+2)
			for a := start; a < start+r.Intn(2*segGap+4)+1 && a < size; a++ {
				m.Poke(uint32(a), word())
			}
		case 1: // nonzero tail of a page, then fewer than segGap zeros
			end := min(lo+PageWords, size)
			a := end - 1 - r.Intn(segGap)
			m.Poke(uint32(a), isa.Word(r.Uint32()|1))
		case 2: // an all-zero write on its own page
			m.Poke(uint32(lo+r.Intn(min(PageWords, size-lo))), 0)
		case 3: // two nonzero words separated by a short zero run
			a := lo + r.Intn(min(PageWords, size-lo))
			m.Poke(uint32(a), isa.Word(r.Uint32()|1))
			if b := a + 1 + r.Intn(2*segGap); b < size {
				m.Poke(uint32(b), isa.Word(r.Uint32()|1))
			}
		default:
			m.Poke(uint32(r.Intn(size)), word())
		}
	}
	m.AddCounters(uint64(r.Intn(1000)), uint64(r.Intn(1000)))
}

// TestDirtyPageEncodingMatchesFullScan holds the dirty-page encoder to
// the full-scan oracle on random images, including partial last pages
// and the default 1M-word geometry, and round-trips every encoding
// through DecodeState and RestoreState onto an image dirtied elsewhere.
func TestDirtyPageEncodingMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	sizes := []uint32{1, PageWords - 3, PageWords, 3*PageWords + 17, 64*PageWords + 5, DefaultWords}
	for iter := 0; iter < 120; iter++ {
		size := sizes[iter%len(sizes)]
		src := NewShared(size)
		writeRandomImage(r, src)
		st, err := src.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		w := &wire.Writer{}
		if err := EncodeState(w, st); err != nil {
			t.Fatal(err)
		}
		want := fullScanEncodeShared(src)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("iter %d (size %d): dirty-page encoding differs from the full scan (%d vs %d bytes)",
				iter, size, w.Len(), len(want))
		}

		decoded, err := DecodeState(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		dst := NewShared(size)
		writeRandomImage(r, dst)
		if err := dst.RestoreState(decoded); err != nil {
			t.Fatal(err)
		}
		if !equalWords(dst.words, src.words) {
			t.Fatalf("iter %d: restored image differs from the snapshot source", iter)
		}
		CheckDirtyCovers(t, fmt.Sprintf("iter %d", iter), dst)
		if !bytes.Equal(fullScanEncodeShared(dst), want) {
			t.Fatalf("iter %d: restored image re-encodes differently", iter)
		}
	}
}

// TestRestoreStateZeroesPagesTheSnapshotNeverTouched restores a snapshot
// onto an image dirtied on other pages: those pages must read zero.
func TestRestoreStateZeroesPagesTheSnapshotNeverTouched(t *testing.T) {
	src := NewShared(0)
	src.Poke(5, isa.WordFromInt(7))
	st, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewShared(0)
	dst.Poke(5*PageWords+3, isa.WordFromInt(9))
	dst.Poke(DefaultWords-1, isa.WordFromInt(9))
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !equalWords(dst.words, src.words) {
		t.Fatal("restore left words of pages the snapshot never touched")
	}
	for i, bm := range dst.dirty {
		if bm != src.dirty[i] {
			t.Fatalf("dirty word %d = %#x, want the snapshot's %#x", i, bm, src.dirty[i])
		}
	}
}

func equalWords(a, b []isa.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckDirtyCovers fails if a nonzero word lies on a page the bitmap
// calls clean: the invariant every dirty-page shortcut rests on. It is
// exported for the external recycling tests.
func CheckDirtyCovers(t *testing.T, tag string, m *Shared) {
	t.Helper()
	for a, v := range m.words {
		if v != 0 && m.dirty[DirtyIndex(uint32(a))]&DirtyBit(uint32(a)) == 0 {
			t.Fatalf("%s: M(%d) = %d on a page marked clean", tag, a, v)
		}
	}
}
