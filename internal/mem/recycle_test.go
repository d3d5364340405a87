package mem_test

import (
	"runtime"
	"testing"
	"time"

	"ximd/internal/core"
	"ximd/internal/device"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/vliw"
	"ximd/internal/wire"
)

// storeProgram is a straight-line (fusible) program whose FUs store
// nonzero immediates to addresses spread over many pages, page
// boundaries and the last word included, then halt.
func storeProgram() *isa.Program {
	const words, fus = 6, 4
	p := &isa.Program{NumFU: fus, Instrs: make([]isa.Instruction, words+1)}
	for addr := 0; addr < words; addr++ {
		for fu := 0; fu < fus; fu++ {
			target := int32((addr*fus+fu)*40961) % mem.DefaultWords
			if addr == words-1 && fu == fus-1 {
				target = mem.DefaultWords - 1
			}
			p.Instrs[addr][fu] = isa.Parcel{
				Data: isa.DataOp{Op: isa.OpStore, A: isa.I(int32(addr*fus + fu + 1)), B: isa.I(target)},
				Ctrl: isa.Goto(isa.Addr(addr + 1)),
			}
		}
	}
	for fu := 0; fu < fus; fu++ {
		p.Instrs[words][fu] = isa.Parcel{Data: isa.Nop, Ctrl: isa.Halt()}
	}
	return p
}

// checkFresh fails unless m is indistinguishable from a new image: all
// words and dirty bits zero, no mappings, zero counters, default size.
func checkFresh(t *testing.T, tag string, m *mem.Shared) {
	t.Helper()
	if m.Size() != mem.DefaultWords {
		t.Fatalf("%s: Size() = %d, want %d", tag, m.Size(), mem.DefaultWords)
	}
	if m.HasMappings() {
		t.Fatalf("%s: recycled image still has device mappings", tag)
	}
	if l, s := m.Counters(); l != 0 || s != 0 {
		t.Fatalf("%s: counters = %d/%d, want 0/0", tag, l, s)
	}
	words, dirty := m.Raw()
	for a, v := range words {
		if v != 0 {
			t.Fatalf("%s: M(%d) = %d in a recycled image", tag, a, v)
		}
	}
	for i, bm := range dirty {
		if bm != 0 {
			t.Fatalf("%s: dirty word %d = %#x in a recycled image", tag, i, bm)
		}
	}
	// A staged store or a stale cycle would surface on the next commit.
	m.Commit()
	if m.Peek(0) != 0 {
		t.Fatalf("%s: a stale staged store committed", tag)
	}
}

// TestRecycledImageIsFresh writes through every path that can dirty an
// image, releases it, and requires the next NewShared(0) — recycled or
// not — to be indistinguishable from a new one.
func TestRecycledImageIsFresh(t *testing.T) {
	prog := storeProgram()
	if d, err := core.Predecode(prog); err != nil || d.FusibleWords() == 0 {
		t.Fatalf("store program must fuse: %v", err)
	}
	vprog, err := vliw.FromXIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	source := mem.NewShared(0)
	source.PokeInts(mem.PageWords-2, 1, 2, 3, 4)
	source.Poke(mem.DefaultWords-1, 5)
	snap, err := source.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	w := &wire.Writer{}
	if err := mem.EncodeState(w, snap); err != nil {
		t.Fatal(err)
	}
	encoded := w.Bytes()

	paths := []struct {
		name  string
		write func(m *mem.Shared)
	}{
		{"poke", func(m *mem.Shared) {
			m.Poke(0, 1)
			m.PokeInts(3*mem.PageWords-1, 7, 8, 9)
			m.Poke(mem.DefaultWords-1, 2)
		}},
		{"store+commit", func(m *mem.Shared) {
			m.BeginCycle(3)
			_ = m.Store(0, 5*mem.PageWords, 11)
			_ = m.Store(1, 9*mem.PageWords+7, 12)
			_, _ = m.Load(0, 1)
			m.Commit()
		}},
		{"core fused run", func(m *mem.Shared) {
			cm, err := core.New(prog, core.Config{Memory: m})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cm.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"vliw fused run", func(m *mem.Shared) {
			vm, err := vliw.New(vprog, vliw.Config{Memory: m})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"RestoreState", func(m *mem.Shared) {
			m.Poke(77*mem.PageWords, 1)
			if err := m.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeState", func(m *mem.Shared) {
			st, err := mem.DecodeState(wire.NewReader(encoded))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreState(st); err != nil {
				t.Fatal(err)
			}
		}},
		{"mapped device", func(m *mem.Shared) {
			out := device.NewOutPort()
			if err := m.Map(4*mem.PageWords, 4, out); err != nil {
				t.Fatal(err)
			}
			m.BeginCycle(1)
			_ = m.Store(0, 4*mem.PageWords, 3)
			_ = m.Store(1, 4*mem.PageWords+4, 4)
			m.Commit()
			m.BeginCycle(2)
			_ = m.Store(0, 4*mem.PageWords+1, 5) // staged, never committed
		}},
	}
	recycled := 0
	for _, p := range paths {
		m := mem.NewShared(0)
		checkFresh(t, p.name+" (before)", m)
		p.write(m)
		mem.CheckDirtyCovers(t, p.name, m)
		words, _ := m.Raw()
		nonzero := 0
		for _, v := range words {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Fatalf("%s: the write path left the image all zero", p.name)
		}
		m.Release()
		next := mem.NewShared(0)
		if next == m {
			recycled++
		}
		checkFresh(t, p.name, next)
		next.Release()
	}
	if recycled == 0 {
		t.Fatal("no released image was ever recycled")
	}
}

// TestReleasedImageDoesNotSurviveTwoGCs holds the pool to the promise
// that makes it safe for heap-bound benchmarks and long-lived daemons:
// an idle released image is gone after two collections.
func TestReleasedImageDoesNotSurviveTwoGCs(t *testing.T) {
	m := mem.NewShared(0)
	m.Poke(123, 4)
	freed := make(chan struct{})
	runtime.SetFinalizer(m, func(*mem.Shared) { close(freed) })
	m.Release()
	m = nil
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a released image survived two GCs")
	}
}
