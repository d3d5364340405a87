package hostcfg

import (
	"strings"
	"testing"

	"ximd/internal/mem"
	"ximd/internal/regfile"
)

func TestParseRegPokes(t *testing.T) {
	pokes, err := ParseRegPokes([]string{"r2=4", "r255=-1", "r0=0x10"})
	if err != nil {
		t.Fatal(err)
	}
	want := []RegPoke{{2, 4}, {255, -1}, {0, 16}}
	for i := range want {
		if pokes[i] != want[i] {
			t.Fatalf("pokes = %+v, want %+v", pokes, want)
		}
	}
	for _, bad := range []string{"x2=4", "r=1", "r300=1", "r2", "r2=zebra"} {
		if _, err := ParseRegPokes([]string{bad}); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseMemPokes(t *testing.T) {
	pokes, err := ParseMemPokes([]string{"256=5,3, 4,7", "0x100=9"})
	if err != nil {
		t.Fatal(err)
	}
	if pokes[0].Base != 256 || len(pokes[0].Vals) != 4 || pokes[0].Vals[3] != 7 {
		t.Fatalf("pokes[0] = %+v", pokes[0])
	}
	if pokes[1].Base != 256 || pokes[1].Vals[0] != 9 {
		t.Fatalf("pokes[1] = %+v", pokes[1])
	}
	for _, bad := range []string{"=5", "abc=5", "10=x", "10"} {
		if _, err := ParseMemPokes([]string{bad}); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseMemPeeks(t *testing.T) {
	peeks, err := ParseMemPeeks([]string{"1024:4"})
	if err != nil {
		t.Fatal(err)
	}
	if peeks[0] != (MemPeek{Base: 1024, N: 4}) {
		t.Fatalf("peek = %+v", peeks[0])
	}
	for _, bad := range []string{"1024", "x:4", "1024:0", "1024:x"} {
		if _, err := ParseMemPeeks([]string{bad}); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestParseMemPeeksBoundsRange holds peeks to the address space: the
// last word is readable, one past it is not, and a huge count fails at
// parse time instead of allocating its slice.
func TestParseMemPeeksBoundsRange(t *testing.T) {
	for _, ok := range []string{"0:1048576", "1048575:1", "1048560:16"} {
		if _, err := ParseMemPeeks([]string{ok}); err != nil {
			t.Errorf("rejected in-range %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"0:1048577", "1048576:1", "1048575:2", "0:2000000000", "4294967295:1", "0:9223372036854775807"} {
		_, err := ParseMemPeeks([]string{bad})
		if err == nil {
			t.Errorf("accepted out-of-range %q", bad)
			continue
		}
		if !strings.Contains(err.Error(), "outside memory of 1048576 words") || !strings.Contains(err.Error(), bad) {
			t.Errorf("%q: error %q does not name the range", bad, err)
		}
	}
}

func TestApply(t *testing.T) {
	regs := regfile.New()
	m := mem.NewShared(64)
	rp, _ := ParseRegPokes([]string{"r5=42"})
	mp, _ := ParseMemPokes([]string{"10=1,2,3"})
	Apply(regs, m, rp, mp)
	if regs.Peek(5).Int() != 42 {
		t.Error("register poke not applied")
	}
	if m.Peek(11).Int() != 2 {
		t.Error("memory poke not applied")
	}
}

func TestStringsFlag(t *testing.T) {
	var f StringsFlag
	_ = f.Set("a")
	_ = f.Set("b")
	if len(f) != 2 || f.String() != "a b" {
		t.Fatalf("flag = %v (%q)", f, f.String())
	}
}
