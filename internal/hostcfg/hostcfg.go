// Package hostcfg parses the host-initialization flags shared by the
// xsim and vsim command-line tools: register pokes, memory pokes, and
// memory peeks.
package hostcfg

import (
	"fmt"
	"strconv"
	"strings"

	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/regfile"
)

// RegPoke is one register initialization, parsed from "rN=V".
type RegPoke struct {
	Reg uint8
	Val int32
}

// MemPoke is one memory initialization, parsed from "ADDR=V,V,V".
type MemPoke struct {
	Base uint32
	Vals []int32
}

// MemPeek is one result range, parsed from "ADDR:N".
type MemPeek struct {
	Base uint32
	N    int
}

// ParseRegPokes parses comma-free repeated "rN=V" specs.
func ParseRegPokes(specs []string) ([]RegPoke, error) {
	var out []RegPoke
	for _, s := range specs {
		parts := strings.SplitN(s, "=", 2)
		if len(parts) != 2 || !strings.HasPrefix(parts[0], "r") {
			return nil, fmt.Errorf("bad register poke %q (want rN=V)", s)
		}
		reg, err := strconv.Atoi(parts[0][1:])
		if err != nil || reg < 0 || reg >= isa.NumRegs {
			return nil, fmt.Errorf("bad register in %q", s)
		}
		val, err := strconv.ParseInt(parts[1], 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q", s)
		}
		out = append(out, RegPoke{Reg: uint8(reg), Val: int32(val)})
	}
	return out, nil
}

// ParseMemPokes parses repeated "ADDR=V,V,V" specs.
func ParseMemPokes(specs []string) ([]MemPoke, error) {
	var out []MemPoke
	for _, s := range specs {
		parts := strings.SplitN(s, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad memory poke %q (want ADDR=V,V,...)", s)
		}
		base, err := strconv.ParseUint(parts[0], 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad address in %q", s)
		}
		var vals []int32
		for _, tok := range strings.Split(parts[1], ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 32)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", tok, s)
			}
			vals = append(vals, int32(v))
		}
		out = append(out, MemPoke{Base: uint32(base), Vals: vals})
	}
	return out, nil
}

// ParseMemPeeks parses repeated "ADDR:N" specs. A range that leaves
// the default shared-memory address space is rejected: a peek is read
// into a fresh N-word slice, so an unbounded N is an unbounded
// allocation.
func ParseMemPeeks(specs []string) ([]MemPeek, error) {
	var out []MemPeek
	for _, s := range specs {
		parts := strings.SplitN(s, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad memory peek %q (want ADDR:N)", s)
		}
		base, err := strconv.ParseUint(parts[0], 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad address in %q", s)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count in %q", s)
		}
		if base+uint64(n) > mem.DefaultWords {
			return nil, fmt.Errorf("memory peek %q: range [%d,%d) outside memory of %d words", s, base, base+uint64(n), mem.DefaultWords)
		}
		out = append(out, MemPeek{Base: uint32(base), N: n})
	}
	return out, nil
}

// Apply pokes the parsed initializations into a register file and
// memory.
func Apply(regs *regfile.File, memory *mem.Shared, rp []RegPoke, mp []MemPoke) {
	for _, p := range rp {
		regs.Poke(p.Reg, isa.WordFromInt(p.Val))
	}
	for _, p := range mp {
		memory.PokeInts(p.Base, p.Vals...)
	}
}

// StringsFlag collects a repeatable string flag.
type StringsFlag []string

// String implements flag.Value.
func (f *StringsFlag) String() string { return strings.Join(*f, " ") }

// Set implements flag.Value.
func (f *StringsFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}
