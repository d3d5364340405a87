package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"ximd/internal/asm"
	"ximd/internal/compiler"
	"ximd/internal/hostcfg"
	"ximd/internal/runner"
	"ximd/internal/serve"
)

// jobTemplate is the minic program every service and fleet job runs: a
// hash-style accumulation over a 64-word table, with the trip count n
// poked per job so one program (one digest, one cache entry) serves
// jobs of any size. mult and add make programs distinct.
const jobTemplate = `
var out[1], n, t[64];

func main() {
    var i, s = 0, nn = n;
    for (i = 0; i < nn; i = i + 1) {
        s = s * %d + (t[i & 63] ^ i) + %d;
    }
    out[0] = s;
}`

// tableLen is the length of the template's t array.
const tableLen = 64

// jobProgram is one compiled instance of jobTemplate. It is compiled
// for one functional unit: a single instruction stream stays correct
// under lat= latency injection on XIMD, where a multi-FU schedule
// compiled for lockstep issue would desynchronise and fault, and it
// converts to VLIW as is.
type jobProgram struct {
	mult, add      int32
	source         string // assembly text, as submitted
	outAddr, nAddr uint32
	tAddr          uint32
	words          int
	compileMS      float64
}

// compileJobProgram compiles jobTemplate with the given constants.
func compileJobProgram(mult, add int32) (*jobProgram, error) {
	start := time.Now()
	c, err := compiler.Compile(fmt.Sprintf(jobTemplate, mult, add), compiler.Options{Width: 1, Unroll: 4})
	if err != nil {
		return nil, fmt.Errorf("compile job program: %w", err)
	}
	p := &jobProgram{mult: mult, add: add, source: asm.Format(c.Prog), words: len(c.Prog.Instrs), compileMS: sinceMS(start)}
	for name, dst := range map[string]*uint32{"out": &p.outAddr, "n": &p.nAddr, "t": &p.tAddr} {
		sym, ok := c.Syms.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("job program has no global %q", name)
		}
		*dst = sym.Addr
	}
	return p, nil
}

// expect is the Go reference for out[0].
func (p *jobProgram) expect(n int32, table []int32) int32 {
	var s int32
	for i := int32(0); i < n; i++ {
		s = s*p.mult + (table[i&(tableLen-1)] ^ i) + p.add
	}
	return s
}

// request builds the job request that runs p for n iterations over table.
func (p *jobProgram) request(arch runner.Arch, n int32, table []int32, seed int64, inject string) serve.JobRequest {
	vals := make([]string, len(table))
	for i, v := range table {
		vals[i] = strconv.Itoa(int(v))
	}
	return serve.JobRequest{
		Arch:   string(arch),
		Source: p.source,
		Seed:   seed,
		Inject: inject,
		// Four times the idealized length leaves room for injected stalls.
		MaxCycles: uint64(n)*4*cyclesPerIterCeil + 1<<16,
		Mem: []string{
			fmt.Sprintf("%d=%d", p.nAddr, n),
			fmt.Sprintf("%d=%s", p.tAddr, strings.Join(vals, ",")),
		},
		Peeks: []string{fmt.Sprintf("%d:1", p.outAddr)},
	}
}

// cyclesPerIterCeil bounds the template's idealized cycles per loop
// iteration from above (it measures under 10 at one FU and unroll 4).
const cyclesPerIterCeil = 16

// cyclesPerIter measures the template's idealized cycles per iteration
// by running it in-process at two trip counts, so job sizes can be
// chosen in cycles.
func cyclesPerIter(p *jobProgram) (float64, error) {
	prog, err := runner.Load(runner.ArchXIMD, []byte(p.source))
	if err != nil {
		return 0, err
	}
	table := make([]int32, tableLen)
	run := func(n int32) (uint64, error) {
		spec := runner.Spec{MemPokes: []hostcfg.MemPoke{{Base: p.nAddr, Vals: []int32{n}}, {Base: p.tAddr, Vals: table}}}
		res, err := runner.Run(context.Background(), prog, spec, runner.Options{})
		return res.Cycles, err
	}
	c1, err1 := run(256)
	c2, err2 := run(512)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("calibrate job program: %v %v", err1, err2)
	}
	return float64(c2-c1) / 256, nil
}

// randTable draws a table of small values.
func randTable(r *rand.Rand) []int32 {
	t := make([]int32, tableLen)
	for i := range t {
		t[i] = int32(r.Intn(1 << 16))
	}
	return t
}

// checkPeek verifies a result document's out[0] against want.
func checkPeek(doc *runner.ResultDoc, want int32) error {
	if doc == nil {
		return fmt.Errorf("no result document")
	}
	if len(doc.Peeks) != 1 || len(doc.Peeks[0].Values) != 1 {
		return fmt.Errorf("want one out[0] peek, got %+v", doc.Peeks)
	}
	if got := doc.Peeks[0].Values[0]; got != want {
		return fmt.Errorf("out[0] = %d, want %d", got, want)
	}
	if doc.Cycles == 0 {
		return fmt.Errorf("zero cycles")
	}
	return nil
}
