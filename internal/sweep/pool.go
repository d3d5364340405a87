// Machine pooling. A sweep retires thousands of short machine runs, and
// building each machine from scratch allocates a register file plus a
// dozen per-FU state slices that are dead the moment the task's Outcome
// is extracted. The pools below recycle machines through Machine.Reset
// instead: pools are keyed by config shape (the functional-unit count),
// so a recycled machine's per-FU slices are already exactly the right
// size and a rebind allocates nothing in steady state.
//
// The contract with Reset keeps this safe: Reset rebinds every piece of
// architectural and host state (TestResetMatchesNew holds it to the New
// contract), and a machine whose Reset or run failed is simply not
// returned to the pool — errors discard, never recycle. Memory images
// go back through mem.Shared.Release under the same rule: a task's
// environment is the image's sole owner, so once the result check has
// read it and the machine is back in its pool, nothing can touch it.
package sweep

import (
	"sync"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/mem"
	"ximd/internal/vliw"
	"ximd/internal/workloads"
)

// ximdPools and vliwPools hold retired machines, indexed by the
// functional-unit count they were last bound to (the config shape).
var (
	ximdPools [isa.NumFU + 1]sync.Pool
	vliwPools [isa.NumFU + 1]sync.Pool
)

// acquireXIMD returns a machine bound to prog and cfg, recycling a
// pooled machine of the same shape when one is available.
func acquireXIMD(prog *isa.Program, cfg core.Config) (*core.Machine, error) {
	if v := ximdPools[prog.NumFU].Get(); v != nil {
		m := v.(*core.Machine)
		if err := m.Reset(prog, cfg); err != nil {
			return nil, err // half-bound machine: discard, never pool
		}
		return m, nil
	}
	return core.New(prog, cfg)
}

// releaseXIMD returns a successfully-run machine to its shape's pool.
// Callers must not touch the machine (or anything borrowed from it,
// like Regs) afterwards.
func releaseXIMD(numFU int, m *core.Machine) { ximdPools[numFU].Put(m) }

// acquireVLIW is the VLIW counterpart of acquireXIMD.
func acquireVLIW(prog *vliw.Program, cfg vliw.Config) (*vliw.Machine, error) {
	if v := vliwPools[prog.NumFU].Get(); v != nil {
		m := v.(*vliw.Machine)
		if err := m.Reset(prog, cfg); err != nil {
			return nil, err
		}
		return m, nil
	}
	return vliw.New(prog, cfg)
}

// releaseVLIW returns a successfully-run machine to its shape's pool.
func releaseVLIW(numFU int, m *vliw.Machine) { vliwPools[numFU].Put(m) }

// releaseMem recycles a successful task's shared-memory image. Only
// call it after the machine is released and the result checked.
func releaseMem(env *workloads.Env) {
	if sh, ok := env.Mem.(*mem.Shared); ok {
		sh.Release()
	}
}
