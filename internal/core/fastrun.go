package core

import (
	"ximd/internal/isa"
	"ximd/internal/mem"
)

// This file is the runtime half of the fused execution engine (fuse.go
// builds the static tables). StepN is the bulk stepping API: wherever
// the machine sits at the head of a straight-line superop run and the
// runtime preconditions hold, it executes the whole run in one tight
// loop — no per-cycle fetch, control evaluation, partition-tracker
// update, statistics attribution, or staged commit — and reconstructs
// every observable effect at run exit:
//
//   - Statistics: a linear word's per-FU nop/data attribution, port
//     reads/writes, and load/store counts are static (fusedWord), so
//     the run folds them in bulk. The stream histogram is exact: the
//     entry cycle observes the pre-run SSET count, and every later
//     cycle of the run observes one stream, because all FUs execute
//     the identical goto from the same address and the tracker's merge
//     rule joins them after the first update (see fuseExit).
//   - Register file and memory: operand reads go straight to the
//     committed arrays (writes are buffered per word and applied at
//     word end, which the static conflict-freedom rule makes exact;
//     each stored word marks its page in the memory's dirty bitmap),
//     and the cumulative port/counter accounting is folded in bulk via
//     regfile.AddBulk and mem.AddCounters.
//   - Errors: all mid-word effects live in local buffers, so when an
//     op faults (ALU trap, out-of-range access, non-tolerated store
//     conflict) the run discards the buffers, commits the completed
//     prefix, rewinds the machine to the start of the faulting word,
//     and replays that one word through the per-cycle stepFast — which
//     reproduces the partial statistics, the port accounting, and the
//     exact error text of an unfused run, byte for byte.
//
// Runtime preconditions for entering a fused run (checked per StepN
// call and per entry): fast engine, fusion not disabled, no fault
// injection, no tracer, plain *mem.Shared with no device mappings, no
// halted FUs, and all PCs equal. Anything else falls back to the
// per-cycle Step, which remains the single source of truth for one
// cycle's semantics — Step itself never fuses, so cycle-lockstep
// differential tests are unaffected.

// StepN executes up to n machine cycles, using fused superop runs when
// eligible. It is semantically identical to calling Step n times and
// stopping at the first halt or error: the same cycles execute, the
// same statistics accumulate, and the same terminal error (if any) is
// latched and returned.
func (m *Machine) StepN(n uint64) (running bool, err error) {
	fuseActive := m.fuseOK && !m.shared.HasMappings()
	var executed uint64
	for executed < n {
		if fuseActive && m.failure == nil && !m.done && m.haltedBits == 0 {
			if k := m.fusibleAt(); k > 0 {
				if rem := n - executed; k > rem {
					k = rem
				}
				if avail := m.config.MaxCycles - m.cycle; m.cycle >= m.config.MaxCycles {
					k = 0
				} else if k > avail {
					k = avail
				}
				if k > 0 {
					done, err := m.fusedRun(m.pc[0], k)
					executed += done
					if err != nil {
						return false, err
					}
					continue
				}
			}
		}
		running, err := m.Step()
		executed++
		if err != nil {
			return false, err
		}
		if !running {
			return false, nil
		}
	}
	return true, nil
}

// fusibleAt returns the length of the superop run at the current PC, or
// 0 when the machine is not at the head of one (diverged PCs included).
func (m *Machine) fusibleAt() uint64 {
	pc := m.pc[0]
	k := uint64(m.fuse.runLen[pc])
	if k == 0 {
		return 0
	}
	for fu := 1; fu < m.numFU; fu++ {
		if m.pc[fu] != pc {
			return 0
		}
	}
	return k
}

// fusedRun executes up to maxWords words of the superop run starting at
// entry (all preconditions already checked). It returns the number of
// cycles executed and the terminal error, if any.
func (m *Machine) fusedRun(entry isa.Addr, maxWords uint64) (uint64, error) {
	fi := m.fuse
	regs := m.regs.Raw()
	words, dirty := m.shared.Raw()
	memSize := uint32(len(words))
	tolerate := m.config.TolerateConflicts

	k := uint64(fi.runLen[entry])
	if k > maxWords {
		k = maxWords
	}
	entryCycle := m.cycle
	s0 := m.tracker.numSSETs()
	ccBits, ccValidBits := m.ccBits, m.ccValidBits
	var lastSS uint8

	for i := uint64(0); i < k; i++ {
		addr := entry + isa.Addr(i)
		w := &fi.words[addr]
		ops := fi.ops[w.opStart:w.opEnd]

		// Word-local buffers: nothing machine-visible mutates until the
		// whole word has executed, so a faulting op can discard the word
		// and hand it to the per-cycle replay untouched.
		var nw, ns int
		var wReg [isa.NumFU]uint8
		var wVal [isa.NumFU]isa.Word
		var sAddr [isa.NumFU]uint32
		var sVal [isa.NumFU]isa.Word
		var ccSet, ccVal uint8
		var conflicts uint64

		for oi := range ops {
			op := &ops[oi]
			var a, b isa.Word
			if op.Flags&(flagReadsA|flagAImm) == flagReadsA {
				a = regs[op.AReg]
			} else {
				a = op.AImm
			}
			if op.Flags&(flagReadsB|flagBImm) == flagReadsB {
				b = regs[op.BReg]
			} else {
				b = op.BImm
			}
			switch op.Op {
			case isa.OpLoad:
				laddr := uint32(a.Int() + b.Int())
				if laddr >= memSize {
					return m.fuseBail(entry, i, s0, lastSS, ccBits, ccValidBits, entryCycle)
				}
				wReg[nw] = op.Dest
				wVal[nw] = words[laddr]
				nw++
			case isa.OpStore:
				saddr := uint32(b.Int())
				if saddr >= memSize {
					return m.fuseBail(entry, i, s0, lastSS, ccBits, ccValidBits, entryCycle)
				}
				for si := 0; si < ns; si++ {
					if sAddr[si] == saddr {
						if !tolerate {
							return m.fuseBail(entry, i, s0, lastSS, ccBits, ccValidBits, entryCycle)
						}
						conflicts++
						break
					}
				}
				sAddr[ns] = saddr
				sVal[ns] = a
				ns++
			default:
				res, cc, aerr := isa.EvalALU(op.Op, a, b)
				if aerr != nil {
					return m.fuseBail(entry, i, s0, lastSS, ccBits, ccValidBits, entryCycle)
				}
				if op.Flags&flagWritesCC != 0 {
					bit := uint8(1) << op.fu
					ccSet |= bit
					if cc {
						ccVal |= bit
					}
				} else if op.Flags&flagWritesReg != 0 {
					wReg[nw] = op.Dest
					wVal[nw] = res
					nw++
				}
			}
		}

		// Word commit: reads of the next word must observe this word's
		// writes, exactly like the staged per-cycle commit. Staging order
		// is FU order, so "last staged wins" on a tolerated store
		// conflict is reproduced by applying the buffer in order.
		for wi := 0; wi < nw; wi++ {
			regs[wReg[wi]] = wVal[wi]
		}
		for si := 0; si < ns; si++ {
			words[sAddr[si]] = sVal[si]
			dirty[mem.DirtyIndex(sAddr[si])] |= mem.DirtyBit(sAddr[si])
		}
		ccBits = (ccBits &^ ccSet) | ccVal
		ccValidBits |= ccSet
		m.stats.MemConflicts += conflicts
		lastSS = w.ssMask
	}

	m.fuseExit(entry, k, s0, lastSS, ccBits, ccValidBits, entryCycle)
	return k, nil
}

// fuseExit commits the bulk bookkeeping of j completed words of the run
// starting at entry, leaving the machine byte-identical to j per-cycle
// steps: statistics, port and memory accounting, architectural state
// (PCs, CC/SS vectors, cycle count), the partition tracker, and the
// livelock digest.
func (m *Machine) fuseExit(entry isa.Addr, j uint64, s0 int, lastSS, ccBits, ccValidBits uint8, entryCycle uint64) {
	fi := m.fuse
	n := m.numFU

	var loads, stores, reads, writes uint64
	peakR, peakW := 0, 0
	for wi := uint64(0); wi < j; wi++ {
		w := &fi.words[entry+isa.Addr(wi)]
		loads += uint64(w.loads)
		stores += uint64(w.stores)
		reads += uint64(w.reads)
		writes += uint64(w.writes)
		if int(w.reads) > peakR {
			peakR = int(w.reads)
		}
		if int(w.writes) > peakW {
			peakW = int(w.writes)
		}
		nm := w.nopMask
		for fu := 0; fu < n; fu++ {
			if nm&(1<<fu) != 0 {
				m.stats.Nops[fu]++
			} else {
				m.stats.DataOps[fu]++
			}
		}
	}
	m.stats.Loads += loads
	m.stats.Stores += stores

	// Stream accounting. The entry cycle observes the pre-run partition
	// (the tracker updates after statistics, so the per-cycle path would
	// see the same). Every FU then executes the identical goto from the
	// same address, so the tracker's split pass groups by (sset, pc,
	// tag) and its merge pass joins all groups on the shared goto tag —
	// after one update the partition is a single SSET (the documented
	// over-merge rule for same-address unconditional branches), and it
	// stays that way for the rest of the run.
	m.stats.observeStreams(s0)
	if j > 1 {
		m.stats.Cycles += j - 1
		m.stats.StreamHistogram[1] += j - 1
	}

	m.regs.AddBulk(j, reads, writes, peakR, peakW)
	m.shared.AddCounters(loads, stores)

	exit := entry + isa.Addr(j)
	for fu := 0; fu < n; fu++ {
		m.pc[fu] = exit
	}
	m.ccBits, m.ccValidBits = ccBits, ccValidBits
	m.ssBits = lastSS
	m.prevSSBits = lastSS
	m.cycle = entryCycle + j
	m.tracker.mergeAll()

	if m.config.DetectLivelock {
		// Reconstruct the digest of the run's final cycle. A fused run
		// can never itself trip the detector: PCs strictly increase, so
		// no two consecutive in-run cycles share a fingerprint.
		w := &fi.words[exit-1]
		var fp fingerprint
		fp.valid = true
		fp.wrote = w.wrote
		for fu := 0; fu < n; fu++ {
			fp.pc[fu] = exit
		}
		fp.cc = ccBits
		fp.ss = lastSS
		m.prevState = fp
	}
}

// fuseBail handles an op fault inside word entry+i of a fused run: the
// completed prefix [entry, entry+i) commits its bulk bookkeeping, the
// machine rewinds to the start of the faulting word (its buffered
// effects are simply dropped), and the word replays through the
// per-cycle stepFast, which reproduces the partial statistics and the
// exact error of an unfused run.
func (m *Machine) fuseBail(entry isa.Addr, i uint64, s0 int, lastSS, ccBits, ccValidBits uint8, entryCycle uint64) (uint64, error) {
	if i > 0 {
		m.fuseExit(entry, i, s0, lastSS, ccBits, ccValidBits, entryCycle)
	}
	_, err := m.stepFast()
	executed := i
	if err == nil {
		// The replay disagreeing with the fused fault detection would be
		// an engine bug; counting the replayed cycle keeps StepN's
		// bookkeeping honest either way.
		executed++
	}
	return executed, err
}

// mergeAll collapses the partition to a single SSET containing every
// FU — the state the tracker reaches after one update in which all FUs
// execute the identical control operation from the same address.
func (t *partitionTracker) mergeAll() {
	for i := range t.sset {
		t.sset[i] = 0
	}
}
