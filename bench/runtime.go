package main

import (
	"os"
	"runtime"
	"runtime/metrics"
)

// liveHeapMB collects the benchmark's heap and returns what stays live:
// the memory an in-process workload holds. The second collection
// empties the sweep engine's machine pools, which survive one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM)
// from its current size, so a peak read later covers only what runs in
// between, not set-up.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// runtimeSample is the benchmark process's allocation and CPU totals.
// A traced pass of an in-process workload sums the differences across
// its passes only, leaving out the collections the benchmark forces
// between passes.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	return out
}

// measure runs f and adds what it allocated and the CPU time that
// passed, in total and in the collector, to s.
func (s *runtimeSample) measure(f func() error) error {
	before := readRuntime()
	err := f()
	after := readRuntime()
	s.allocBytes += after.allocBytes - before.allocBytes
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
	return err
}

// perRun returns the MB allocated per run and the share of CPU time
// spent in the collector.
func (s runtimeSample) perRun(runs int) (allocMBPerRun, gcCPUFrac float64) {
	if runs > 0 {
		allocMBPerRun = float64(s.allocBytes) / (1 << 20) / float64(runs)
	}
	if s.totalCPU > 0 {
		gcCPUFrac = s.gcCPU / s.totalCPU
	}
	return allocMBPerRun, gcCPUFrac
}
