package ximd_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarksRunOnce executes the whole benchmark suite with
// -benchtime=1x so a benchmark that stops compiling or starts failing is
// caught by the ordinary test run instead of bit-rotting until the next
// hand-run evaluation. The history of the key throughput numbers lives
// in EXPERIMENTS.md ("Benchmark history"); `bash bench/run.sh` is the
// benchmark that measures them.
func TestBenchmarksRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchtime", "1x", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark suite failed: %v\n%s", err, out)
	}
	for _, needle := range []string{"BenchmarkSimulatorThroughput", "BenchmarkSimulatorThroughputReference", "ok"} {
		if !strings.Contains(string(out), needle) {
			t.Fatalf("benchmark output missing %q:\n%s", needle, out)
		}
	}
}
