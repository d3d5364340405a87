package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ximd/internal/hostcfg"
	"ximd/internal/obs"
	"ximd/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_cycles_seed1.json")

// goldenPath holds each workload's sim_cycles for seed 1 at the short
// run length the test uses; a change to a workload generator (or to
// simulated timing) changes it.
const goldenPath = "testdata/sim_cycles_seed1.json"

// TestSpecMatchesBenchmarkJSON checks that the metrics and workloads the
// program emits are exactly the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloads runs every workload briefly, traced, with the daemons
// built into a temporary directory, and checks that each emits every
// metric with its unit, fails nothing, and simulates the golden number
// of cycles.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs every workload")
	}
	work := t.TempDir()
	out := filepath.Join(work, "runs.jsonl")
	got := map[string]float64{}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "1", "-seconds", "0.5", "-trace", "1", "-work", work, "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool                 `json:"correct"`
				Attempted int                  `json:"attempted"`
				Failed    int                  `json:"failed"`
				Metrics   map[string]metricOut `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
			}
			if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d\n%s", last.Correct, last.Attempted, last.Failed, stdout.String())
			}
			if len(last.Metrics) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, want the %d per-layer ones", len(last.Metrics), len(perLayer))
			}
			if v := last.Metrics["bench.fail_frac"]; v.Value != 0 || v.Unit != "ratio" {
				t.Errorf("bench.fail_frac = %+v, want 0 ratio", v)
			}
			if _, err := os.Stat(filepath.Join(work, "spans", w.name+"-seed1.ndjson")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}

	recs, err := loadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %q", r.Workload, d.name, m, d.unit)
				}
			}
		}
		for _, d := range endToEnd {
			if r.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.name, r.Metrics[d.name].Value)
			}
		}
		got[r.Workload] = r.Metrics["sim_cycles"].Value
	}
	if *update {
		b, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("%s: sim_cycles %v for seed 1, golden %v (run with -update if the change is intended)", w, got[w], c)
		}
	}
}

// TestReferencesCatchWrongOutput shows the output checks are not
// vacuous: every kernel's reference accepts a real run and rejects the
// same memory image with one output word changed, and the job program's
// reference matches the simulator.
func TestReferencesCatchWrongOutput(t *testing.T) {
	ks, err := setupKernels(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks.kernels {
		res, err := runner.Run(context.Background(), k.ideal, runner.Spec{MemPokes: k.pokes}, runner.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if err := k.check(res.Memory); err != nil {
			t.Fatalf("%s: reference rejects a correct run: %v", k.name, err)
		}
		// Every kernel declares its output last, so the highest non-zero
		// word of the data region is an output word.
		addr := uint32(0x1000 + 1<<18)
		for addr > 0x1000 && res.Memory.PeekInts(addr, 1)[0] == 0 {
			addr--
		}
		res.Memory.PokeInts(addr, res.Memory.PeekInts(addr, 1)[0]+1)
		if k.check(res.Memory) == nil {
			t.Errorf("%s: reference accepts a changed output word at %d", k.name, addr)
		}
	}

	p, err := compileJobProgram(31, 12345)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := runner.Load(runner.ArchXIMD, []byte(p.source))
	if err != nil {
		t.Fatal(err)
	}
	table := make([]int32, tableLen)
	for i := range table {
		table[i] = int32(i * 977)
	}
	spec := runner.Spec{Inject: latInject, Seed: 5, MemPokes: []hostcfg.MemPoke{{Base: p.nAddr, Vals: []int32{1000}}, {Base: p.tAddr, Vals: table}}}
	res, err := runner.Run(context.Background(), prog, spec, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := runner.NewResultDoc(res, []hostcfg.MemPeek{{Base: p.outAddr, N: 1}}, false)
	if err := checkPeek(&doc, p.expect(1000, table)); err != nil {
		t.Errorf("job program under %s: %v", latInject, err)
	}
	if err := checkPeek(&doc, p.expect(1000, table)+1); err == nil {
		t.Error("checkPeek accepted a wrong out[0]")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread measure the comparison rules use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([1,5], n=4) == [0.0, 3.0, 6.0]
		{[]float64{1, 5}, 0, 3, 6},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		next   []float64
		better string
		bound  *float64
		want   string
	}{
		{"faster on every pair", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "lower", &bound, "improved"},
		{"same", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, "lower", &bound, "within bound"},
		{"slower beyond the bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", &bound, "worse"},
		{"higher is better", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "higher", &bound, "improved"},
		{"no bound, no clear change", []float64{99, 102, 100, 98, 101, 100, 99, 103, 100, 100}, "lower", nil, "unresolved"},
		{"no bound, clearly worse", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", nil, "worse"},
	} {
		if got, _ := verdict(base, tc.next, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _ := verdict(wide, wide, "lower", &bound); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

// TestSelfMS checks self time: a span minus the union of its
// same-process children, with overlapping children counted once.
func TestSelfMS(t *testing.T) {
	spans := []obs.Span{
		{SpanID: "p", Name: "job", StartUnixMS: 1, Ms: 10},
		{SpanID: "a", ParentID: "p", StartOffMS: 1, Ms: 3},
		{SpanID: "b", ParentID: "p", StartOffMS: 2, Ms: 3},
		{SpanID: "c", ParentID: "p", StartOffMS: 8, Ms: 5},
		{SpanID: "r", ParentID: "p", StartUnixMS: 7, Ms: 9}, // another process's subtree
	}
	ix := indexSpans(spans)
	if got := ix.selfMS(ix.byID["p"]); got != 4 {
		t.Errorf("selfMS = %v, want 4 (10 - [1,5) - [8,10))", got)
	}
}
