package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != wlDistinct+","+wlDaemon {
		t.Errorf("workloads %s", got)
	}
}

// TestShortRunsEmitEveryMetric runs each workload very briefly, traced
// and untraced, and requires every declared metric with its unit and a
// correct result.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both workloads")
	}
	for _, wl := range []string{wlDistinct, wlDaemon} {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload: wl, seed: 7, duration: time.Second, trace: trace,
				instances: 4, setupReps: 1, workDir: t.TempDir(),
			}
			run := runBatch
			if wl == wlDaemon {
				run = runDaemon
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			out.raw["peak_heap_mb"] = 1
			out.raw["storage_saved_pct"] = 1
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			mv, err := report(defs, out.raw)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			for _, d := range defs {
				if mv[d.Name].Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", wl, d.Name, mv[d.Name].Unit, d.Unit)
				}
			}
			if len(out.wrong) > 0 || out.failed > 0 || out.attempted == 0 || out.savedN == 0 {
				t.Errorf("%s trace=%v: wrong %v, failed %d of %d, %d merges", wl, trace, out.wrong, out.failed, out.attempted, out.savedN)
			}
		}
	}
}

// TestGateTripsOnCorruptedResults feeds the correctness gates results
// that break the cost bound or change between iterations.
func TestGateTripsOnCorruptedResults(t *testing.T) {
	s, err := setupRepeated(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := s.instances[0]
	sc := s.db.Schema()
	res, err := coldMerge(s.db, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkMerge(sc, in, res); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}

	again, err := coldMerge(s.db, in)
	if err != nil {
		t.Fatal(err)
	}
	again.FinalCost = again.Bound * 1.01
	if _, err := checkMerge(sc, in, again); err == nil {
		t.Error("a final cost above U passed the gate")
	}

	again, err = coldMerge(s.db, in)
	if err != nil {
		t.Fatal(err)
	}
	again.FinalBytes++
	if _, err := checkMerge(sc, in, again); err == nil || !strings.Contains(err.Error(), "between iterations") {
		t.Errorf("a recommendation that changed between iterations passed the gate: %v", err)
	}

	in.first = nil
	again, err = coldMerge(s.db, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Steps) > 0 {
		again.Steps = again.Steps[:len(again.Steps)-1]
		if _, err := checkMerge(sc, in, again); err == nil {
			t.Error("steps that do not lead to the final configuration passed the gate")
		}
	}
}

// TestDaemonParityTripsOnMismatch checks that a daemon merge result
// differing from the library's, or from an earlier job on the same
// inputs, fails the run.
func TestDaemonParityTripsOnMismatch(t *testing.T) {
	in, err := makeDaemonInputs(5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := libraryMerge(in, 0, "opt")
	if err != nil {
		t.Fatal(err)
	}
	honest := mergeOutcome{set: 0, costModel: "opt", rec: m}
	if wrong := checkMergeParity(in, []mergeOutcome{honest, honest}); len(wrong) > 0 {
		t.Fatalf("honest outcomes rejected: %v", wrong)
	}
	changed := honest
	changed.rec.Checks++
	if wrong := checkMergeParity(in, []mergeOutcome{honest, changed}); len(wrong) == 0 {
		t.Error("a job that changed between iterations passed the gate")
	}
	if wrong := checkMergeParity(in, []mergeOutcome{changed}); len(wrong) == 0 {
		t.Error("a job differing from the library merge passed the gate")
	}
}
