// Command perfbench is the repository's benchmark: it runs one
// workload against the index-merging advisor for a fixed time, checks
// every result for correctness, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of standard
// output. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload batch-distinct --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	instances int // batch: merge instances per run
	setupReps int
	workDir   string // scratch files (journal, spans), inside the checkout
}

// outcome is what a workload run measured.
type outcome struct {
	raw       map[string]float64
	samples   map[string]int
	tails     map[string]bool // tail metric -> has ten samples beyond it
	attempted int64
	failed    int64
	problems  []string // failed operations
	wrong     []string // correctness-gate violations
	saved     float64  // sum of storage_saved_pct over merges
	savedN    int
	tracer    *tracer
}

func (o *outcome) incorrect(err error) {
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, err.Error())
	}
}

// zeroMissing reports 0 for the per-layer metrics a workload does not
// exercise.
func zeroMissing(raw map[string]float64) {
	for _, d := range perLayer {
		if _, ok := raw[d.Name]; !ok {
			raw[d.Name] = 0
		}
	}
}

// heapSampler tracks the peak live heap while a run executes: the
// heap the last garbage collection found reachable, which unlike the
// allocated total does not depend on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in megabytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// envInfo records where a result was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Revision   string `json:"git_revision"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// revision is the VCS revision the binary was built from, when the
// build recorded one.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	return "unknown"
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+wlDistinct+" | "+wlDaemon)
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	cfg := runConfig{
		workload:  *workloadName,
		seed:      *seed,
		duration:  time.Duration(*seconds) * time.Second,
		trace:     *traceFlag == 1,
		instances: batchInstances,
		setupReps: 3,
		workDir:   filepath.Join(".bench_build", "perfbench"),
	}
	if cfg.workload == wlDaemon {
		// Daemon set-up is short, so more repetitions steady its median.
		cfg.setupReps = 7
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 {
		fatal(fmt.Errorf("invalid arguments: -trace must be 0 or 1 and -seconds at least 1"))
	}
	// A run that has not finished well inside the 180 s budget is
	// stuck; fail it rather than hang.
	watchdog := time.AfterFunc(cfg.duration+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}
	heap := startHeapSampler()
	var out *outcome
	var err error
	switch cfg.workload {
	case wlDistinct:
		out, err = runBatch(cfg)
	case wlDaemon:
		out, err = runDaemon(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want %s or %s)", cfg.workload, wlDistinct, wlDaemon)
	}
	peak := heap.Stop()
	if err != nil {
		fatal(err)
	}
	out.raw["peak_heap_mb"] = peak
	if out.savedN > 0 {
		out.raw["storage_saved_pct"] = out.saved / float64(out.savedN)
	}
	if out.tracer != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tracer.write(path); err != nil {
			fatal(fmt.Errorf("write spans: %w", err))
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	mv, err := report(defs, out.raw)
	if err != nil {
		fatal(err)
	}
	for name, ok := range out.tails {
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: warning: %s has fewer than ten samples beyond it\n", name)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", p)
	}
	for _, w := range out.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", w)
	}
	printJSONLine(map[string]any{
		"env": envInfo{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Revision: revision(), Seed: cfg.seed, Workload: cfg.workload, Seconds: *seconds, Trace: cfg.trace,
		},
		"samples": out.samples,
		"tails":   out.tails,
	})
	correct := len(out.wrong) == 0
	printJSONLine(result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: mv})
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
