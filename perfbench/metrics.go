package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef declares one reported metric as BENCHMARK.json names it;
// end-to-end metrics carry the regression bound. README.md lists, for
// each per-layer metric, the end-to-end metric and workload it should
// move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

const (
	wlDistinct = "batch-distinct"
	wlDaemon   = "daemon-two-tenant"
)

// endToEnd lists the metrics a run with -trace 0 prints, on every
// workload. cost_p99_ms is reported per layer instead: on the daemon it
// moves with every scheduling hiccup of a shared two-CPU machine, and
// its run-to-run spread reached the largest bound allowed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "storage_saved_pct", Unit: "%", Better: "higher", Bound: 0.2},
	{Name: "merge_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "merge_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cost_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics a run with -trace 1 prints, on every
// workload; a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "optimizer.calls", Unit: "count", Better: "lower"},
	{Name: "optimizer.cost_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "optimizer.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "costcache.hits", Unit: "count", Better: "higher"},
	{Name: "costcache.misses", Unit: "count", Better: "lower"},
	{Name: "costcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "costcache.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checks", Unit: "count", Better: "lower"},
	{Name: "core.configs_explored", Unit: "count", Better: "lower"},
	{Name: "core.check_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.seekcost_ms", Unit: "ms", Better: "lower"},
	{Name: "wscale.table_hits", Unit: "count", Better: "higher"},
	{Name: "wscale.table_misses", Unit: "count", Better: "lower"},
	{Name: "wscale.table_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "facade.base_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.final_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.route_ms.cost", Unit: "ms", Better: "lower"},
	{Name: "server.route_ms.ingest", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "server.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.shed.quota", Unit: "count", Better: "lower"},
	{Name: "server.shed.brownout", Unit: "count", Better: "lower"},
	{Name: "server.brownout_max_stage", Unit: "stage", Better: "lower"},
	{Name: "journal.appends", Unit: "count", Better: "lower"},
	{Name: "journal.bytes", Unit: "B", Better: "lower"},
	{Name: "journal.bytes_per_statement", Unit: "B", Better: "lower"},
	{Name: "continuous.retunes", Unit: "count", Better: "lower"},
	{Name: "continuous.retune_skips", Unit: "count", Better: "higher"},
	{Name: "continuous.applies", Unit: "count", Better: "lower"},
	{Name: "continuous.window_templates", Unit: "count", Better: "lower"},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "retune_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cost_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cost_rps", Unit: "1/s", Better: "higher"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower"},
	{Name: "advisor.initial_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported figure in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills a result from the raw figures a workload measured,
// keeping exactly the declared metrics of the requested kind. A
// declared metric the workload did not produce is an error: the
// benchmark must emit every metric it names.
func report(defs []metricDef, raw map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printJSONLine writes v as one JSON line on standard output.
func printJSONLine(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(2)
	}
	fmt.Println(string(buf))
}

// durations is a sample of latencies in milliseconds.
type durations []float64

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (the sample is sorted in place).
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	pos := q * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

// tailOK reports whether the q-quantile has at least ten samples
// beyond it, the rule every reported tail must meet.
func (d durations) tailOK(q float64) bool {
	return float64(len(d))*(1-q) >= 10
}

func (d durations) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
