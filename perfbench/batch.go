package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"indexmerge"
	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// The batch-distinct workload: back-to-back cold merges, as separate
// idxmerge CLI runs would make them. Every merge builds a fresh Merger
// (so it pays for preparation) over one of many seeded instances — 100
// distinct complex statements with OR/IN and 40 advisor-built initial
// indexes each — under U = +10%, MergePair-Cost, Greedy, the
// per-query optimizer cost model and serial search. One merge's time
// depends strongly on its instance (the number of constraint checks
// varies several-fold between instances), so a run merges many
// instances in shuffled rounds and reports the distribution over all
// of them.

// databaseSeed fixes the Synthetic2 database both workloads run against.
// Its seed also draws the schema (column counts and types per table),
// which changes the cost of every query, so the database is a fixed
// fixture and --seed varies the workloads, index sets and initial
// configurations run against it.
const databaseSeed = 1

const (
	batchScale      = 0.5
	batchStatements = 100
	batchInitial    = 40
	batchSlack      = 0.10
	batchInstances  = 288 // merge instances per run
	bestOf          = 2   // rounds every run completes; merge percentiles use the faster of an instance's merges in them
	gateEvery       = 32  // merges whose results the gate checks in one block
)

// batchInstance is one merge input: a workload (generated, rendered to
// SQL text and parsed back, as the CLI reads a workload file) and its
// initial configuration.
type batchInstance struct {
	text string
	w    *sql.Workload
	defs []catalog.IndexDef
	// gate is a separate Merger over the same inputs, used only to
	// recompute costs independently of the merge under test.
	gate *indexmerge.Merger
	// first is the recommendation of this instance's first merge;
	// every later merge must reproduce it exactly.
	first *recommendation
}

// recommendation is what a merge decides, compared bit for bit across
// iterations, between the traced and untraced pipelines, and between a
// daemon job and the library.
type recommendation struct {
	Signature   string
	FinalBytes  int64
	Checks      int64
	InitialCost float64
	FinalCost   float64
	Bound       float64
}

func (r recommendation) String() string {
	return fmt.Sprintf("{final %s, %d bytes, %d checks, cost %v -> %v, bound %v}",
		r.Signature, r.FinalBytes, r.Checks, r.InitialCost, r.FinalCost, r.Bound)
}

func recommendationOf(res *indexmerge.MergeResult) recommendation {
	return recommendation{
		Signature:   res.Final.Signature(),
		FinalBytes:  res.FinalBytes,
		Checks:      res.CostEvaluations,
		InitialCost: res.InitialCost,
		FinalCost:   res.FinalCost,
		Bound:       res.Bound,
	}
}

// batchSetup is the state one set-up builds.
type batchSetup struct {
	db        *engine.Database
	instances []*batchInstance
	buildNs   int64 // engine: database build and analyze
	initialNs int64 // advisor: initial configurations, all instances
	totalNs   int64
}

// fingerprint summarizes the generated inputs so repeated set-ups can
// be checked for determinism.
func (s *batchSetup) fingerprint() string {
	var b strings.Builder
	for _, in := range s.instances {
		b.WriteString(in.text)
		for _, d := range in.defs {
			b.WriteString(d.Key())
		}
	}
	return b.String()
}

// setupBatch builds the database and every instance from the seed.
func setupBatch(seed int64, instances int) (*batchSetup, error) {
	s := &batchSetup{}
	t0 := time.Now()
	db, err := datagen.BuildNamed("synthetic2", batchScale, databaseSeed)
	if err != nil {
		return nil, fmt.Errorf("build database: %w", err)
	}
	s.db = db
	s.buildNs = int64(time.Since(t0))
	rng := rand.New(rand.NewSource(seed))
	adv := advisor.New(db, optimizer.New(db))
	for k := 0; k < instances; k++ {
		iseed := rng.Int63()
		gen, err := workload.Generate(db, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: batchStatements, Seed: iseed,
		})
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", k, err)
		}
		var text bytes.Buffer
		if err := sql.WriteWorkload(&text, gen); err != nil {
			return nil, err
		}
		w, err := indexmerge.ParseWorkload(bytes.NewReader(text.Bytes()), db)
		if err != nil {
			return nil, fmt.Errorf("parse instance %d: %w", k, err)
		}
		ta := time.Now()
		defs, err := advisor.BuildInitialConfiguration(adv, w, batchInitial, iseed)
		if err != nil {
			return nil, fmt.Errorf("initial configuration %d: %w", k, err)
		}
		s.initialNs += int64(time.Since(ta))
		s.instances = append(s.instances, &batchInstance{text: text.String(), w: w, defs: defs})
	}
	s.totalNs = int64(time.Since(t0))
	return s, nil
}

// setupRepeated sets up reps times, checks that every set-up produced
// the same inputs, and returns the last one with the median timings.
func setupRepeated(seed int64, instances, reps int) (*batchSetup, error) {
	var last *batchSetup
	var prev string
	var total, build, initial durations
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap, so the previous
		// repetition's garbage is not charged to it.
		last = nil
		runtime.GC()
		s, err := setupBatch(seed, instances)
		if err != nil {
			return nil, err
		}
		fp := s.fingerprint()
		if i > 0 && fp != prev {
			return nil, fmt.Errorf("set-up is not deterministic: repetition %d generated different inputs", i)
		}
		prev = fp
		total = append(total, ms(s.totalNs))
		build = append(build, ms(s.buildNs))
		initial = append(initial, ms(s.initialNs))
		last = s
	}
	last.totalNs = int64(total.quantile(0.5) * 1e6)
	last.buildNs = int64(build.quantile(0.5) * 1e6)
	last.initialNs = int64(initial.quantile(0.5) * 1e6)
	for _, in := range last.instances {
		m, err := indexmerge.NewMerger(last.db, in.w)
		if err != nil {
			return nil, err
		}
		if _, err := m.PreparedWorkload(); err != nil {
			return nil, err
		}
		in.gate = m
	}
	return last, nil
}

func batchMergeOptions() indexmerge.MergeOptions {
	return indexmerge.MergeOptions{CostConstraint: batchSlack}
}

// coldMerge is one CLI-equivalent merge: a fresh Merger, so workload
// preparation is paid every time.
func coldMerge(db *engine.Database, in *batchInstance) (*indexmerge.MergeResult, error) {
	m, err := indexmerge.NewMerger(db, in.w)
	if err != nil {
		return nil, err
	}
	return m.MergeDefs(in.defs, batchMergeOptions())
}

// parseKey turns an index key, table(c1,c2,...), back into a
// definition.
func parseKey(sc *catalog.Schema, name, key string) (catalog.IndexDef, error) {
	open := strings.IndexByte(key, '(')
	if open <= 0 || !strings.HasSuffix(key, ")") {
		return catalog.IndexDef{}, fmt.Errorf("malformed index key %q", key)
	}
	cols := strings.Split(key[open+1:len(key)-1], ",")
	return catalog.NewIndexDef(sc, name, key[:open], cols)
}

// stepConfigurations replays the accepted merge steps over the initial
// configuration and returns the configuration after each step.
func stepConfigurations(sc *catalog.Schema, initial []catalog.IndexDef, steps []core.MergeStep) ([][]catalog.IndexDef, error) {
	cur := append([]catalog.IndexDef(nil), initial...)
	out := make([][]catalog.IndexDef, 0, len(steps))
	for i, st := range steps {
		next := make([]catalog.IndexDef, 0, len(cur))
		removed := 0
		for _, d := range cur {
			if k := d.Key(); (k == st.ParentA || k == st.ParentB) && removed < 2 {
				removed++
				continue
			}
			next = append(next, d)
		}
		if removed != 2 {
			return nil, fmt.Errorf("step %d merges %s and %s, which are not both in the configuration", i, st.ParentA, st.ParentB)
		}
		present := false
		for _, d := range next {
			if d.Key() == st.Result {
				present = true
				break
			}
		}
		if !present {
			def, err := parseKey(sc, fmt.Sprintf("step%d", i), st.Result)
			if err != nil {
				return nil, err
			}
			next = append(next, def)
		}
		out = append(out, next)
		cur = next
	}
	return out, nil
}

func signatureOf(defs []catalog.IndexDef) string {
	keys := make([]string, len(defs))
	for i, d := range defs {
		keys[i] = d.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// sameFloat compares two costs computed along different summation
// paths, allowing only last-ulp differences.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// checkMerge is the correctness gate for one batch merge. It
// recomputes the initial cost and the cost of every configuration the
// search accepted with the instance's separate Merger, checks each
// against U, checks the replayed steps end in the reported final
// configuration, and requires the recommendation to equal the
// instance's first one. It returns the cost-call latencies in
// milliseconds.
func checkMerge(sc *catalog.Schema, in *batchInstance, res *indexmerge.MergeResult) (durations, error) {
	var lat durations
	cost := func(defs []catalog.IndexDef) (float64, error) {
		t0 := time.Now()
		c, err := in.gate.WorkloadCost(defs)
		lat = append(lat, ms(int64(time.Since(t0))))
		return c, err
	}
	rec := recommendationOf(res)
	base, err := cost(in.defs)
	if err != nil {
		return lat, err
	}
	if !sameFloat(base, rec.InitialCost) {
		return lat, fmt.Errorf("initial cost %v, recomputed %v", rec.InitialCost, base)
	}
	u := base * (1 + batchSlack)
	if !sameFloat(u, rec.Bound) {
		return lat, fmt.Errorf("bound %v, recomputed %v", rec.Bound, u)
	}
	configs, err := stepConfigurations(sc, in.defs, res.Steps)
	if err != nil {
		return lat, err
	}
	if len(configs) > 0 && signatureOf(configs[len(configs)-1]) != rec.Signature {
		return lat, fmt.Errorf("replayed steps end in %s, reported final %s",
			signatureOf(configs[len(configs)-1]), rec.Signature)
	}
	if len(configs) > 0 {
		configs = configs[:len(configs)-1] // the final one is costed exactly below
	}
	for i, defs := range configs {
		c, err := cost(defs)
		if err != nil {
			return lat, err
		}
		if c > u && !sameFloat(c, u) {
			return lat, fmt.Errorf("configuration after step %d costs %v, above U = %v", i, c, u)
		}
	}
	final, err := cost(res.Final.Defs())
	if err != nil {
		return lat, err
	}
	if !sameFloat(final, rec.FinalCost) {
		return lat, fmt.Errorf("final cost %v, recomputed %v", rec.FinalCost, final)
	}
	if final > u && !sameFloat(final, u) {
		return lat, fmt.Errorf("final cost %v is above U = %v", final, u)
	}
	if in.first == nil {
		in.first = &rec
	} else if *in.first != rec {
		return lat, fmt.Errorf("recommendation changed between iterations: %v then %v", *in.first, rec)
	}
	return lat, nil
}

// tracedMerge runs the facade's merge pipeline from the same public
// calls MergeDefs makes, with the optimizer and the constraint checker
// wrapped in timing decorators and a span around each layer call. It
// returns the recommendation (which must equal the untraced one) and
// the cost-cache traffic of the run.
func tracedMerge(ctx context.Context, tr *tracer, db *engine.Database, in *batchInstance) (recommendation, *core.SearchResult, [2]int64, error) {
	var cache [2]int64
	tr.begin()
	tr.start("merge")
	defer tr.end()

	o := optimizer.New(db)
	srv := &timedServer{o: o, tr: tr}
	tr.start("optimizer.prepare")
	pw, err := o.PrepareWorkload(in.w)
	tr.end()
	if err != nil {
		return recommendation{}, nil, cache, err
	}
	initial := core.NewConfiguration(in.defs)

	tr.start("facade.base_cost")
	base, err := o.WorkloadCostPrepared(pw, optimizer.Configuration(initial.Defs()))
	tr.end()
	if err != nil {
		return recommendation{}, nil, cache, err
	}

	tr.start("core.seekcost")
	seek, err := core.ComputeSeekCostsPrepared(srv, pw, initial)
	tr.end()
	if err != nil {
		return recommendation{}, nil, cache, err
	}

	inner := core.NewOptimizerChecker(srv, in.w, base, batchSlack)
	inner.Prepared = pw
	chk := &timedChecker{inner: inner, tr: tr}
	tr.start("core.greedy")
	res, err := core.GreedyContext(ctx, initial, &core.MergePairCost{Seek: seek}, chk, db, core.GreedyOptions{})
	tr.end()
	if err != nil {
		return recommendation{}, nil, cache, err
	}
	hits, misses, _ := inner.CacheStats()
	cache = [2]int64{hits, misses}

	tr.start("facade.final_cost")
	final, err := o.WorkloadCostPrepared(pw, optimizer.Configuration(res.Final.Defs()))
	tr.end()
	if err != nil {
		return recommendation{}, nil, cache, err
	}
	return recommendation{
		Signature:   res.Final.Signature(),
		FinalBytes:  res.FinalBytes,
		Checks:      res.CostEvaluations,
		InitialCost: base,
		FinalCost:   final,
		Bound:       inner.U,
	}, res, cache, nil
}

// runBatch runs the batch-distinct workload.
func runBatch(cfg runConfig) (*outcome, error) {
	s, err := setupRepeated(cfg.seed, cfg.instances, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	out := &outcome{raw: map[string]float64{}, samples: map[string]int{}}
	sc := s.db.Schema()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var merges, costs, traced durations
	best := make([]float64, len(s.instances)) // faster of each instance's first bestOf merges
	var tr *tracer
	var cacheHits, cacheMisses, checks, explored int64
	if cfg.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(cfg.duration)
	rounds := 0
	// pending holds merge results until gateEvery have accumulated. The
	// correctness gate then recosts them on a freshly collected heap, so
	// its timed cost calls do not overlap the garbage collection the
	// merges leave behind, while the blocks stay spread over the run.
	type mergeDone struct {
		k   int
		res *indexmerge.MergeResult
	}
	var pending []mergeDone
	gate := func() {
		if len(pending) == 0 {
			return
		}
		runtime.GC()
		for _, p := range pending {
			lat, err := checkMerge(sc, s.instances[p.k], p.res)
			costs = append(costs, lat...)
			out.attempted += int64(len(lat))
			if err != nil {
				out.incorrect(fmt.Errorf("instance %d: %w", p.k, err))
			}
		}
		pending = pending[:0]
	}
measure:
	for {
		for _, k := range rng.Perm(len(s.instances)) {
			if rounds >= bestOf && time.Now().After(deadline) {
				break measure
			}
			in := s.instances[k]
			t0 := time.Now()
			res, err := coldMerge(s.db, in)
			d := ms(int64(time.Since(t0)))
			out.attempted++
			if err != nil {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("merge: %v", err))
				continue
			}
			merges = append(merges, d)
			if rounds < bestOf && (best[k] == 0 || d < best[k]) {
				best[k] = d
			}
			pending = append(pending, mergeDone{k, res})
			if len(pending) == gateEvery {
				gate()
			}
			out.saved += 100 * res.StorageReduction()
			out.savedN++
			if tr == nil {
				continue
			}
			t1 := time.Now()
			rec, tres, cache, err := tracedMerge(ctx, tr, s.db, in)
			traced = append(traced, ms(int64(time.Since(t1))))
			if err != nil {
				out.problems = append(out.problems, fmt.Sprintf("traced merge: %v", err))
				out.failed++
				continue
			}
			if want := recommendationOf(res); rec != want {
				out.incorrect(fmt.Errorf("instance %d: traced recommendation %v differs from untraced %v", k, rec, want))
			}
			cacheHits += cache[0]
			cacheMisses += cache[1]
			checks += tres.CostEvaluations
			explored += tres.ConfigsExplored
		}
		rounds++
	}
	gate()
	// Merge percentiles are over the instances, each at the faster of
	// its first two merges. They do the same work and fall in different
	// rounds, apart in time, so the faster one is the instance's merge
	// time with the less interference from the machine: on a shared
	// host, periods in which other tenants took CPU time moved the time
	// of all merges by up to a quarter from run to run. Every run
	// completes the same number of rounds for this, so the figure does
	// not depend on how many merges a run gets through.
	var bestMerges durations
	for _, b := range best {
		if b > 0 {
			bestMerges = append(bestMerges, b)
		}
	}
	out.samples["merge"] = len(merges)
	out.samples["cost"] = len(costs)
	out.samples["rounds"] = rounds
	out.samples["instances"] = len(s.instances)

	raw := out.raw
	raw["setup_s"] = float64(s.totalNs) / 1e9
	raw["merge_p50_ms"] = bestMerges.quantile(0.5)
	raw["merge_p90_ms"] = bestMerges.quantile(0.9)
	raw["cost_p50_ms"] = costs.quantile(0.5)
	raw["cost_p99_ms"] = costs.quantile(0.99)
	out.tails = map[string]bool{"merge_p90_ms": bestMerges.tailOK(0.9), "cost_p99_ms": costs.tailOK(0.99)}
	raw["engine.build_ms"] = ms(s.buildNs)
	raw["advisor.initial_ms"] = ms(s.initialNs)
	if tr != nil {
		n := float64(len(traced))
		lt := tr.totals()
		get := func(name string) *layerTotals {
			if t, ok := lt[name]; ok {
				return t
			}
			return &layerTotals{}
		}
		calls := get("core.seekcost").Calls + get("core.check").Calls
		optNs := get("core.seekcost").OptNs + get("core.check").OptNs
		raw["optimizer.calls"] = float64(calls) / n
		raw["optimizer.cost_ms"] = ms(optNs) / n
		raw["optimizer.ns_per_call"] = float64(optNs) / math.Max(1, float64(calls))
		raw["optimizer.prepare_ms"] = ms(get("optimizer.prepare").DurNs) / n
		raw["costcache.hits"] = float64(cacheHits) / n
		raw["costcache.misses"] = float64(cacheMisses) / n
		raw["costcache.hit_ratio"] = float64(cacheHits) / math.Max(1, float64(cacheHits+cacheMisses))
		raw["costcache.self_ms"] = ms(get("core.check").DurNs-get("core.check").OptNs) / n
		raw["core.checks"] = float64(checks) / n
		raw["core.configs_explored"] = float64(explored) / n
		raw["core.check_ms"] = ms(get("core.check").DurNs) / n
		raw["core.search_self_ms"] = ms(get("core.greedy").SelfNs) / n
		raw["core.seekcost_ms"] = ms(get("core.seekcost").DurNs) / n
		raw["facade.base_cost_ms"] = ms(get("facade.base_cost").DurNs) / n
		raw["facade.final_cost_ms"] = ms(get("facade.final_cost").DurNs) / n
		raw["trace.overhead_pct"] = 100 * (traced.quantile(0.5)/merges.quantile(0.5) - 1)
		out.tracer = tr
	}
	zeroMissing(raw)
	return out, nil
}
