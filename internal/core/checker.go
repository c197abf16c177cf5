package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// ConstraintChecker decides whether a candidate merged configuration
// satisfies the cost constraint (Step 7 of the Greedy algorithm,
// paper Figure 4). The candidate's newly merged index and its
// immediate pair are supplied for syntactic models that never consult
// a cost function.
//
// Implementations in this package are safe for concurrent Accepts
// calls, which the parallel search strategies rely on.
type ConstraintChecker interface {
	// Accepts reports whether cfg (obtained by replacing pair a,b with
	// merged index m) satisfies the constraint.
	Accepts(cfg *Configuration, m, a, b *Index) (bool, error)
	// Description names the strategy in reports.
	Description() string
	// Evaluations counts how many constraint evaluations have been
	// performed. A constraint evaluation is one Accepts/WorkloadCost
	// call; it is NOT necessarily an optimizer invocation — see
	// OptimizerCallCounter for the expensive count.
	Evaluations() int64
}

// OptimizerCallCounter is implemented by checkers that can report how
// many actual optimizer invocations (Server.Optimize calls) they have
// issued. The distinction matters for replicating §3.4.2: constraint
// checks that are fully served from the what-if cost cache are cheap,
// while optimizer invocations dominate running time.
type OptimizerCallCounter interface {
	OptimizerCalls() int64
}

// Schema provides table metadata for syntactic checks; the engine's
// Database satisfies it.
type SchemaProvider interface {
	Schema() *catalog.Schema
}

// Cache-key separators. Index keys are built from SQL identifiers and
// "(),", so these ASCII control bytes can never occur inside them; they
// make the concatenated key unambiguous (no two distinct relevant-index
// lists can collide).
const (
	keySepIndex = '\x1f' // terminates each relevant index key
	keySepNS    = '\x1d' // terminates the checker's key namespace
)

// OptimizerChecker implements the optimizer-estimated cost evaluation
// (§3.5.3): Cost(W, C) is computed by invoking the query optimizer
// against the hypothetical configuration, and the constraint is
// Cost(W, C') ≤ U. Per-query costs are cached keyed by the indexes of
// the configuration relevant to the query (the paper's "cost needs to
// be obtained only for relevant queries" shortcut): the query's
// namespace/position prefix followed by the key of every relevant
// index, in configuration order. With a prepared workload an index is
// relevant when PreparedQuery.IndexRelevant says it can contribute an
// access path, and a miss costs the query against those indexes alone;
// without one, every index on a table the query references is relevant
// and a miss optimizes the query against the whole configuration.
// Relevance is computed once per distinct index and memoized.
//
// The checker is safe for concurrent use: the cache is sharded and
// deduplicates in-flight computations so two workers never optimize
// the same (query, relevant-config) key twice, and all counters are
// atomic. Server must be safe for concurrent Optimize calls
// (optimizer.Optimizer is) and Parallelism must be set before the
// first evaluation.
type OptimizerChecker struct {
	Server CostServer
	W      *sql.Workload
	U      float64 // absolute workload-cost upper bound

	// Parallelism bounds concurrent Server.Optimize calls issued by
	// this checker across all concurrent WorkloadCost invocations.
	// <= 1 means fully serial per-query costing.
	Parallelism int

	// Cache, when non-nil, supplies an external what-if cost cache to
	// use instead of a private one — the advisor service shares one
	// bounded cache across all of a session's jobs. Set before the
	// first evaluation. When the cache is shared across checkers built
	// over *different* workloads, KeyNamespace must distinguish them:
	// per-query keys embed only the query's position in the workload.
	Cache *costcache.Cache
	// KeyNamespace is prepended (with a reserved separator) to every
	// cache key. Choose one distinct namespace per workload when
	// sharing Cache.
	KeyNamespace string

	// Prepared, when non-nil, must be W prepared against the Server's
	// statistics (optimizer.PrepareWorkload); cache keys then hold only
	// the indexes each query can use, and misses cost the query against
	// those indexes through the allocation-free prepared fast path
	// instead of Server.Optimize, with bit-identical totals. Set before
	// the first evaluation; requires Server to implement
	// PreparedCostServer (optimizer.Optimizer does).
	Prepared *optimizer.PreparedWorkload

	once     sync.Once
	cache    *costcache.Cache
	sem      chan struct{} // tokens for actual optimizer invocations
	prefixes []string      // per query: namespace, keySepNS, "q<idx>|"
	byTable  map[string][]int32
	prepSrv  PreparedCostServer

	relMu sync.Mutex
	rel   map[string][]int32 // index key -> relevant query positions, ascending

	checks   atomic.Int64 // constraint checks (Accepts/WorkloadCost calls)
	optCalls atomic.Int64 // actual Server.Optimize invocations
}

// NewOptimizerChecker builds a checker with U = baseCost × (1 + slackPct).
// baseCost should be Cost(W, C) for the initial configuration; slackPct
// is the paper's "cost constraint" percentage (e.g. 0.10 for 10%).
func NewOptimizerChecker(server CostServer, w *sql.Workload, baseCost, slackPct float64) *OptimizerChecker {
	return &OptimizerChecker{
		Server: server,
		W:      w,
		U:      baseCost * (1 + slackPct),
	}
}

// lazyInit builds the cache, the worker semaphore, the per-query key
// prefixes and the table -> referencing-queries map on first use.
func (c *OptimizerChecker) lazyInit() {
	c.once.Do(func() {
		if c.Cache != nil {
			c.cache = c.Cache
		} else {
			c.cache = costcache.New(0)
		}
		p := c.Parallelism
		if p < 1 {
			p = 1
		}
		c.sem = make(chan struct{}, p)
		if c.Prepared != nil && len(c.Prepared.Queries) == len(c.W.Queries) {
			if ps, ok := c.Server.(PreparedCostServer); ok {
				c.prepSrv = ps
			}
		}
		c.prefixes = make([]string, len(c.W.Queries))
		c.byTable = make(map[string][]int32)
		c.rel = make(map[string][]int32)
		for qi, q := range c.W.Queries {
			c.prefixes[qi] = fmt.Sprintf("%s%cq%d|", c.KeyNamespace, keySepNS, qi)
			for _, t := range q.Stmt.TablesReferenced() {
				c.byTable[t] = append(c.byTable[t], int32(qi))
			}
		}
	})
}

// Description implements ConstraintChecker.
func (c *OptimizerChecker) Description() string { return "Cost-Opt" }

// Evaluations implements ConstraintChecker: the number of constraint
// checks (WorkloadCost calls), cached or not.
func (c *OptimizerChecker) Evaluations() int64 { return c.checks.Load() }

// OptimizerCalls implements OptimizerCallCounter: the number of actual
// Server.Optimize invocations — the expensive quantity §3.4.2 says
// dominates Greedy's running time. Cache hits never count here.
func (c *OptimizerChecker) OptimizerCalls() int64 { return c.optCalls.Load() }

// CacheStats exposes the underlying cost-cache counters (lookup hits,
// computed misses, deduplicated in-flight waits).
func (c *OptimizerChecker) CacheStats() (hits, misses, dedups int64) {
	c.lazyInit()
	return c.cache.Stats()
}

// Accepts implements ConstraintChecker.
func (c *OptimizerChecker) Accepts(cfg *Configuration, m, a, b *Index) (bool, error) {
	return c.AcceptsContext(context.Background(), cfg, m, a, b)
}

// AcceptsContext implements ContextChecker: cancellation is observed
// between the per-query optimizer invocations of the workload costing.
func (c *OptimizerChecker) AcceptsContext(ctx context.Context, cfg *Configuration, _, _, _ *Index) (bool, error) {
	cost, err := c.WorkloadCostContext(ctx, cfg)
	if err != nil {
		return false, err
	}
	return cost <= c.U, nil
}

// WorkloadCost computes Cost(W, C) with per-query caching. Cache
// misses are optimized concurrently (up to Parallelism at a time);
// the total is summed in query order so results are byte-identical to
// a serial evaluation.
func (c *OptimizerChecker) WorkloadCost(cfg *Configuration) (float64, error) {
	return c.WorkloadCostContext(context.Background(), cfg)
}

// WorkloadCostContext is WorkloadCost under a context: ctx is checked
// before every actual optimizer invocation, so a canceled caller stops
// after at most one in-flight per-query optimization. Cached entries
// are still served after cancellation begins; a cancellation error is
// never cached.
func (c *OptimizerChecker) WorkloadCostContext(ctx context.Context, cfg *Configuration) (float64, error) {
	c.lazyInit()
	c.checks.Add(1)
	if err := ctx.Err(); err != nil {
		return 0, err
	}

	sc := checkScratchPool.Get().(*checkScratch)
	defer checkScratchPool.Put(sc)
	keys := c.buildKeys(sc, cfg)
	nq := len(keys)
	if cap(sc.costs) < nq {
		sc.costs = make([]float64, nq)
	}
	costs := sc.costs[:nq]
	misses := sc.misses[:0]
	for qi, key := range keys {
		if v, ok := c.cache.Get(key); ok {
			costs[qi] = v
		} else {
			misses = append(misses, qi)
		}
	}
	sc.misses = misses

	if len(misses) > 0 {
		// Prepared: each missed query is costed against its relevant
		// indexes alone, gathered into one pooled buffer. Unprepared:
		// Optimize sees the whole configuration.
		var full optimizer.Configuration
		if c.prepSrv != nil {
			sc.gatherRelevantDefs(cfg, misses)
		} else {
			full = optimizer.Configuration(cfg.Defs())
		}
		eval := func(j int) error {
			qi := misses[j]
			// Clone the key on the miss path so a cached entry pins only
			// its own bytes, not the whole per-check key buffer.
			v, err := c.cache.Do(strings.Clone(keys[qi]), func() (float64, error) {
				select {
				case c.sem <- struct{}{}:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
				defer func() { <-c.sem }()
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				c.optCalls.Add(1)
				if c.prepSrv != nil {
					return c.prepSrv.CostPrepared(c.Prepared.Queries[qi], sc.missDefs(j))
				}
				plan, err := c.Server.Optimize(c.W.Queries[qi].Stmt, full)
				if err != nil {
					return 0, err
				}
				return plan.Cost, nil
			})
			if err != nil {
				return err
			}
			costs[qi] = v
			return nil
		}
		if err := c.evalMisses(len(misses), eval); err != nil {
			return 0, err
		}
	}

	total := 0.0
	for qi, q := range c.W.Queries {
		total += costs[qi] * q.Freq
	}
	return total, nil
}

// evalMisses runs eval for miss positions 0..n-1, concurrently when
// Parallelism > 1. On failure it returns the error of the
// smallest-positioned failing miss, matching serial evaluation order.
// Each evaluation runs through safeEval, so a panicking cost server
// fails one constraint check (as a typed *PanicError) instead of
// killing a worker goroutine — and with it the process.
func (c *OptimizerChecker) evalMisses(n int, eval func(int) error) error {
	workers := c.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			if err := safeEval(eval, j); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				errs[j] = safeEval(eval, j)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeEval converts a panic during one per-query evaluation into a
// *PanicError. Crucially this runs on the goroutine that calls eval —
// parallel costing workers included — which is the only place a
// recover can catch it.
func safeEval(eval func(int) error, j int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return eval(j)
}

// checkScratch is pooled per-constraint-check state. One constraint
// check allocates one backing string for all query keys (plus cache
// entries for misses) instead of a string per query.
type checkScratch struct {
	rels   [][]int32 // per configuration index: relevant query positions
	ends   []int     // per query: end offset of its key in buf
	cur    []int     // per query: write offset while filling buf
	buf    []byte
	keys   []string
	costs  []float64
	misses []int
	defs   []catalog.IndexDef // missed queries' relevant defs, back to back
	defEnd []int              // per miss: end offset of its defs
}

var checkScratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

// buildKeys returns every query's cache key under cfg: the query's
// prefix followed by the key of each configuration index relevant to
// it, in configuration order, each terminated by keySepIndex. One
// lookup per configuration index in the relevance memo gives the
// queries it fans out to; the keys are substrings of one backing
// string built in the pooled buffer. sc.rels is left holding each
// index's relevant queries for gatherRelevantDefs.
func (c *OptimizerChecker) buildKeys(sc *checkScratch, cfg *Configuration) []string {
	nq := len(c.prefixes)
	sc.rels = sc.rels[:0]
	for _, ix := range cfg.Indexes {
		sc.rels = append(sc.rels, c.relevantQueries(ix))
	}
	if cap(sc.ends) < nq {
		sc.ends = make([]int, nq)
		sc.cur = make([]int, nq)
		sc.keys = make([]string, nq)
	}
	ends, cur, keys := sc.ends[:nq], sc.cur[:nq], sc.keys[:nq]
	// Pass 1: per-query key lengths, then running end offsets.
	for qi, p := range c.prefixes {
		ends[qi] = len(p)
	}
	for i, ix := range cfg.Indexes {
		n := len(ix.Key()) + 1
		for _, qi := range sc.rels[i] {
			ends[qi] += n
		}
	}
	total := 0
	for qi := range ends {
		total += ends[qi]
		ends[qi] = total
	}
	// Pass 2: prefixes, then each index key into every query it is
	// relevant to, configuration order.
	if cap(sc.buf) < total {
		sc.buf = make([]byte, total)
	}
	buf := sc.buf[:total]
	start := 0
	for qi, p := range c.prefixes {
		cur[qi] = start + copy(buf[start:], p)
		start = ends[qi]
	}
	for i, ix := range cfg.Indexes {
		k := ix.Key()
		for _, qi := range sc.rels[i] {
			n := copy(buf[cur[qi]:], k)
			buf[cur[qi]+n] = keySepIndex
			cur[qi] += n + 1
		}
	}
	all := string(buf)
	start = 0
	for qi := range keys {
		keys[qi] = all[start:ends[qi]]
		start = ends[qi]
	}
	return keys
}

// relevantQueries returns the ascending positions of the queries ix is
// relevant to, memoized by index key. Only queries referencing ix's
// table are candidates; with a prepared workload each is kept when
// PreparedQuery.IndexRelevant holds, without one all are kept.
func (c *OptimizerChecker) relevantQueries(ix *Index) []int32 {
	k := ix.Key()
	c.relMu.Lock()
	qs, ok := c.rel[k]
	c.relMu.Unlock()
	if ok {
		return qs
	}
	for _, qi := range c.byTable[ix.Def.Table] {
		if c.prepSrv == nil || c.Prepared.Queries[qi].IndexRelevant(ix.Def.Table, ix.Def.Columns) {
			qs = append(qs, qi)
		}
	}
	c.relMu.Lock()
	c.rel[k] = qs
	c.relMu.Unlock()
	return qs
}

// gatherRelevantDefs collects, for each missed query, the definitions
// of the configuration indexes relevant to it (configuration order)
// into sc.defs; missDefs(j) reads miss j's span back.
func (sc *checkScratch) gatherRelevantDefs(cfg *Configuration, misses []int) {
	defs, defEnd := sc.defs[:0], sc.defEnd[:0]
	for _, qi := range misses {
		for i, ix := range cfg.Indexes {
			if _, ok := slices.BinarySearch(sc.rels[i], int32(qi)); ok {
				defs = append(defs, ix.Def)
			}
		}
		defEnd = append(defEnd, len(defs))
	}
	sc.defs, sc.defEnd = defs, defEnd
}

// missDefs returns miss j's relevant definitions (see
// gatherRelevantDefs).
func (sc *checkScratch) missDefs(j int) optimizer.Configuration {
	lo := 0
	if j > 0 {
		lo = sc.defEnd[j-1]
	}
	return optimizer.Configuration(sc.defs[lo:sc.defEnd[j]])
}

// NoCostChecker implements the No-Cost model (§3.5.1): a merged index
// is acceptable iff (a) its width is at most fraction F of its table's
// row width and (b) it does not exceed its wider immediate parent's
// width by more than fraction P. No cost function is ever consulted,
// so the final configuration carries no cost guarantee — exactly the
// drawback §3.5.1 notes.
//
// Safe for concurrent Accepts calls (the schema is read-only and the
// counter is atomic).
type NoCostChecker struct {
	F      float64 // max merged-index width as a fraction of table width
	P      float64 // max growth over either immediate parent
	Tables SchemaProvider

	evals atomic.Int64
}

// Description implements ConstraintChecker.
func (c *NoCostChecker) Description() string { return "Cost-None" }

// Evaluations implements ConstraintChecker.
func (c *NoCostChecker) Evaluations() int64 { return c.evals.Load() }

// Accepts implements ConstraintChecker.
func (c *NoCostChecker) Accepts(_ *Configuration, m, a, b *Index) (bool, error) {
	c.evals.Add(1)
	t, ok := c.Tables.Schema().Table(m.Def.Table)
	if !ok {
		return false, fmt.Errorf("core: unknown table %q", m.Def.Table)
	}
	mw := float64(t.WidthOf(m.Def.Columns))
	if mw > c.F*float64(t.RowWidth()) {
		return false, nil
	}
	wider := float64(t.WidthOf(a.Def.Columns))
	if bw := float64(t.WidthOf(b.Def.Columns)); bw > wider {
		wider = bw
	}
	if wider > 0 && mw > (1+c.P)*wider {
		return false, nil
	}
	return true, nil
}

// PrefilteredChecker consults an inexpensive external cost model first
// and invokes the optimizer-backed checker only when the external
// model predicts the constraint can be met (§3.5.3, last paragraph).
// The external bound is calibrated against the initial configuration:
// a candidate is vetoed only when its external cost exceeds the
// external baseline by more than the slack allowance times Margin.
//
// Safe for concurrent Accepts calls: the external model is read-only
// after SetBaseline, the rejection counter is atomic, and Inner is
// itself concurrency-safe.
type PrefilteredChecker struct {
	External *ExternalCostModel
	Inner    *OptimizerChecker
	// SlackPct mirrors the cost constraint used to build Inner.
	SlackPct float64
	// Margin loosens the external prediction so the coarse model only
	// vetoes clearly hopeless candidates; >1 means permissive.
	Margin float64

	prefilterHits atomic.Int64
}

// Description implements ConstraintChecker.
func (c *PrefilteredChecker) Description() string { return "Cost-Opt+Prefilter" }

// Evaluations implements ConstraintChecker.
func (c *PrefilteredChecker) Evaluations() int64 { return c.Inner.Evaluations() }

// OptimizerCalls implements OptimizerCallCounter.
func (c *PrefilteredChecker) OptimizerCalls() int64 { return c.Inner.OptimizerCalls() }

// PrefilterRejections counts candidates the external model vetoed
// without an optimizer call.
func (c *PrefilteredChecker) PrefilterRejections() int64 { return c.prefilterHits.Load() }

// Accepts implements ConstraintChecker.
func (c *PrefilteredChecker) Accepts(cfg *Configuration, m, a, b *Index) (bool, error) {
	return c.AcceptsContext(context.Background(), cfg, m, a, b)
}

// AcceptsContext implements ContextChecker; the cheap external
// prefilter runs unconditionally, the optimizer-backed inner check
// observes ctx.
func (c *PrefilteredChecker) AcceptsContext(ctx context.Context, cfg *Configuration, m, a, b *Index) (bool, error) {
	margin := c.Margin
	if margin <= 0 {
		margin = 2.0
	}
	extBase := c.External.BaselineCost()
	if extBase > 0 {
		extCost := c.External.WorkloadCost(cfg)
		if extCost > extBase*(1+c.SlackPct*margin) {
			c.prefilterHits.Add(1)
			return false, nil
		}
	}
	return c.Inner.AcceptsContext(ctx, cfg, m, a, b)
}
