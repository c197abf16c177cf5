// Identity tests for the per-query what-if cost cache: its keys hold
// only the configuration indexes relevant to each query, and a miss
// costs the query against those indexes alone. On every configuration
// a Greedy or Exhaustive search visits, OptimizerChecker.WorkloadCost
// must therefore equal WorkloadCostPrepared on the whole configuration
// bit for bit — serially, under parallel search and costing, with the
// relevant-index prefilter disabled, and with one cache shared by two
// workloads under distinct key namespaces.
package indexmerge

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/workload"
)

// identityChecker is a constraint checker that prices every visited
// configuration through the cached checker and again through
// WorkloadCostPrepared on the full configuration, and fails the test
// on any difference in the float bits.
type identityChecker struct {
	t      *testing.T
	tag    string
	opt    *optimizer.Optimizer
	inner  *core.OptimizerChecker
	visits atomic.Int64
}

func (c *identityChecker) Accepts(cfg *core.Configuration, _, _, _ *core.Index) (bool, error) {
	c.visits.Add(1)
	got, err := c.inner.WorkloadCost(cfg)
	if err != nil {
		return false, err
	}
	want, err := c.opt.WorkloadCostPrepared(c.inner.Prepared, optimizer.Configuration(cfg.Defs()))
	if err != nil {
		return false, err
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		c.t.Errorf("%s: checker cost %v != WorkloadCostPrepared %v on %s", c.tag, got, want, cfg.Signature())
	}
	return got <= c.inner.U, nil
}

func (c *identityChecker) Description() string { return c.inner.Description() }
func (c *identityChecker) Evaluations() int64  { return c.inner.Evaluations() }

// identityCase is one (database, workload) pair with its initial
// configuration.
type identityCase struct {
	name string
	lab  *experiments.Lab
	w    *Workload
	defs []IndexDef
}

func identityCases(t *testing.T) [][]identityCase {
	t.Helper()
	var out [][]identityCase
	for _, lab := range identityLabs(t) {
		disjunct, err := workload.Generate(lab.DB, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: 12, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var cases []identityCase
		for _, wc := range []struct {
			name string
			w    *Workload
		}{{"complex", lab.Complex}, {"disjunct", disjunct}} {
			defs, err := lab.InitialConfiguration(wc.w, 8)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, identityCase{name: lab.Name + "/" + wc.name, lab: lab, w: wc.w, defs: defs})
		}
		out = append(out, cases)
	}
	return out
}

// runIdentitySearches drives Greedy and Exhaustive from the case's
// initial configuration through an identityChecker and returns the
// number of configurations checked.
func runIdentitySearches(t *testing.T, tag string, c identityCase, opt *optimizer.Optimizer, cache *costcache.Cache, parallelism int) int64 {
	t.Helper()
	pw, err := optimizer.PrepareWorkload(c.w, c.lab.DB)
	if err != nil {
		t.Fatal(err)
	}
	initial := core.NewConfiguration(c.defs)
	base, err := opt.WorkloadCostPrepared(pw, optimizer.Configuration(c.defs))
	if err != nil {
		t.Fatal(err)
	}
	seek, err := core.ComputeSeekCostsPrepared(opt, pw, initial)
	if err != nil {
		t.Fatal(err)
	}
	inner := core.NewOptimizerChecker(opt, c.w, base, 0.10)
	inner.Prepared = pw
	inner.Parallelism = parallelism
	if cache != nil {
		inner.Cache = cache
		inner.KeyNamespace = c.name
	}
	check := &identityChecker{t: t, tag: tag, opt: opt, inner: inner}
	mp := &core.MergePairCost{Seek: seek}
	if _, err := core.GreedyWithOptions(initial, mp, check, c.lab.DB, core.GreedyOptions{Parallelism: parallelism}); err != nil {
		t.Fatalf("%s: greedy: %v", tag, err)
	}
	if _, err := core.Exhaustive(initial, mp, check, c.lab.DB, core.ExhaustiveOptions{Parallelism: parallelism}); err != nil {
		t.Fatalf("%s: exhaustive: %v", tag, err)
	}
	return check.visits.Load()
}

func TestCheckerMatchesWorkloadCostPrepared(t *testing.T) {
	for _, cases := range identityCases(t) {
		for _, c := range cases {
			for _, v := range []struct {
				name        string
				parallelism int
				noFilter    bool
			}{
				{"serial", 1, false},
				{"parallel4", 4, false},
				{"nofilter", 1, true},
			} {
				tag := fmt.Sprintf("%s/%s", c.name, v.name)
				opt := optimizer.New(c.lab.DB)
				opt.DisableRelevantIndexFilter = v.noFilter
				n := runIdentitySearches(t, tag, c, opt, nil, v.parallelism)
				if n == 0 {
					t.Errorf("%s: no configuration was checked", tag)
				}
				t.Logf("%s: %d configurations checked", tag, n)
			}
		}
	}
}

// TestCheckerSharedCacheNamespaces shares one cost cache between the
// checkers of two workloads over the same database — query positions
// coincide, so only the key namespace keeps their entries apart — and
// runs each workload's searches twice, the second time on a warm
// cache.
func TestCheckerSharedCacheNamespaces(t *testing.T) {
	for _, cases := range identityCases(t) {
		cache := costcache.New(0)
		opt := optimizer.New(cases[0].lab.DB)
		for round := 0; round < 2; round++ {
			for _, c := range cases {
				tag := fmt.Sprintf("%s/shared/round%d", c.name, round)
				if n := runIdentitySearches(t, tag, c, opt, cache, 1); n == 0 {
					t.Errorf("%s: no configuration was checked", tag)
				}
			}
		}
	}
}
