// Package faults is a deterministic fault-injection layer for chaos
// testing the advisor stack. Hot paths declare named injection points
// (storage page reads, stats sampling, what-if costing, the cost
// cache); tests and the chaos CI job install rules that make those
// points return typed errors, add latency, or panic on addressable
// call windows. With no rules installed a point costs one atomic load,
// so the hooks stay in production builds.
//
// Determinism: every rule carries its own match counter, and firing
// windows are expressed in match counts (fire on matched calls
// (After, After+Count]), so a serial run injects the exact same faults
// every time. Probabilistic rules draw from a per-rule seeded
// generator; use count windows when a test asserts byte-identical
// results.
//
// Rules are addressable: each has an ID (assigned when empty), and
// Fired reports how many times a rule has triggered, so a test can
// assert its faults actually fired rather than silently missing the
// code path.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site. Sites pass their point to Inject
// (error-capable paths) or Hit (paths that cannot propagate an error,
// where only latency and panic rules apply).
type Point string

// The injection points wired into the engine. The constants are the
// single source of truth for rule specs ("point=optimizer.cost").
const (
	// OptimizerCost fires on every what-if optimizer invocation — both
	// the ad-hoc Optimize path and the prepared CostPrepared fast path.
	OptimizerCost Point = "optimizer.cost"
	// StatsSample fires when a table's statistics are (re)built.
	// Latency/panic only: Analyze cannot propagate an error.
	StatsSample Point = "stats.sample"
	// StorageHeapGet fires on heap page reads (row fetch by RID).
	StorageHeapGet Point = "storage.heap.get"
	// StorageHeapScan fires at the start of a heap scan. Latency/panic
	// only.
	StorageHeapScan Point = "storage.heap.scan"
	// StorageIndexSeek fires on B+-tree seeks. Latency/panic only.
	StorageIndexSeek Point = "storage.index.seek"
	// CostCacheDo fires on cost-cache lookup-or-compute calls.
	CostCacheDo Point = "costcache.do"
	// ContinuousObserve fires when the continuous advisor measures an
	// ingested batch's observed cost against the applied estimate.
	// Scale rules here inflate the observation — the deterministic way
	// to force a guardrail rollback in chaos tests and CI.
	ContinuousObserve Point = "continuous.observe"
	// QuotaAdmit fires on every tenant admission decision (session
	// create, job submit, ingest). An error rule here sheds the request
	// deterministically — the chaos way to exercise 429 paths without
	// actually saturating a quota.
	QuotaAdmit Point = "quota.admit"
	// QuotaMemory fires when a tenant's byte-accounted memory usage is
	// checked against its budget. An error rule forces the memory
	// rejection path.
	QuotaMemory Point = "quota.memory"
	// BrownoutStage fires when the server computes global overload
	// pressure. Scale rules multiply the measured pressure — the
	// deterministic way to force the brownout ladder through its stages
	// in chaos tests and CI.
	BrownoutStage Point = "brownout.stage"
)

// Mode selects what a rule does when it fires.
type Mode int

const (
	// ModeError makes the point return a typed *Error.
	ModeError Mode = iota
	// ModeLatency sleeps for Rule.Latency before the point proceeds.
	ModeLatency
	// ModePanic panics with a *Error.
	ModePanic
	// ModeScale multiplies a site-reported measurement by Rule.Scale.
	// Scale rules apply only at sites that consult Factor; Inject and
	// Hit skip them entirely (they neither fire nor consume windows).
	ModeScale
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	case ModeScale:
		return "scale"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Rule describes one injection behavior. The zero window (After == 0,
// Count == 0) fires on every matching call.
type Rule struct {
	// ID addresses the rule in Fired; auto-assigned ("rule-N") when
	// empty.
	ID string
	// Point restricts the rule to one injection point; empty matches
	// every point.
	Point Point
	// Mode is what happens when the rule fires.
	Mode Mode
	// After skips the first After matching calls.
	After int64
	// Count bounds how many matching calls fire (0 = forever). The rule
	// fires on matched calls number After+1 .. After+Count.
	Count int64
	// Prob, when in (0, 1), gates each in-window call on a draw from
	// the rule's seeded generator. 0 or >= 1 means always fire.
	Prob float64
	// Seed seeds the rule's generator for Prob draws.
	Seed int64
	// Latency is the added delay for ModeLatency.
	Latency time.Duration
	// Scale is the measurement multiplier for ModeScale (values <= 0
	// are treated as 1, i.e. inert).
	Scale float64
	// Transient marks injected errors as retryable; the resilient
	// costing path retries transient faults and treats the rest as
	// permanent. Defaults to false (permanent).
	Transient bool
	// Msg customizes the injected error text.
	Msg string
}

// Error is the typed error (and panic value) injected by ModeError and
// ModePanic rules.
type Error struct {
	Point     Point
	RuleID    string
	Panicked  bool
	Retryable bool
	Msg       string
}

// Error implements error.
func (e *Error) Error() string {
	kind := "injected fault"
	if e.Panicked {
		kind = "injected panic"
	}
	msg := e.Msg
	if msg == "" {
		msg = kind
	}
	return fmt.Sprintf("faults: %s at %s (rule %s, transient=%v)", msg, e.Point, e.RuleID, e.Retryable)
}

// Transient reports whether the fault models a retryable condition;
// the resilient costing path consults it through an interface check,
// so this package stays import-free of core.
func (e *Error) Transient() bool { return e.Retryable }

// ruleState is an installed rule plus its counters.
type ruleState struct {
	Rule
	hits  atomic.Int64 // matching calls seen
	fired atomic.Int64 // calls that actually triggered

	rngMu sync.Mutex
	rng   *rand.Rand
}

// fire decides whether this matching call triggers.
func (r *ruleState) fire() bool {
	n := r.hits.Add(1)
	if n <= r.After {
		return false
	}
	if r.Count > 0 && n > r.After+r.Count {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 {
		r.rngMu.Lock()
		ok := r.rng.Float64() < r.Prob
		r.rngMu.Unlock()
		if !ok {
			return false
		}
	}
	r.fired.Add(1)
	return true
}

var (
	armed  atomic.Bool
	mu     sync.RWMutex
	rules  []*ruleState
	nextID atomic.Int64
)

// Enabled reports whether any rules are installed. Sites may use it to
// skip work; Inject and Hit check it themselves.
func Enabled() bool { return armed.Load() }

// Install adds rules to the active set (appending to any already
// installed) and arms the injection points. Rules with an empty ID get
// one assigned; the (possibly updated) rules are returned so callers
// can address them in Fired.
func Install(rs ...Rule) []Rule {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Rule, len(rs))
	for i, r := range rs {
		if r.ID == "" {
			r.ID = fmt.Sprintf("rule-%d", nextID.Add(1))
		}
		st := &ruleState{Rule: r}
		if r.Prob > 0 && r.Prob < 1 {
			st.rng = rand.New(rand.NewSource(r.Seed))
		}
		rules = append(rules, st)
		out[i] = r
	}
	armed.Store(len(rules) > 0)
	return out
}

// Reset removes every installed rule and disarms the points.
func Reset() {
	mu.Lock()
	rules = nil
	armed.Store(false)
	mu.Unlock()
}

// Fired reports how many times the identified rule has triggered
// (0 for unknown IDs).
func Fired(id string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	for _, r := range rules {
		if r.ID == id {
			return r.fired.Load()
		}
	}
	return 0
}

// Inject is the full injection hook for error-capable sites: matching
// latency rules sleep, a matching panic rule panics with *Error, and a
// matching error rule returns a typed *Error. Returns nil when nothing
// fires — the common case, costing one atomic load.
func Inject(p Point) error {
	if !armed.Load() {
		return nil
	}
	return apply(p, true)
}

// Hit is the injection hook for sites that cannot propagate an error
// (stats builds, heap scans, index seeks): latency and panic rules
// apply; error rules are skipped entirely — they neither fire nor
// consume their windows, so installing an error rule against a
// Hit-only point is inert by design.
func Hit(p Point) {
	if !armed.Load() {
		return
	}
	_ = apply(p, false)
}

// Factor is the injection hook for sites that report a measurement
// (observed costs, latencies): matching scale rules fire and their
// factors multiply. Returns 1 when nothing fires. Non-scale rules are
// ignored — they neither fire nor consume their windows here.
func Factor(p Point) float64 {
	if !armed.Load() {
		return 1
	}
	mu.RLock()
	matched := make([]*ruleState, 0, len(rules))
	for _, r := range rules {
		if r.Mode == ModeScale && (r.Point == "" || r.Point == p) {
			matched = append(matched, r)
		}
	}
	mu.RUnlock()
	f := 1.0
	for _, r := range matched {
		if r.Scale > 0 && r.fire() {
			f *= r.Scale
		}
	}
	return f
}

func apply(p Point, errCapable bool) error {
	mu.RLock()
	matched := make([]*ruleState, 0, len(rules))
	for _, r := range rules {
		if r.Point == "" || r.Point == p {
			matched = append(matched, r)
		}
	}
	mu.RUnlock()

	var injected error
	for _, r := range matched {
		if r.Mode == ModeScale {
			continue // only Factor consults scale rules
		}
		if r.Mode == ModeError && !errCapable {
			continue
		}
		if injected != nil && r.Mode == ModeError {
			// First error rule wins; don't consume later error windows.
			continue
		}
		if !r.fire() {
			continue
		}
		switch r.Mode {
		case ModeLatency:
			time.Sleep(r.Latency)
		case ModePanic:
			panic(&Error{Point: p, RuleID: r.ID, Panicked: true, Retryable: r.Transient, Msg: r.Msg})
		case ModeError:
			injected = &Error{Point: p, RuleID: r.ID, Retryable: r.Transient, Msg: r.Msg}
		}
	}
	return injected
}

// ParseRules parses a rule-spec string: rules separated by ';', fields
// within a rule by ','. Fields are key=value pairs (booleans may omit
// =value):
//
//	point=optimizer.cost,mode=error,transient,after=3,count=2
//	point=storage.heap.get,mode=latency,latency=5ms
//	mode=panic,prob=0.01,seed=7
//
// Recognized keys: id, point, mode (error|latency|panic|scale), after,
// count, prob, seed, latency (Go duration), scale (multiplier),
// transient, msg.
func ParseRules(spec string) ([]Rule, error) {
	var out []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		var r Rule
		for _, f := range strings.Split(rs, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			key, val, hasVal := strings.Cut(f, "=")
			var err error
			switch key {
			case "id":
				r.ID = val
			case "point":
				r.Point = Point(val)
			case "mode":
				switch val {
				case "error":
					r.Mode = ModeError
				case "latency":
					r.Mode = ModeLatency
				case "panic":
					r.Mode = ModePanic
				case "scale":
					r.Mode = ModeScale
				default:
					return nil, fmt.Errorf("faults: unknown mode %q (want error, latency, panic or scale)", val)
				}
			case "after":
				r.After, err = strconv.ParseInt(val, 10, 64)
			case "count":
				r.Count, err = strconv.ParseInt(val, 10, 64)
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
			case "seed":
				r.Seed, err = strconv.ParseInt(val, 10, 64)
			case "latency":
				r.Latency, err = time.ParseDuration(val)
			case "scale":
				r.Scale, err = strconv.ParseFloat(val, 64)
			case "transient":
				if !hasVal {
					r.Transient = true
				} else {
					r.Transient, err = strconv.ParseBool(val)
				}
			case "msg":
				r.Msg = val
			default:
				return nil, fmt.Errorf("faults: unknown rule field %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("faults: bad value for %q: %v", key, err)
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: empty rule spec")
	}
	return out, nil
}
