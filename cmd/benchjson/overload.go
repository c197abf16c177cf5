package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge/internal/server"
	"indexmerge/internal/server/quota"
)

// The -overload benchmark (BENCH_overload.json is a checked-in run):
// one in-process idxmerged with per-tenant quotas and a global memory
// budget serves a well-behaved "quiet" tenant while a "noisy" tenant
// storms it with ingest batches, re-tune submissions and cross-tenant
// costing attempts. The report is the isolation story in numbers: the
// quiet tenant's synchronous-costing latency distribution with and
// without the neighbor, how much of the noisy traffic admission
// control shed, and the peak accounted memory against the budget.

// overloadPhase is the quiet tenant's latency distribution over one
// measurement phase (successful requests only; shed requests are
// counted separately).
type overloadPhase struct {
	Requests   int     `json:"requests"`
	Shed       int     `json:"shed"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	MeanMicros float64 `json:"mean_micros"`
}

// overloadReport is the -overload benchmark result.
type overloadReport struct {
	Benchmark string  `json:"benchmark"`
	Env       envInfo `json:"env"`
	Seed      int64   `json:"seed"`

	// The admission configuration under test.
	QuotaSessions     int     `json:"quota_sessions"`
	QuotaJobs         int     `json:"quota_jobs"`
	QuotaIngestPerSec float64 `json:"quota_ingest_per_sec"`
	QuotaMemoryBytes  int64   `json:"quota_memory_bytes"`
	MemoryBudgetBytes int64   `json:"memory_budget_bytes"`

	QuietAlone     overloadPhase `json:"quiet_alone"`
	QuietWithNoisy overloadPhase `json:"quiet_with_noisy"`
	// P99Ratio is the quiet tenant's P99 under the storm over its P99
	// alone — the isolation headline (1.0 = perfect isolation).
	P99Ratio float64 `json:"p99_ratio"`

	// The noisy tenant's fate. ShedRate is shed/attempts across its
	// ingest batches (token-bucket rate quota plus brownout shedding).
	NoisyIngestAttempts int64   `json:"noisy_ingest_attempts"`
	NoisyIngestShed     int64   `json:"noisy_ingest_shed"`
	ShedRate            float64 `json:"shed_rate"`
	NoisyRetuneRejected int64   `json:"noisy_retune_rejected"`

	// Cross-tenant requests must all bounce with 403 tenant_mismatch.
	CrossTenantAttempts  int64 `json:"cross_tenant_attempts"`
	CrossTenantForbidden int64 `json:"cross_tenant_forbidden"`

	// Peak accounted memory observed while the storm ran, against the
	// configured budget; the ladder must hold the line.
	PeakAccountedBytes int64 `json:"peak_accounted_bytes"`
	PeakWithinBudget   bool  `json:"peak_within_budget"`
	MaxBrownoutStage   int   `json:"max_brownout_stage"`

	// Total sheds by reason|tenant, scraped from /metrics at the end.
	ShedTotals map[string]int64 `json:"shed_totals"`

	Note string `json:"note"`
}

// obClient is a minimal JSON client with tenant identity.
type obClient struct {
	base string
	hc   *http.Client
}

func (c *obClient) post(tenant, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (c *obClient) getText(path string) (string, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// metricValues parses the hand-rolled Prometheus exposition into
// name{labels} -> value.
func metricValues(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func pctMicros(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(p * float64(len(d)-1))
	return round2(float64(d[i].Nanoseconds()) / 1e3)
}

func phaseStats(lat []time.Duration, shed int) overloadPhase {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ph := overloadPhase{
		Requests:  len(lat) + shed,
		Shed:      shed,
		P50Micros: pctMicros(lat, 0.50),
		P99Micros: pctMicros(lat, 0.99),
	}
	if len(lat) > 0 {
		ph.MeanMicros = round2(float64(sum.Nanoseconds()) / float64(len(lat)) / 1e3)
	}
	return ph
}

// runOverloadBench measures tenant isolation under a noisy neighbor.
func runOverloadBench(seed int64, requests int) (overloadReport, error) {
	const (
		ingestRate = 200.0
		// The per-tenant memory quota caps the noisy tenant's ingest
		// footprint far below the global brownout thresholds; the global
		// budget leaves headroom above it (admitted retune jobs grow
		// caches past the admission-time quota until brownout eviction
		// reins them in), so the ladder stays a backstop here and the
		// quiet tenant's phase is never brownout-shed.
		memoryQuota  = int64(1 << 20)
		memoryBudget = int64(16 << 20)
		maxSessions  = 4
		maxJobs      = 2
	)
	srv, err := server.New(server.Config{
		Workers:         2,
		QueueCap:        8,
		CacheMaxEntries: 1 << 20,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		Quota: quota.Limits{
			MaxSessions:  maxSessions,
			MaxJobs:      maxJobs,
			IngestPerSec: ingestRate,
			IngestBurst:  ingestRate,
			MemoryBytes:  memoryQuota,
		},
		MemoryBudgetBytes: memoryBudget,
	})
	if err != nil {
		return overloadReport{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	c := &obClient{base: ts.URL, hc: ts.Client()}

	// The quiet tenant: a plain session with a registered workload it
	// costs synchronously — the latency-sensitive path under test.
	if code, err := c.post("quiet", "/v1/sessions", map[string]any{
		"name": "quiet", "tenant": "quiet", "db": "synthetic1", "scale": 0.25, "seed": seed,
	}, nil); err != nil || code != http.StatusCreated {
		return overloadReport{}, fmt.Errorf("create quiet session: code %d err %v", code, err)
	}
	if code, err := c.post("quiet", "/v1/sessions/quiet/workloads", map[string]any{
		"name": "w", "generate": map[string]any{"class": "complex", "queries": 12, "seed": 12},
	}, nil); err != nil || code != http.StatusCreated {
		return overloadReport{}, fmt.Errorf("register quiet workload: code %d err %v", code, err)
	}
	costBody := server.CostRequest{Workload: "w"}
	costOnce := func() (time.Duration, int, error) {
		start := time.Now()
		code, err := c.post("quiet", "/v1/sessions/quiet/cost", costBody, nil)
		return time.Since(start), code, err
	}
	measure := func(n int) (lat []time.Duration, shed int, err error) {
		for i := 0; i < n; i++ {
			d, code, err := costOnce()
			if err != nil {
				return nil, 0, err
			}
			switch code {
			case http.StatusOK:
				lat = append(lat, d)
			case http.StatusTooManyRequests:
				shed++
			default:
				return nil, 0, fmt.Errorf("quiet cost: unexpected status %d", code)
			}
		}
		return lat, shed, nil
	}

	for i := 0; i < 5; i++ { // warm caches before either phase is timed
		if _, _, err := costOnce(); err != nil {
			return overloadReport{}, err
		}
	}
	aloneLat, aloneShed, err := measure(requests)
	if err != nil {
		return overloadReport{}, err
	}

	// The noisy tenant: a continuous session stormed from three angles.
	if code, err := c.post("noisy", "/v1/sessions", map[string]any{
		"name": "noisy", "tenant": "noisy", "db": "synthetic1", "scale": 0.25, "seed": seed,
		"continuous": map[string]any{"seed": 9},
	}, nil); err != nil || code != http.StatusCreated {
		return overloadReport{}, fmt.Errorf("create noisy session: code %d err %v", code, err)
	}

	var (
		ingestAttempts, ingestShed    atomic.Int64
		retuneRejected                atomic.Int64
		crossAttempts, crossForbidden atomic.Int64
		peakBytes                     atomic.Int64
		maxStage                      atomic.Int64
		stop                          = make(chan struct{})
		wg                            sync.WaitGroup
	)
	storm := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	// Ingest storm: generated batches far beyond the token-bucket rate.
	storm(func(i int) {
		var resp server.IngestResponse
		ingestAttempts.Add(1)
		code, err := c.post("noisy", "/v1/sessions/noisy/ingest", map[string]any{
			"generate": map[string]any{"class": "complex", "queries": 20, "seed": seed + int64(i)},
		}, &resp)
		if err != nil || code == http.StatusTooManyRequests || resp.Shed {
			ingestShed.Add(1)
		}
	})
	// Re-tune storm: job-quota and queue pressure.
	storm(func(int) {
		code, err := c.post("noisy", "/v1/sessions/noisy/retune", nil, nil)
		if err == nil && code != http.StatusAccepted {
			retuneRejected.Add(1)
		}
	})
	// Cross-tenant attack: the noisy tenant costing against the quiet
	// tenant's session. Every attempt must bounce.
	storm(func(int) {
		crossAttempts.Add(1)
		code, err := c.post("noisy", "/v1/sessions/quiet/cost", costBody, nil)
		if err == nil && code == http.StatusForbidden {
			crossForbidden.Add(1)
		}
	})
	// Pressure poller: peak accounted bytes and the highest brownout
	// stage the ladder reached.
	storm(func(int) {
		text, err := c.getText("/metrics")
		if err != nil {
			return
		}
		mv := metricValues(text)
		if b := int64(mv["idxmerged_accounted_bytes"]); b > peakBytes.Load() {
			peakBytes.Store(b)
		}
		if st := int64(mv["idxmerged_brownout_stage"]); st > maxStage.Load() {
			maxStage.Store(st)
		}
		time.Sleep(2 * time.Millisecond)
	})

	time.Sleep(100 * time.Millisecond) // let the storm ramp past the ingest burst
	stormLat, stormShed, err := measure(requests)
	close(stop)
	wg.Wait()
	if err != nil {
		return overloadReport{}, err
	}

	finalText, err := c.getText("/metrics")
	if err != nil {
		return overloadReport{}, err
	}
	shedTotals := make(map[string]int64)
	for name, v := range metricValues(finalText) {
		if rest, ok := strings.CutPrefix(name, `idxmerged_shed_total{`); ok {
			shedTotals[strings.TrimSuffix(rest, "}")] = int64(v)
		}
	}

	rep := overloadReport{
		Benchmark:            "quiet-tenant latency under a noisy neighbor with quotas and brownout",
		Env:                  captureEnv(),
		Seed:                 seed,
		QuotaSessions:        maxSessions,
		QuotaJobs:            maxJobs,
		QuotaIngestPerSec:    ingestRate,
		QuotaMemoryBytes:     memoryQuota,
		MemoryBudgetBytes:    memoryBudget,
		QuietAlone:           phaseStats(aloneLat, aloneShed),
		QuietWithNoisy:       phaseStats(stormLat, stormShed),
		NoisyIngestAttempts:  ingestAttempts.Load(),
		NoisyIngestShed:      ingestShed.Load(),
		NoisyRetuneRejected:  retuneRejected.Load(),
		CrossTenantAttempts:  crossAttempts.Load(),
		CrossTenantForbidden: crossForbidden.Load(),
		PeakAccountedBytes:   peakBytes.Load(),
		PeakWithinBudget:     peakBytes.Load() <= memoryBudget,
		MaxBrownoutStage:     int(maxStage.Load()),
		ShedTotals:           shedTotals,
		Note: "one in-process idxmerged; the noisy tenant storms ingest, re-tunes and cross-tenant costing " +
			"while the quiet tenant's synchronous costing is timed; admission control (per-tenant token-bucket " +
			"ingest quota, job and memory quotas, tenant identity) and the brownout ladder absorb the abuse; " +
			"on a single-CPU host the residual latency delta is CPU contention with the noisy tenant's " +
			"admitted, quota-bounded work (its running re-tune job), not queueing collapse",
	}
	if rep.QuietAlone.P99Micros > 0 {
		rep.P99Ratio = round2(rep.QuietWithNoisy.P99Micros / rep.QuietAlone.P99Micros)
	}
	if rep.NoisyIngestAttempts > 0 {
		rep.ShedRate = round2(float64(rep.NoisyIngestShed) / float64(rep.NoisyIngestAttempts))
	}
	if rep.CrossTenantForbidden != rep.CrossTenantAttempts {
		return overloadReport{}, fmt.Errorf("tenant isolation breached: %d of %d cross-tenant requests were not rejected",
			rep.CrossTenantAttempts-rep.CrossTenantForbidden, rep.CrossTenantAttempts)
	}
	return rep, nil
}
