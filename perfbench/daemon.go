package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"indexmerge"
	"indexmerge/internal/advisor"
	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/server"
	"indexmerge/internal/server/quota"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// The daemon-two-tenant workload: an in-process idxmerged on a
// loopback listener, journal on (fsync per append), two job workers and
// quotas high enough that well-behaved load is never shed. Two client
// goroutines share it:
//
//   - tenant "app" is a closed loop with 2 ms think time, like a DBA
//     tool waiting for replies: synchronous POST /cost requests that
//     rotate through 16 SQL-text workloads, over index sets drawn
//     zipf-skewed from each workload's seeded pool, and every tenth
//     request a merge job, timed from submit through polling to its
//     result. Merge jobs alternate between the per-query optimizer
//     model (which uses the session cost cache) and the compressed
//     model (which uses the workload's template cost table).
//   - tenant "stream" is an open loop at a fixed batch rate: SQL-text
//     ingest batches drawn from two seeded template pools whose mix
//     drifts from the first to the second over the run, with a retune
//     requested every twentieth batch. Each batch is timed from when it
//     was due.
//
// The daemon only ever receives SQL text and index lists; every input
// is generated here from the seed.

const (
	daemonScale       = 0.5
	appWorkloads      = 16  // workloads the app tenant registers
	appStatements     = 100 // statements per app workload
	appUniverse       = 40  // advisor-built indexes per workload that index sets draw from
	costSetsPerWL     = 8   // index sets per workload cost requests draw from
	costSetSize       = 20  // indexes per cost request
	mergePoolSize     = 128 // distinct (workload, initial configuration) pairs for merge jobs
	mergeInitial      = 10  // indexes per merge job
	mergeEvery        = 10  // every tenth app request is a merge job
	appThinkTime      = 2 * time.Millisecond
	streamBatch       = 25  // statements per ingest batch
	streamTemplates   = 12  // templates per stream pool
	streamVariants    = 600 // constant-varied statements per stream pool
	streamInterval    = 25 * time.Millisecond
	retuneEvery       = 20 // batches per retune request
	streamWindowMax   = 8  // members the window keeps per template
	pollInterval      = time.Millisecond
	requestTimeout    = 30 * time.Second
	scrapeEvery       = 200 // app requests between /metrics scrapes when tracing
	costRoute         = "POST /v1/sessions/{name}/cost"
	ingestRoute       = "POST /v1/sessions/{name}/ingest"
	maxRetuneWait     = 60 * time.Second
	daemonQueueCap    = 64
	daemonJobQuota    = 64
	daemonMemoryBytes = int64(8 << 30)
)

// appWorkload is one workload the app tenant registers.
type appWorkload struct {
	name string
	sql  string
	w    *sql.Workload // parsed in-process for checks
}

// indexSet is an index list sent with a request on one app workload.
type indexSet struct {
	wl      int
	indexes []server.IndexDefPayload
}

// daemonInputs is everything the clients send, generated from the seed.
type daemonInputs struct {
	db        *engine.Database // the sessions' database, built in-process for checks
	apps      []appWorkload
	costSets  []indexSet
	costWant  []float64 // in-process Cost(W, C) per cost set
	mergeSets []indexSet
	batches   []string // ingest batches in send order
	advisorNs int64
}

func subsetPayload(rng *rand.Rand, universe []catalog.IndexDef, n int) []server.IndexDefPayload {
	perm := rng.Perm(len(universe))
	defs := make([]catalog.IndexDef, 0, n)
	for _, i := range perm[:n] {
		defs = append(defs, universe[i])
	}
	return server.NewIndexDefPayloads(defs)
}

// poolLines renders a template pool: a few base statements and many
// constant-varied repetitions of them, one SQL line each.
func poolLines(db *engine.Database, seed int64) ([]string, error) {
	w, err := workload.Generate(db, workload.Options{
		Class: workload.Complex, Queries: streamTemplates, Duplication: streamVariants, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, q := range w.Queries {
		for f := 0; f < int(q.Freq); f++ {
			lines = append(lines, q.Stmt.String())
		}
	}
	return lines, nil
}

func makeDaemonInputs(seed int64, duration time.Duration) (*daemonInputs, error) {
	db, err := datagen.BuildNamed("synthetic2", daemonScale, databaseSeed)
	if err != nil {
		return nil, err
	}
	in := &daemonInputs{db: db}
	rng := rand.New(rand.NewSource(seed))
	adv := advisor.New(db, optimizer.New(db))
	for k := 0; k < appWorkloads; k++ {
		gen, err := workload.Generate(db, workload.Options{
			Class: workload.Complex, Disjunctions: true, Queries: appStatements, Seed: rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := sql.WriteWorkload(&text, gen); err != nil {
			return nil, err
		}
		app := appWorkload{name: fmt.Sprintf("w%d", k), sql: text.String()}
		app.w, err = indexmerge.ParseWorkload(strings.NewReader(app.sql), db)
		if err != nil {
			return nil, err
		}
		in.apps = append(in.apps, app)
		t0 := time.Now()
		universe, err := advisor.BuildInitialConfiguration(adv, app.w, appUniverse, rng.Int63())
		if err != nil {
			return nil, err
		}
		in.advisorNs += int64(time.Since(t0))
		if len(universe) < mergeInitial {
			return nil, fmt.Errorf("advisor recommended only %d indexes", len(universe))
		}
		gate, err := indexmerge.NewMerger(db, app.w)
		if err != nil {
			return nil, err
		}
		for i := 0; i < costSetsPerWL; i++ {
			set := indexSet{wl: k, indexes: subsetPayload(rng, universe, min(costSetSize, len(universe)))}
			c, err := gate.WorkloadCost(mustDefs(db, set.indexes))
			if err != nil {
				return nil, err
			}
			in.costSets = append(in.costSets, set)
			in.costWant = append(in.costWant, c)
		}
		for i := 0; i < mergePoolSize/appWorkloads; i++ {
			in.mergeSets = append(in.mergeSets, indexSet{wl: k, indexes: subsetPayload(rng, universe, mergeInitial)})
		}
	}
	// Interleave the workloads so consecutive merge jobs rotate through
	// them.
	rng.Shuffle(len(in.mergeSets), func(i, j int) { in.mergeSets[i], in.mergeSets[j] = in.mergeSets[j], in.mergeSets[i] })
	poolA, err := poolLines(db, rng.Int63())
	if err != nil {
		return nil, err
	}
	poolB, err := poolLines(db, rng.Int63())
	if err != nil {
		return nil, err
	}
	nb := int(duration / streamInterval)
	for b := 0; b < nb; b++ {
		mix := float64(b) / float64(nb) // share drawn from the second pool
		var sb strings.Builder
		for i := 0; i < streamBatch; i++ {
			pool := poolA
			if rng.Float64() < mix {
				pool = poolB
			}
			sb.WriteString(pool[rng.Intn(len(pool))])
			sb.WriteByte('\n')
		}
		in.batches = append(in.batches, sb.String())
	}
	return in, nil
}

func mustDefs(db *engine.Database, set []server.IndexDefPayload) []catalog.IndexDef {
	defs := make([]catalog.IndexDef, len(set))
	for i, p := range set {
		d, err := catalog.NewIndexDef(db.Schema(), p.Name, p.Table, p.Columns)
		if err != nil {
			panic(fmt.Sprintf("generated index %v is invalid: %v", p, err))
		}
		defs[i] = d
	}
	return defs
}

// client is a small JSON client that names its tenant.
type client struct {
	base   string
	hc     *http.Client
	tenant string
}

// do sends one request and decodes a 2xx JSON reply into out; any
// other status is an error.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// daemon is one running server with its sessions.
type daemon struct {
	srv     *server.Server
	ts      *httptest.Server
	journal string
	app     *client
	stream  *client
	admin   *client
}

func (d *daemon) close() {
	d.app.hc.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), maxRetuneWait)
	defer cancel()
	_ = d.srv.Drain(ctx) // jobs still queued at exit only delay shutdown
}

// startDaemon starts a server with a fresh journal and creates both
// tenants' sessions; it returns the server and the time the app
// session's creation (database build and analyze) took.
func startDaemon(in *daemonInputs, seed int64, journal string) (*daemon, time.Duration, error) {
	if err := os.Remove(journal); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	srv, err := server.New(server.Config{
		Workers:     2,
		QueueCap:    daemonQueueCap,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		JournalPath: journal,
		Quota: quota.Limits{
			MaxSessions:  8,
			MaxJobs:      daemonJobQuota,
			IngestPerSec: 1e6,
			IngestBurst:  1e6,
			MemoryBytes:  daemonMemoryBytes,
		},
		MemoryBudgetBytes: 2 * daemonMemoryBytes,
	})
	if err != nil {
		return nil, 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	d := &daemon{
		srv: srv, ts: ts, journal: journal,
		app:    &client{base: ts.URL, hc: hc, tenant: "app"},
		stream: &client{base: ts.URL, hc: hc, tenant: "stream"},
		admin:  &client{base: ts.URL, hc: hc},
	}
	t0 := time.Now()
	if err := d.app.do(http.MethodPost, "/v1/sessions", server.CreateSessionRequest{
		Name: "app", Tenant: "app", DB: "synthetic2", Scale: daemonScale, Seed: databaseSeed,
	}, nil); err != nil {
		d.close()
		return nil, 0, err
	}
	build := time.Since(t0)
	for _, app := range in.apps {
		if err := d.app.do(http.MethodPost, "/v1/sessions/app/workloads", server.RegisterWorkloadRequest{
			Name: app.name, SQL: app.sql,
		}, nil); err != nil {
			d.close()
			return nil, 0, err
		}
	}
	if err := d.stream.do(http.MethodPost, "/v1/sessions", server.CreateSessionRequest{
		Name: "stream", Tenant: "stream", DB: "synthetic2", Scale: daemonScale, Seed: databaseSeed,
		Continuous: &server.ContinuousSpec{Seed: seed, WindowMax: streamWindowMax},
	}, nil); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, build, nil
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	status server.JobStatus
	polls  int
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(c *client, id string, limit time.Duration) (jobRecord, error) {
	var rec jobRecord
	deadline := time.Now().Add(limit)
	for {
		rec.polls++
		if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &rec.status); err != nil {
			return rec, err
		}
		switch rec.status.State {
		case "queued", "running":
		default:
			return rec, nil
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("job %s still %s after %v", id, rec.status.State, limit)
		}
		time.Sleep(pollInterval)
	}
}

// mergeOutcome is a merge job's recommendation as served.
type mergeOutcome struct {
	set       int
	costModel string
	rec       recommendation
	saved     float64
	checks    int64
	explored  int64
}

// appStats is what the app tenant's loop measured.
type appStats struct {
	cost, merge     durations
	byJob           map[int]durations // merge latencies per distinct job (set, cost model)
	queueWait, run  durations
	polls           int
	outcomes        []mergeOutcome
	attempted       int64
	failed          int64
	problems, wrong []string
	maxStage        float64
	scrapeNs        int64
}

func (a *appStats) fail(err error) {
	a.failed++
	if len(a.problems) < 20 {
		a.problems = append(a.problems, err.Error())
	}
}

// warmUp runs, untimed, every cost request once and every merge job
// of the pool once under each cost model, so the timed run sees the
// session cost cache and the workloads' cost tables warm whatever its
// length: otherwise the share of first-time (cache-missing) jobs, and
// with it the merge percentiles, would depend on how many jobs a run
// gets through. It returns the number of merge jobs it submitted; the
// timed loop continues the job sequence from there. Its answers are
// checked like the timed run's.
func warmUp(d *daemon, in *daemonInputs, st *appStats, checked []bool) int {
	for k := range in.costSets {
		st.costRequest(d, in, k, checked)
	}
	n := 2 * len(in.mergeSets)
	for j := 0; j < n; j++ {
		st.mergeJob(d, in, j)
	}
	return n
}

// runApp is the app tenant's closed loop; warm holds the warm-up's
// answers, and the loop's merge jobs continue its job sequence.
func runApp(d *daemon, in *daemonInputs, seed int64, deadline time.Time, trace bool, warm *appStats, jobs int, checked []bool) *appStats {
	st := &appStats{outcomes: warm.outcomes, attempted: warm.attempted, failed: warm.failed, problems: warm.problems, wrong: warm.wrong}
	rng := rand.New(rand.NewSource(seed ^ 0xa99))
	// Cost requests rotate through the workloads and draw each
	// workload's index set zipf-skewed, so every run spreads its requests
	// evenly over workloads of different cost while a few sets per
	// workload stay hot.
	zipfs := make([]*datagen.Zipf, len(in.apps))
	for i := range zipfs {
		zipfs[i] = datagen.NewZipf(rng, costSetsPerWL, 1.1)
	}
	costs := 0
	for i := 0; time.Now().Before(deadline); i++ {
		if i > 0 {
			// Think time between replies and the next request keeps the
			// two CPUs short of saturation, so a slower machine moves the
			// latencies rather than tipping the loop into queueing.
			time.Sleep(appThinkTime)
		}
		if trace && i%scrapeEvery == 0 {
			t0 := time.Now()
			if text, err := d.admin.text("/metrics"); err == nil {
				st.maxStage = max(st.maxStage, metricValues(text)["idxmerged_brownout_stage"])
			}
			st.scrapeNs += int64(time.Since(t0))
		}
		if i%mergeEvery == mergeEvery-1 {
			st.mergeJob(d, in, jobs)
			jobs++
			continue
		}
		wl := costs % len(in.apps)
		costs++
		st.costRequest(d, in, wl*costSetsPerWL+zipfs[wl].Next()-1, checked)
	}
	return st
}

// costRequest sends one synchronous POST /cost for cost set k and
// checks the first answer for each set against the library's cost.
func (st *appStats) costRequest(d *daemon, in *daemonInputs, k int, checked []bool) {
	var resp server.CostResponse
	t0 := time.Now()
	set := in.costSets[k]
	err := d.app.do(http.MethodPost, "/v1/sessions/app/cost", server.CostRequest{Workload: in.apps[set.wl].name, Indexes: set.indexes}, &resp)
	lat := time.Since(t0)
	st.attempted++
	if err != nil {
		st.fail(err)
		return
	}
	st.cost = append(st.cost, ms(int64(lat)))
	if !checked[k] {
		checked[k] = true
		if resp.Cost != in.costWant[k] {
			st.wrong = append(st.wrong, fmt.Sprintf("cost of index set %d: daemon %v, library %v", k, resp.Cost, in.costWant[k]))
		}
	}
}

// mergeJob submits one merge job, polls it to completion and fetches
// its result.
func (st *appStats) mergeJob(d *daemon, in *daemonInputs, n int) {
	// Consecutive jobs alternate cost models, and every set takes the
	// other model on the next pass, so each stretch of a run holds both
	// models in equal shares.
	set := n % len(in.mergeSets)
	model := "opt"
	if (n+n/len(in.mergeSets))%2 == 1 {
		model = "compressed"
	}
	t0 := time.Now()
	var sub server.SubmitJobResponse
	st.attempted++
	if err := d.app.do(http.MethodPost, "/v1/sessions/app/jobs", server.SubmitJobRequest{
		Workload: in.apps[in.mergeSets[set].wl].name,
		Initial:  &server.InitialSpec{Indexes: in.mergeSets[set].indexes},
		Options:  server.JobOptions{CostModel: model},
	}, &sub); err != nil {
		st.fail(err)
		return
	}
	rec, err := waitJob(d.app, sub.ID, requestTimeout)
	if err != nil {
		st.fail(err)
		return
	}
	if rec.status.State != "done" {
		st.fail(fmt.Errorf("merge job %s ended %s: %s", sub.ID, rec.status.State, rec.status.Error))
		return
	}
	var res server.JobResult
	if err := d.app.do(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, &res); err != nil {
		st.fail(err)
		return
	}
	lat := ms(int64(time.Since(t0)))
	st.merge = append(st.merge, lat)
	if st.byJob == nil {
		st.byJob = make(map[int]durations)
	}
	job := n % (2 * len(in.mergeSets))
	st.byJob[job] = append(st.byJob[job], lat)
	st.polls += rec.polls
	if s := rec.status; s.StartedAt != nil && s.FinishedAt != nil {
		st.queueWait = append(st.queueWait, ms(int64(s.StartedAt.Sub(s.CreatedAt))))
		st.run = append(st.run, ms(int64(s.FinishedAt.Sub(*s.StartedAt))))
	}
	if res.Merge == nil {
		st.wrong = append(st.wrong, fmt.Sprintf("merge job %s returned no merge result", sub.ID))
		return
	}
	p := res.Merge
	final := make([]catalog.IndexDef, 0, len(p.Final))
	for _, f := range p.Final {
		final = append(final, catalog.IndexDef{Table: f.Table, Columns: f.Columns})
	}
	if p.FinalCost > p.Bound && !sameFloat(p.FinalCost, p.Bound) {
		st.wrong = append(st.wrong, fmt.Sprintf("merge job %s: final cost %v above U = %v", sub.ID, p.FinalCost, p.Bound))
	}
	st.outcomes = append(st.outcomes, mergeOutcome{
		set: set, costModel: model, saved: p.StorageReductionPct,
		checks: p.CostEvaluations, explored: p.ConfigsExplored,
		rec: recommendation{
			Signature: signatureOf(final), FinalBytes: p.FinalBytes, Checks: p.CostEvaluations,
			InitialCost: p.InitialCost, FinalCost: p.FinalCost, Bound: p.Bound,
		},
	})
}

// streamStats is what the stream tenant's loop measured.
type streamStats struct {
	ingest     durations
	late       durations
	retuneIDs  []string
	statements int
	attempted  int64
	failed     int64
	problems   []string
}

func (s *streamStats) fail(err error) {
	s.failed++
	if len(s.problems) < 20 {
		s.problems = append(s.problems, err.Error())
	}
}

// runStream is the stream tenant's open loop: batch b is due at
// start + b×interval, whether or not earlier batches have returned.
func runStream(d *daemon, in *daemonInputs, start, deadline time.Time) *streamStats {
	st := &streamStats{}
	for b, batch := range in.batches {
		due := start.Add(time.Duration(b) * streamInterval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		st.late = append(st.late, ms(int64(time.Since(due))))
		var resp server.IngestResponse
		st.attempted++
		err := d.stream.do(http.MethodPost, "/v1/sessions/stream/ingest", server.IngestRequest{SQL: batch}, &resp)
		if err != nil {
			st.fail(err)
			continue
		}
		st.ingest = append(st.ingest, ms(int64(time.Since(due))))
		if resp.Shed {
			st.fail(fmt.Errorf("ingest batch %d was shed", b))
			continue
		}
		st.statements += resp.Statements
		if b%retuneEvery == retuneEvery-1 {
			var sub server.SubmitJobResponse
			st.attempted++
			if err := d.stream.do(http.MethodPost, "/v1/sessions/stream/retune", nil, &sub); err != nil {
				st.fail(err)
				continue
			}
			st.retuneIDs = append(st.retuneIDs, sub.ID)
		}
	}
	return st
}

func (c *client) text(path string) (string, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// metricValues parses a Prometheus text exposition into
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
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// journalStats reads the journal file: appended events, bytes, and
// the bytes of ingest events.
func journalStats(path string) (appends, size, ingestBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		appends++
		size += int64(len(line)) + 1
		var ev struct {
			T string `json:"t"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.T == "ingest" {
			ingestBytes += int64(len(line)) + 1
		}
	}
	return appends, size, ingestBytes, sc.Err()
}

// libraryMerge runs Merger.MergeDefs in-process on a merge job's
// inputs.
func libraryMerge(in *daemonInputs, set int, costModel string) (recommendation, error) {
	job := in.mergeSets[set]
	m, err := indexmerge.NewMerger(in.db, in.apps[job.wl].w)
	if err != nil {
		return recommendation{}, err
	}
	opts := indexmerge.MergeOptions{CostConstraint: batchSlack}
	if costModel == "compressed" {
		opts.CostModel = indexmerge.CompressedOptimizerCost
	}
	res, err := m.MergeDefs(mustDefs(in.db, job.indexes), opts)
	if err != nil {
		return recommendation{}, err
	}
	return recommendationOf(res), nil
}

// checkMergeParity requires every merge job to reproduce the first job
// on the same inputs, and each distinct (set, model) job to match
// Merger.MergeDefs run in-process on the same inputs.
func checkMergeParity(in *daemonInputs, outcomes []mergeOutcome) []string {
	var wrong []string
	type key struct {
		set   int
		model string
	}
	first := make(map[key]recommendation)
	for _, o := range outcomes {
		k := key{o.set, o.costModel}
		if r, ok := first[k]; ok {
			if r != o.rec {
				wrong = append(wrong, fmt.Sprintf("merge set %d (%s) changed between jobs: %v then %v", o.set, o.costModel, r, o.rec))
			}
			continue
		}
		first[k] = o.rec
		want, err := libraryMerge(in, o.set, o.costModel)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("library merge of set %d: %v", o.set, err))
			continue
		}
		if want != o.rec {
			wrong = append(wrong, fmt.Sprintf("merge set %d (%s): daemon %v, library %v", o.set, o.costModel, o.rec, want))
		}
	}
	return wrong
}

// runDaemon runs the daemon-two-tenant workload.
func runDaemon(cfg runConfig) (*outcome, error) {
	in, err := makeDaemonInputs(cfg.seed, cfg.duration)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	var d *daemon
	var setup, build durations
	for i := 0; i < cfg.setupReps; i++ {
		if d != nil {
			d.close()
		}
		// Each set-up starts from a collected heap, so garbage left by
		// the previous repetition is not charged to it.
		runtime.GC()
		t0 := time.Now()
		var b time.Duration
		d, b, err = startDaemon(in, cfg.seed, filepath.Join(cfg.workDir, fmt.Sprintf("journal-%d.jsonl", os.Getpid())))
		if err != nil {
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		build = append(build, ms(int64(b)))
	}
	defer os.Remove(d.journal)
	defer d.close()

	checked := make([]bool, len(in.costSets))
	warm := &appStats{}
	warmJobs := warmUp(d, in, warm, checked)

	start := time.Now()
	deadline := start.Add(cfg.duration)
	var app *appStats
	var stream *streamStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		app = runApp(d, in, cfg.seed, deadline, cfg.trace, warm, warmJobs, checked)
	}()
	go func() {
		defer wg.Done()
		stream = runStream(d, in, start, deadline)
	}()
	wg.Wait()
	elapsed := time.Since(start)

	out := &outcome{raw: map[string]float64{}, samples: map[string]int{}}
	out.attempted = app.attempted + stream.attempted
	out.failed = app.failed + stream.failed
	out.problems = append(app.problems, stream.problems...)
	out.wrong = append(out.wrong, app.wrong...)

	var retune durations
	for _, id := range stream.retuneIDs {
		rec, err := waitJob(d.stream, id, maxRetuneWait)
		if err != nil {
			out.failed++
			out.problems = append(out.problems, err.Error())
			continue
		}
		s := rec.status
		if s.State != "done" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("retune %s ended %s: %s", id, s.State, s.Error))
			continue
		}
		if s.FinishedAt != nil {
			retune = append(retune, ms(int64(s.FinishedAt.Sub(s.CreatedAt))))
		}
	}
	for _, w := range checkMergeParity(in, app.outcomes) {
		out.incorrect(errors.New(w))
	}

	t0 := time.Now()
	text, err := d.admin.text("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	app.scrapeNs += int64(time.Since(t0))
	mv := metricValues(text)
	var sess struct {
		Continuous *server.ContinuousInfo `json:"continuous"`
	}
	if err := d.stream.do(http.MethodGet, "/v1/sessions/stream", nil, &sess); err != nil || sess.Continuous == nil {
		return nil, fmt.Errorf("read stream session: %v", err)
	}
	appends, jbytes, ingestBytes, err := journalStats(d.journal)
	if err != nil {
		return nil, fmt.Errorf("read journal: %w", err)
	}

	for _, o := range app.outcomes {
		out.saved += o.saved
		out.savedN++
	}
	// Merge percentiles are over the distinct jobs, each at the fastest
	// of its repetitions. After the warm-up every repetition of a job
	// does the same work, and the repetitions are spread over the whole
	// run, so the fastest one is the job's latency with the least
	// interference from the machine: on a shared host, periods in
	// which other tenants took CPU time moved the median repetition by
	// more than half, the fastest one by much less.
	var jobBest durations
	for _, lat := range app.byJob {
		jobBest = append(jobBest, lat.quantile(0))
	}
	out.samples["cost"] = len(app.cost)
	out.samples["merge"] = len(app.merge)
	out.samples["merge_jobs"] = len(app.byJob)
	out.samples["ingest"] = len(stream.ingest)
	out.samples["retune"] = len(retune)
	out.tails = map[string]bool{
		"merge_p90_ms": jobBest.tailOK(0.9), "cost_p99_ms": app.cost.tailOK(0.99),
		"ingest_p99_ms": stream.ingest.tailOK(0.99),
	}

	raw := out.raw
	raw["setup_s"] = setup.quantile(0.5)
	raw["merge_p50_ms"] = jobBest.quantile(0.5)
	raw["merge_p90_ms"] = jobBest.quantile(0.9)
	raw["cost_p50_ms"] = app.cost.quantile(0.5)
	raw["cost_p99_ms"] = app.cost.quantile(0.99)

	raw["ingest_p50_ms"] = stream.ingest.quantile(0.5)
	raw["ingest_p99_ms"] = stream.ingest.quantile(0.99)
	raw["retune_p50_ms"] = retune.quantile(0.5)
	raw["cost_rps"] = float64(len(app.cost)) / elapsed.Seconds()
	raw["error_rate"] = float64(out.failed) / float64(max(out.attempted, 1))
	raw["engine.build_ms"] = build.quantile(0.5)
	raw["advisor.initial_ms"] = ms(in.advisorNs)
	raw["bench.gen_late_ms"] = stream.late.quantile(0.99)

	// Cache and table traffic is reported per merge job, like the batch
	// workload reports it per merge.
	jobs := float64(max(len(app.outcomes), 1))
	hits := mv[`idxmerged_costcache_hits_total{session="app"}`]
	misses := mv[`idxmerged_costcache_misses_total{session="app"}`]
	raw["costcache.hits"] = hits / jobs
	raw["costcache.misses"] = misses / jobs
	raw["costcache.hit_ratio"] = hits / max(hits+misses, 1)
	th := mv[`idxmerged_costtable_hits_total{session="app"}`]
	tm := mv[`idxmerged_costtable_misses_total{session="app"}`]
	raw["wscale.table_hits"] = th / jobs
	raw["wscale.table_misses"] = tm / jobs
	raw["wscale.table_hit_ratio"] = th / max(th+tm, 1)
	var checks, explored durations
	for _, o := range app.outcomes {
		checks = append(checks, float64(o.checks))
		explored = append(explored, float64(o.explored))
	}
	raw["core.checks"] = checks.mean()
	raw["core.configs_explored"] = explored.mean()

	raw["server.queue_wait_ms"] = app.queueWait.mean()
	raw["server.job_run_ms"] = app.run.mean()
	routeMean := func(route string) float64 {
		sum := mv[fmt.Sprintf("idxmerged_http_route_seconds_sum{route=%q}", route)]
		n := mv[fmt.Sprintf("idxmerged_http_route_seconds_count{route=%q}", route)]
		return 1000 * sum / max(n, 1)
	}
	raw["server.route_ms.cost"] = routeMean(costRoute)
	raw["server.route_ms.ingest"] = routeMean(ingestRoute)
	raw["server.transport_ms"] = app.cost.mean() - raw["server.route_ms.cost"]
	raw["server.polls_per_job"] = float64(app.polls) / float64(max(len(app.merge), 1))
	var shed, shedQuota, shedBrownout float64
	for name, v := range mv {
		rest, ok := strings.CutPrefix(name, `idxmerged_shed_total{reason="`)
		if !ok {
			continue
		}
		shed += v
		switch {
		case strings.HasPrefix(rest, "quota"):
			shedQuota += v
		case strings.HasPrefix(rest, "brownout"):
			shedBrownout += v
		}
	}
	raw["server.shed"] = shed
	raw["server.shed.quota"] = shedQuota
	raw["server.shed.brownout"] = shedBrownout
	raw["server.brownout_max_stage"] = max(app.maxStage, mv["idxmerged_brownout_stage"])
	raw["journal.appends"] = float64(appends)
	raw["journal.bytes"] = float64(jbytes)
	raw["journal.bytes_per_statement"] = float64(ingestBytes) / float64(max(stream.statements, 1))
	ci := sess.Continuous
	raw["continuous.retunes"] = float64(ci.Retunes)
	raw["continuous.retune_skips"] = float64(ci.RetuneSkips)
	raw["continuous.applies"] = float64(ci.Applies)
	raw["continuous.window_templates"] = float64(ci.WindowTemplates)
	raw["trace.overhead_pct"] = 100 * float64(app.scrapeNs) / float64(elapsed)
	zeroMissing(raw)
	return out, nil
}
