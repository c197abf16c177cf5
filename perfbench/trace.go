package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// span is one timed call into a layer. Spans of one merge share Trace;
// Parent is the enclosing span's ID (0 for a root). OptNs is the time
// spent in optimizer calls made directly under this span, which are
// counted rather than recorded as spans of their own.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	OptNs  int64  `json:"opt_ns,omitempty"`
	Calls  int64  `json:"opt_calls,omitempty"`
}

// tracer keeps spans in memory for one run; the merge pipeline is
// serial, so a stack of open spans identifies each span's parent.
type tracer struct {
	epoch time.Time
	trace int64
	spans []span
	open  []int // indexes into spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin starts a new trace (one merge).
func (t *tracer) begin() { t.trace++ }

func (t *tracer) start(name string) {
	parent := int64(0)
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Trace: t.trace, ID: int64(len(t.spans) + 1), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n-1]
}

// optimizerCall attributes one optimizer call to the innermost open
// span.
func (t *tracer) optimizerCall(ns int64) {
	if n := len(t.open); n > 0 {
		s := &t.spans[t.open[n-1]]
		s.OptNs += ns
		s.Calls++
	}
}

// layerTotals sums, per span name, the span durations, their self
// time (duration minus the time covered by child spans) and the
// optimizer time and calls made directly under them.
type layerTotals struct {
	DurNs, SelfNs, OptNs, Calls int64
}

func (t *tracer) totals() map[string]*layerTotals {
	child := make(map[int64]int64) // span ID -> time covered by children
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotals)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.DurNs += d
		lt.SelfNs += d - child[s.ID]
		lt.OptNs += s.OptNs
		lt.Calls += s.Calls
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedServer is the optimizer as the search's CostServer, timing and
// counting every call into it. It forwards the prepared fast paths, so
// the checker and the seek-cost attribution take exactly the code path
// they take on the bare optimizer.
type timedServer struct {
	o  *optimizer.Optimizer
	tr *tracer
}

var _ core.PreparedCostServer = (*timedServer)(nil)

func (s *timedServer) Optimize(stmt *sql.SelectStmt, cfg optimizer.Configuration) (*optimizer.Plan, error) {
	t0 := time.Now()
	p, err := s.o.Optimize(stmt, cfg)
	s.tr.optimizerCall(int64(time.Since(t0)))
	return p, err
}

func (s *timedServer) CostPrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (float64, error) {
	t0 := time.Now()
	c, err := s.o.CostPrepared(pq, cfg)
	s.tr.optimizerCall(int64(time.Since(t0)))
	return c, err
}

func (s *timedServer) OptimizePrepared(pq *optimizer.PreparedQuery, cfg optimizer.Configuration) (*optimizer.Plan, error) {
	t0 := time.Now()
	p, err := s.o.OptimizePrepared(pq, cfg)
	s.tr.optimizerCall(int64(time.Since(t0)))
	return p, err
}

// checker is what the search needs from a constraint checker, plus the
// optional interfaces it probes for.
type checker interface {
	core.ConstraintChecker
	core.ContextChecker
	core.OptimizerCallCounter
}

// timedChecker records a span around every constraint check. It
// forwards AcceptsContext, SetBase and OptimizerCalls so the search
// behaves exactly as it does over the bare checker.
type timedChecker struct {
	inner checker
	tr    *tracer
}

func (c *timedChecker) Accepts(cfg *core.Configuration, m, a, b *core.Index) (bool, error) {
	return c.AcceptsContext(context.Background(), cfg, m, a, b)
}

func (c *timedChecker) AcceptsContext(ctx context.Context, cfg *core.Configuration, m, a, b *core.Index) (bool, error) {
	c.tr.start("core.check")
	defer c.tr.end()
	return c.inner.AcceptsContext(ctx, cfg, m, a, b)
}

func (c *timedChecker) Description() string   { return c.inner.Description() }
func (c *timedChecker) Evaluations() int64    { return c.inner.Evaluations() }
func (c *timedChecker) OptimizerCalls() int64 { return c.inner.OptimizerCalls() }

// SetBase forwards the search's current configuration to checkers that
// price candidates against it.
func (c *timedChecker) SetBase(cfg *core.Configuration) {
	if ba, ok := c.inner.(interface{ SetBase(*core.Configuration) }); ok {
		ba.SetBase(cfg)
	}
}
