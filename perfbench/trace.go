package main

// Measurement from outside the program: every model replica a run
// creates is wrapped in a replica, which stamps the start of each
// ComputeGrad and, when tracing, records a span around every Trainer
// call. Nothing inside hop/internal is instrumented.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"hop/internal/model"
)

// Span names. Runner spans bracket the calls the benchmark makes into
// a layer; model spans bracket one Trainer call on one replica.
const (
	spanRep     = "rep"
	spanResolve = "scenario.resolve"
	spanRun     = "run" // cluster.Run or live.RunCluster
	spanGrad    = "model.ComputeGrad"
	spanApply   = "model.Apply"
	spanEval    = "model.EvalLoss"
	spanReset   = "model.ResetOptimizer"
	spanClone   = "model.Clone"
	spanEncode  = "compress.Compress+Commit"
	spanFold    = "compress.DecodeInto"
	noWorker    = -1
)

// span is one timed call. Spans of one worker iteration share
// (worker, iter): iter is the replica's ComputeGrad ordinal, and the
// Apply and EvalLoss that follow a gradient carry its ordinal.
type span struct {
	name         string
	worker, iter int
	start, end   time.Duration // since the recorder's base
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects one repetition's stamps and spans. Each replica
// appends only to its own slices (a replica is driven by one goroutine
// at a time), so the hot path takes no lock.
type recorder struct {
	base   time.Time
	traced bool

	mu       sync.Mutex
	replicas []*replica
	runner   []span // spans the runner itself opens
}

func newRecorder(traced bool) *recorder {
	return &recorder{base: time.Now(), traced: traced}
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

// open starts a runner span; the returned func closes it.
func (r *recorder) open(name string) func() {
	start := r.now()
	return func() {
		end := r.now()
		if r.traced {
			r.mu.Lock()
			r.runner = append(r.runner, span{name: name, worker: noWorker, iter: -1, start: start, end: end})
			r.mu.Unlock()
		}
	}
}

// adopt wraps t as the next replica; replicas are numbered in adoption
// order, which is worker order for both cluster.Run (it clones the
// prototype once per worker, in order) and ResolveLive's configs.
func (r *recorder) adopt(t model.Trainer) *replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &replica{inner: t, rec: r, id: len(r.replicas), iter: -1}
	r.replicas = append(r.replicas, rep)
	return rep
}

// prototype wraps a trainer that is only ever cloned: its clones are
// adopted as replicas and the clone time is recorded.
func (r *recorder) prototype(t model.Trainer) model.Trainer {
	return &replica{inner: t, rec: r, id: noWorker, iter: -1}
}

// replica is a model.Trainer that forwards to inner and records.
type replica struct {
	inner  model.Trainer
	rec    *recorder
	id     int
	iter   int             // ComputeGrad ordinal of the current iteration
	starts []time.Duration // ComputeGrad start times, always recorded
	spans  []span          // Trainer call spans, when tracing
}

func (p *replica) note(name string, start time.Duration) {
	p.spans = append(p.spans, span{name: name, worker: p.id, iter: p.iter, start: start, end: p.rec.now()})
}

func (p *replica) Params() []float64 { return p.inner.Params() }

func (p *replica) ComputeGrad(rng *rand.Rand) ([]float64, float64) {
	start := p.rec.now()
	p.iter++
	p.starts = append(p.starts, start)
	g, loss := p.inner.ComputeGrad(rng)
	if p.rec.traced {
		p.note(spanGrad, start)
	}
	return g, loss
}

func (p *replica) Apply(grads []float64) {
	if !p.rec.traced {
		p.inner.Apply(grads)
		return
	}
	start := p.rec.now()
	p.inner.Apply(grads)
	p.note(spanApply, start)
}

func (p *replica) ResetOptimizer() {
	if !p.rec.traced {
		p.inner.ResetOptimizer()
		return
	}
	start := p.rec.now()
	p.inner.ResetOptimizer()
	p.note(spanReset, start)
}

func (p *replica) EvalLoss() float64 {
	if !p.rec.traced {
		return p.inner.EvalLoss()
	}
	start := p.rec.now()
	loss := p.inner.EvalLoss()
	p.note(spanEval, start)
	return loss
}

func (p *replica) Clone() model.Trainer {
	start := p.rec.now()
	c := p.rec.adopt(p.inner.Clone())
	if p.rec.traced {
		// The clone span belongs to the new replica's setup.
		c.spans = append(c.spans, span{name: spanClone, worker: c.id, iter: -1, start: start, end: p.rec.now()})
	}
	return c
}

// modelSpans returns every replica's spans.
func (r *recorder) modelSpans() []span {
	var out []span
	for _, p := range r.replicas {
		out = append(out, p.spans...)
	}
	return out
}

// runnerSpan returns the runner span with the given name.
func (r *recorder) runnerSpan(name string) (span, bool) {
	for _, s := range r.runner {
		if s.name == name {
			return s, true
		}
	}
	return span{}, false
}

// firstGrad returns the earliest ComputeGrad start over all replicas.
func (r *recorder) firstGrad() (time.Duration, bool) {
	first, ok := time.Duration(0), false
	for _, p := range r.replicas {
		if len(p.starts) > 0 && (!ok || p.starts[0] < first) {
			first, ok = p.starts[0], true
		}
	}
	return first, ok
}

// grads returns the number of ComputeGrad calls over all replicas.
func (r *recorder) grads() int {
	n := 0
	for _, p := range r.replicas {
		n += len(p.starts)
	}
	return n
}

// intervalsMs appends every gap between one replica's successive
// ComputeGrad starts, in milliseconds.
func (r *recorder) intervalsMs(dst []float64) []float64 {
	for _, p := range r.replicas {
		for i := 1; i < len(p.starts); i++ {
			dst = append(dst, float64(p.starts[i]-p.starts[i-1])/float64(time.Millisecond))
		}
	}
	return dst
}

// union returns the total length of the union of the spans' intervals
// clipped to [lo, hi].
func union(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.start < lo {
			s.start = lo
		}
		if s.end > hi {
			s.end = hi
		}
		if s.end > s.start {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, s := range iv {
		if open && s.start <= curEnd {
			if s.end > curEnd {
				curEnd = s.end
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s.start, s.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover, over the window [lo, hi] of the parent.
func selfTime(parent span, children []span, lo, hi time.Duration) time.Duration {
	if lo < parent.start {
		lo = parent.start
	}
	if hi > parent.end {
		hi = parent.end
	}
	if hi <= lo {
		return 0
	}
	return hi - lo - union(children, lo, hi)
}

// selfTimes summarises spans by name: count, total and self time. The
// rep span's children are the resolve and run spans, and the run
// span's children are the model spans; every other span is a leaf.
func selfTimes(spans []span) []string {
	type agg struct {
		count       int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var runner, model []span
	for _, s := range spans {
		switch {
		case s.name == spanRep:
		case strings.HasPrefix(s.name, "model."):
			model = append(model, s)
		default:
			runner = append(runner, s)
		}
	}
	for _, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.count++
		a.total += s.dur()
		switch s.name {
		case spanRep:
			a.self += selfTime(s, runner, s.start, s.end)
		case spanRun:
			a.self += selfTime(s, model, s.start, s.end)
		default:
			a.self += s.dur()
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	lines := make([]string, len(names))
	for i, n := range names {
		a := by[n]
		lines[i] = fmt.Sprintf("span %-26s count=%-7d total=%.6fs self=%.6fs", n, a.count, a.total.Seconds(), a.self.Seconds())
	}
	return lines
}
