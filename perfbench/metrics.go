package main

// Metric definitions, per-layer accounting from spans, and the
// statistics the report uses.

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Layer metrics name the end-to-end metric they should move.
	moves string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "virtual_time_to_target_s", Unit: "sim-s", Better: "lower", Bound: 0.25},
	{Name: "final_loss", Unit: "loss", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
}

var perLayer = []metricDef{
	{Name: "scenario.resolve_s", Unit: "s", Better: "lower", moves: "setup_s"},

	{Name: "run.setup_s", Unit: "s", Better: "lower", moves: "setup_s"},
	{Name: "run.self_us_per_step", Unit: "us", Better: "lower", moves: "steps_per_s"},
	{Name: "run.body_s", Unit: "s", Better: "lower", moves: "steps_per_s"},
	{Name: "run.teardown_s", Unit: "s", Better: "lower", moves: "steps_per_s"},
	{Name: "run.wait_share", Unit: "ratio", Better: "lower", moves: "step_p50_ms"},

	{Name: "core.group_excluded", Unit: "count", Better: "lower", moves: "virtual_time_to_target_s"},
	{Name: "core.sends_suppressed", Unit: "count", Better: "higher", moves: "virtual_time_to_target_s"},
	{Name: "core.stale_discarded", Unit: "count", Better: "lower", moves: "virtual_time_to_target_s"},
	{Name: "core.max_gap", Unit: "count", Better: "lower", moves: "virtual_time_to_target_s"},
	{Name: "core.gap_bound", Unit: "count", Better: "lower", moves: "virtual_time_to_target_s"},

	{Name: "netsim.messages_per_step", Unit: "count", Better: "lower", moves: "virtual_time_to_target_s"},
	{Name: "netsim.inter_bytes_per_step", Unit: "bytes", Better: "lower", moves: "virtual_time_to_target_s"},

	{Name: "metrics.iter_mean_ms", Unit: "ms", Better: "lower", moves: "virtual_time_to_target_s"},
	{Name: "metrics.iter_p99_ms", Unit: "ms", Better: "lower", moves: "virtual_time_to_target_s"},

	{Name: "model.grad_calls", Unit: "count", Better: "lower", moves: "steps_per_s"},
	{Name: "model.grad_busy_s", Unit: "s", Better: "lower", moves: "steps_per_s"},
	{Name: "model.grad_p50_us", Unit: "us", Better: "lower", moves: "steps_per_s"},
	{Name: "model.grad_p99_us", Unit: "us", Better: "lower", moves: "steps_per_s"},
	{Name: "model.apply_busy_s", Unit: "s", Better: "lower", moves: "steps_per_s"},
	{Name: "model.eval_busy_s", Unit: "s", Better: "lower", moves: "steps_per_s"},
	{Name: "model.clone_s", Unit: "s", Better: "lower", moves: "setup_s"},
	{Name: "model.share", Unit: "ratio", Better: "lower", moves: "steps_per_s"},
	{Name: "model.solo_steps_per_s", Unit: "1/s", Better: "higher", moves: "steps_per_s"},
	{Name: "model.overhead_x", Unit: "ratio", Better: "lower", moves: "steps_per_s"},

	{Name: "compress.wire_bytes_per_update", Unit: "bytes", Better: "lower", moves: "step_p50_ms"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher", moves: "step_p50_ms"},
	{Name: "compress.encode_us", Unit: "us", Better: "lower", moves: "step_p50_ms"},
	{Name: "compress.fold_us", Unit: "us", Better: "lower", moves: "step_p50_ms"},

	{Name: "transport.frames_per_step", Unit: "count", Better: "lower", moves: "step_p50_ms"},
	{Name: "transport.bytes_per_step", Unit: "bytes", Better: "lower", moves: "step_p50_ms"},
	{Name: "transport.updates_sent", Unit: "count", Better: "lower", moves: "steps_per_s"},
	{Name: "transport.updates_recv", Unit: "count", Better: "lower", moves: "steps_per_s"},
	{Name: "transport.pipeline_stalls", Unit: "count", Better: "lower", moves: "step_p99_ms"},
	{Name: "transport.heartbeats_sent", Unit: "count", Better: "lower", moves: "step_p99_ms"},
	{Name: "transport.read_errors", Unit: "count", Better: "lower", moves: "steps_per_s"},
	{Name: "transport.corrupt_frames", Unit: "count", Better: "lower", moves: "steps_per_s"},

	{Name: "runtime.alloc_bytes_per_step", Unit: "bytes", Better: "lower", moves: "peak_rss_mb"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", moves: "steps_per_s"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower", moves: "steps_per_s"},

	{Name: "trace.overhead", Unit: "ratio", Better: "lower", moves: "steps_per_s"},
	{Name: "trace.accounted_share", Unit: "ratio", Better: "higher", moves: "steps_per_s"},
}

// spanLayers derives a traced repetition's span-based layer metrics.
// Over the repetition's wall time [start, end], the runner's resolve
// span, the run span's self time and the union of model spans account
// for everything but the runner's own bookkeeping between its spans.
func spanLayers(rec *recorder, out *repOut, start, end time.Duration, concurrent bool) {
	l := out.layer
	resolve, _ := rec.runnerSpan(spanResolve)
	run, ok := rec.runnerSpan(spanRun)
	if !ok {
		return
	}
	first, _ := rec.firstGrad()
	model := rec.modelSpans()
	// Live workers compute concurrently, one per replica; the simulator
	// runs one worker process at a time.
	workers := 1.0
	if concurrent {
		workers = float64(len(rec.replicas))
	}

	var lastEnd time.Duration
	var busy, grad, apply, eval, clone time.Duration
	var gradUs []float64
	for _, s := range model {
		if s.end > lastEnd && s.name != spanClone {
			lastEnd = s.end
		}
		busy += s.dur()
		switch s.name {
		case spanGrad:
			grad += s.dur()
			gradUs = append(gradUs, float64(s.dur())/float64(time.Microsecond))
		case spanApply:
			apply += s.dur()
		case spanEval:
			eval += s.dur()
		case spanClone:
			clone += s.dur()
		}
	}
	sort.Float64s(gradUs)
	steps := float64(out.steps)
	wall := end - start
	body := run.end - first

	l["scenario.resolve_s"] = resolve.dur().Seconds()
	l["run.setup_s"] = selfTime(run, model, run.start, first).Seconds()
	l["run.self_us_per_step"] = float64(selfTime(run, model, first, run.end)) / float64(time.Microsecond) / steps
	l["run.body_s"] = body.Seconds()
	l["run.teardown_s"] = (run.end - lastEnd).Seconds()
	l["run.wait_share"] = 1 - float64(busy-clone)/(workers*float64(body))
	l["model.grad_calls"] = float64(len(gradUs))
	l["model.grad_busy_s"] = grad.Seconds()
	l["model.grad_p50_us"] = quantileSorted(gradUs, 0.5)
	l["model.grad_p99_us"] = quantileSorted(gradUs, 0.99)
	l["model.apply_busy_s"] = apply.Seconds()
	l["model.eval_busy_s"] = eval.Seconds()
	l["model.clone_s"] += clone.Seconds()
	l["model.share"] = float64(busy) / (workers * float64(wall))
	accounted := resolve.dur() + selfTime(run, model, run.start, run.end) + union(model, run.start, run.end)
	l["trace.accounted_share"] = float64(accounted) / float64(wall)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantileSorted returns the nearest-rank q-quantile of sorted xs.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
