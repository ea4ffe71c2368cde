package main

// The three workloads and one repetition of each, driven through the
// public entry points: Spec.Resolve + cluster.Run for the simulator,
// Spec.ResolveLive + live.RunCluster for the live plane.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"hop/internal/cluster"
	"hop/internal/core"
	"hop/internal/live"
	"hop/internal/model"
	"hop/internal/scenario"
)

// workload is one named input the benchmark runs.
type workload struct {
	name, why string
	live      bool
	// panel is how many distinct sub-seeds a run cycles through. The
	// quality metrics (time to target, final loss) average the first
	// panel repetitions, one per sub-seed; on the simulator every later
	// repetition reruns a sub-seed and must reproduce its parameters.
	panel int
	spec  func(seed int64) scenario.Spec
}

var workloads = []workload{
	{
		name:  "sim-cnn16-hetero",
		why:   "paper Fig. 14/16 on the simulator: CNN GEMMs do most of the work; token queues and backup workers under 6x random slowdown",
		panel: 36,
		spec: func(seed int64) scenario.Spec {
			return scenario.Spec{
				Workload: "cnn",
				Topology: scenario.Topology{Kind: "ring-based", Workers: 16, Machines: 4},
				Protocol: scenario.Protocol{MaxIG: 4, Backup: 1, SendCheck: true},
				Hetero:   scenario.Hetero{Kind: "random", Factor: 6},
				// Worker 0 crossed the target by iteration 15 on all
				// of 160 seeds tried, mostly at 7-10.
				MaxIter:   24,
				EvalEvery: 1,
				Seed:      seed,
			}
		},
	},
	{
		name:  "sim-prague1024",
		why:   "Prague group quorum at 1024 workers: compute is ~0, so wall time is the event engine, protocol core, netsim, graph and setup",
		panel: 8,
		spec: func(seed int64) scenario.Spec {
			return scenario.Spec{
				Workload: "quadratic",
				Topology: scenario.Topology{Kind: "ring", Workers: 1024, Machines: 128},
				Protocol: scenario.Protocol{Mode: "prague", GroupSize: 4, GroupQuorum: 3},
				Hetero:   scenario.Hetero{Kind: "random"},
				// Worker 0 crossed the target at its 14th iteration on
				// all of 71 seeds tried.
				MaxIter:   24,
				EvalEvery: 1,
				Seed:      seed,
			}
		},
	},
	{
		name:  "live-svm4-topk",
		live:  true,
		why:   "the only workload on real sockets: live, transport and the TopK delta codec run, on a sparse model whose compute is a small share",
		panel: 64,
		spec: func(seed int64) scenario.Spec {
			return scenario.Spec{
				Workload:    "svm",
				Topology:    scenario.Topology{Kind: "ring", Workers: 4},
				Protocol:    scenario.Protocol{MaxIG: 3, Backup: 1, SendCheck: true},
				Compression: "topk:0.1",
				MaxIter:     400,
				EvalEvery:   1,
				Seed:        seed,
			}
		},
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// subSeed is the spec seed of sub-seed j of a run seeded with seed.
func subSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// repOut is what one repetition produced.
type repOut struct {
	traced    bool
	setup     time.Duration // runner's first call → first ComputeGrad
	body      time.Duration // first ComputeGrad → run returns
	steps     int           // ComputeGrad calls
	intervals []float64     // ms between one worker's successive ComputeGrad starts
	ttt       float64       // seconds to target on the plane's protocol clock
	finalLoss float64       // mean held-out loss over replicas after the run
	params    uint64        // hash of every replica's final parameters
	peakRSS   float64       // MiB, the process's peak resident set during the repetition
	// memAfterRun holds the heap counters as the run returned (traced
	// repetitions only), before any post-run check allocates.
	memAfterRun *runtime.MemStats
	failures    []string
	layer       map[string]float64 // per-layer values, traced repetitions only
	spans       []span             // every span, traced repetitions only
	clock       time.Time          // when the spans' clock started
	last        model.Trainer      // worker 0's trainer after the run (unwrapped)
}

func (o *repOut) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// runRep executes one repetition of w with spec seed seed.
func runRep(w workload, seed int64, traced bool) repOut {
	rec := newRecorder(traced)
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	var out repOut
	var start, end time.Duration
	if w.live {
		out, start, end = liveRep(w.spec(seed), rec)
	} else {
		out, start, end = simRep(w.spec(seed), rec)
	}
	out.traced = traced
	out.steps = rec.grads()
	first, ok := rec.firstGrad()
	if !ok {
		out.fail("no gradient was computed")
		return out
	}
	out.setup = first - start
	out.body = end - first
	out.intervals = rec.intervalsMs(nil)
	if len(rec.replicas) > 0 {
		out.last = rec.replicas[0].inner
	}
	h := fnv.New64a()
	var b [8]byte
	for _, p := range rec.replicas {
		for _, x := range p.inner.Params() {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	out.params = h.Sum64()
	if traced {
		spanLayers(rec, &out, start, end, w.live)
		out.clock = rec.base
		out.spans = append(append([]span{{name: spanRep, worker: noWorker, iter: -1, start: start, end: end}}, rec.runner...), rec.modelSpans()...)
		if after := out.memAfterRun; after != nil {
			steps := float64(out.steps)
			out.layer["runtime.alloc_bytes_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / steps
			out.layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
			out.layer["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		}
	}
	return out
}

// memStats reads the heap counters when traced, and is nil otherwise.
func memStats(traced bool) *runtime.MemStats {
	if !traced {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// meanEvalLoss is the mean held-out loss over the replicas' inner
// trainers, so the post-run evaluation stays out of the trace.
func meanEvalLoss(rec *recorder) float64 {
	sum := 0.0
	for _, p := range rec.replicas {
		sum += p.inner.EvalLoss()
	}
	return sum / float64(len(rec.replicas))
}

// simRep runs spec on the simulator. It returns the repetition's start
// and end on the recorder's clock.
func simRep(spec scenario.Spec, rec *recorder) (out repOut, start, end time.Duration) {
	out.layer = map[string]float64{}
	start = rec.now()
	closeResolve := rec.open(spanResolve)
	opts, err := spec.Resolve()
	closeResolve()
	if err != nil {
		out.fail("resolve: %v", err)
		return out, start, rec.now()
	}
	opts.Trainer = rec.prototype(opts.Trainer)
	closeRun := rec.open(spanRun)
	res, err := cluster.Run(opts)
	closeRun()
	end = rec.now()
	out.memAfterRun = memStats(rec.traced)
	if err != nil {
		out.fail("cluster.Run: %v", err)
		return out, start, end
	}
	if res.Deadlock != nil {
		out.fail("deadlock: %v", res.Deadlock)
	}
	n := opts.Core.Graph.N()
	for w := 0; w < n; w++ {
		if got := res.Metrics.WorkerIterations(w); got != spec.MaxIter {
			out.fail("worker %d completed %d of %d iterations", w, got, spec.MaxIter)
			break
		}
	}
	tt, ok := res.Metrics.Eval.TimeToValue(spec.ResolvedTargetLoss())
	if !ok {
		out.fail("eval loss never reached target %g (last %g)", spec.ResolvedTargetLoss(), res.Metrics.Eval.Last(math.NaN()))
	}
	out.ttt = tt.Seconds()
	out.finalLoss = meanEvalLoss(rec)
	maxGap, bound, violation := checkGaps(res.Engine.Gaps(), opts.Core)
	if violation != "" {
		out.fail("%s", violation)
	}
	if !rec.traced {
		return out, start, end
	}

	st := res.Engine.Stats()
	fs := res.Fabric.Stats()
	steps := float64(rec.grads())
	l := out.layer
	l["core.group_excluded"] = float64(st.GroupExcluded)
	l["core.sends_suppressed"] = float64(st.SendsSuppressed)
	l["core.stale_discarded"] = float64(st.StaleDiscarded)
	l["core.max_gap"] = float64(maxGap)
	l["core.gap_bound"] = float64(bound)
	l["netsim.messages_per_step"] = float64(fs.Messages) / steps
	l["netsim.inter_bytes_per_step"] = float64(fs.InterBytes) / steps
	l["metrics.iter_mean_ms"] = float64(res.Metrics.MeanIterDurationAll(0)) / 1e6
	l["metrics.iter_p99_ms"] = float64(res.Metrics.P99IterDuration()) / 1e6
	// The simulator charges the modeled payload, already scaled by the
	// codec's nominal ratio, for every update.
	wl, _ := scenario.WorkloadByName(spec.Workload)
	l["compress.wire_bytes_per_update"] = float64(opts.PayloadBytes)
	l["compress.ratio"] = float64(wl.PayloadBytes) / float64(opts.PayloadBytes)
	return out, start, end
}

// checkGaps compares every graph-adjacent pair's observed maximum
// iteration gap with its Table 1 bound wherever that bound is finite;
// gaps may be nil to compute only the bounds. Prague's group quorum
// leaves the gap unbounded by design (DESIGN.md §8): core.Bounds
// derives its numbers from Hop's pacing rules and does not apply
// there, so Prague pairs have no finite bound to check. It returns the
// largest observed gap, the largest finite bound and a description of
// the first violation.
func checkGaps(gaps *core.GapTracker, cfg core.Config) (maxGap, maxBound int, violation string) {
	g := cfg.Graph
	var b *core.Bounds
	if cfg.Mode != core.ModePrague {
		b = core.NewBounds(cfg)
	}
	for i := 0; i < g.N(); i++ {
		for _, j := range append(append([]int(nil), g.In(i)...), g.Out(i)...) {
			gap := 0
			if gaps != nil {
				gap = gaps.MaxGap(i, j)
			}
			if gap > maxGap {
				maxGap = gap
			}
			if b == nil {
				continue
			}
			bound := b.Gap(i, j)
			if bound >= core.Unbounded {
				continue
			}
			if bound > maxBound {
				maxBound = bound
			}
			if gap > bound && violation == "" {
				violation = fmt.Sprintf("iteration gap %d between workers %d and %d exceeds its bound %d", gap, i, j, bound)
			}
		}
	}
	return maxGap, maxBound, violation
}

// liveRep runs spec as a loopback TCP cluster in this process.
func liveRep(spec scenario.Spec, rec *recorder) (out repOut, start, end time.Duration) {
	out.layer = map[string]float64{}
	target := spec.ResolvedTargetLoss()
	start = rec.now()
	closeResolve := rec.open(spanResolve)
	cfgs, err := spec.ResolveLive(scenario.LiveOptions{Logger: live.NopLogger()})
	closeResolve()
	if err != nil {
		out.fail("resolve live: %v", err)
		return out, start, rec.now()
	}
	for i := range cfgs {
		cfgs[i].Trainer = rec.adopt(cfgs[i].Trainer)
	}
	// Worker 0 evaluates on the simulator's cadence: after its first
	// completed iteration, every EvalEvery after that, and after its
	// last. The callback runs on worker 0's goroutine, which
	// RunCluster joins before returning.
	probe := cfgs[0].Trainer
	done, hit := 0, time.Duration(-1)
	cfgs[0].OnIteration = func(int, float64) {
		done++
		if hit < 0 && ((done-1)%spec.EvalEvery == 0 || done == spec.MaxIter) && probe.EvalLoss() <= target {
			hit = rec.now()
		}
	}
	closeRun := rec.open(spanRun)
	res, err := live.RunCluster(cfgs, 0)
	closeRun()
	end = rec.now()
	out.memAfterRun = memStats(rec.traced)
	if err != nil {
		out.fail("live.RunCluster: %v", err)
		return out, start, end
	}
	for i, p := range rec.replicas {
		if got := len(p.starts); got != spec.MaxIter {
			out.fail("worker %d computed %d of %d gradients", i, got, spec.MaxIter)
			break
		}
	}
	if first, ok := rec.firstGrad(); ok && hit >= 0 {
		out.ttt = (hit - first).Seconds()
	} else {
		out.fail("worker 0's eval loss never reached target %g", target)
	}
	for i, p := range rec.replicas {
		if loss := p.inner.EvalLoss(); loss > target {
			out.fail("worker %d's eval loss %g is above target %g", i, loss, target)
		}
	}
	out.finalLoss = meanEvalLoss(rec)

	var cs core.Stats
	var ws struct {
		frames, bytes, sent, recv, raw, wire, stalls, beats, readErrs, corrupt int64
	}
	for _, w := range res.Workers {
		s := w.Stats()
		cs.GroupExcluded += s.GroupExcluded
		cs.SendsSuppressed += s.SendsSuppressed
		cs.StaleDiscarded += s.StaleDiscarded
		t := w.WireStats()
		ws.frames += t.FramesSent
		ws.bytes += t.BytesSent
		ws.sent += t.UpdatesSent
		ws.recv += t.UpdatesRecv
		ws.raw += t.RawUpdateBytesSent
		ws.wire += t.WireUpdateBytesSent
		ws.stalls += t.PipelineStalls
		ws.beats += t.HeartbeatsSent
		ws.readErrs += t.ReadErrors
		ws.corrupt += t.CorruptFrames
	}
	if ws.readErrs != 0 || ws.corrupt != 0 {
		out.fail("transport: %d read errors, %d corrupt frames", ws.readErrs, ws.corrupt)
	}
	if !rec.traced {
		return out, start, end
	}
	steps := float64(rec.grads())
	l := out.layer
	l["core.group_excluded"] = float64(cs.GroupExcluded)
	l["core.sends_suppressed"] = float64(cs.SendsSuppressed)
	l["core.stale_discarded"] = float64(cs.StaleDiscarded)
	// The live plane keeps no gap tracker; the bound is still defined.
	if opts, err := spec.Resolve(); err == nil {
		_, bound, _ := checkGaps(nil, opts.Core)
		l["core.gap_bound"] = float64(bound)
	}
	iv := rec.intervalsMs(nil)
	sort.Float64s(iv)
	l["metrics.iter_mean_ms"] = mean(iv)
	l["metrics.iter_p99_ms"] = quantileSorted(iv, 0.99)
	if ws.wire > 0 {
		l["compress.wire_bytes_per_update"] = float64(ws.wire) / float64(ws.sent)
		l["compress.ratio"] = float64(ws.raw) / float64(ws.wire)
	}
	l["transport.frames_per_step"] = float64(ws.frames) / steps
	l["transport.bytes_per_step"] = float64(ws.bytes) / steps
	l["transport.updates_sent"] = float64(ws.sent)
	l["transport.updates_recv"] = float64(ws.recv)
	l["transport.pipeline_stalls"] = float64(ws.stalls)
	l["transport.heartbeats_sent"] = float64(ws.beats)
	l["transport.read_errors"] = float64(ws.readErrs)
	l["transport.corrupt_frames"] = float64(ws.corrupt)
	// ResolveLive clones the replicas before the benchmark can wrap
	// them, so the clone cost is measured by cloning each final
	// replica once more.
	t0 := time.Now()
	for _, p := range rec.replicas {
		p.inner.Clone()
	}
	l["model.clone_s"] = time.Since(t0).Seconds()
	return out, start, end
}
