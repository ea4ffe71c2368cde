// Command perfbench is the repository's benchmark: it runs one named
// workload for a given time, checks every repetition's outputs, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// split) with their units. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sim-cnn16-hetero --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hop/internal/compress"
	"hop/internal/model"
)

// runSeconds is the measuring time BENCHMARK.json asks for.
const runSeconds = 30

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark run.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "measure for at least this many seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer split from a traced run, 0 the end-to-end metrics")
	spans := fs.String("spans", "", "with --trace 1, write the last traced repetition's spans to this JSON file")
	describe := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		b, err := describeJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	res := run(config{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1})
	if *spans != "" && res.spans != nil {
		if err := writeSpans(*spans, res.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res.print(stdout)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // sample count or base, for the readable report
}

// result is a whole run.
type result struct {
	cfg       config
	attempted int
	failed    int
	failures  []string
	metrics   map[string]value
	order     []metricDef
	spans     []span        // the last traced repetition's spans
	clock     time.Time     // when that repetition's span clock started
	last      model.Trainer // worker 0's final trainer in the last traced repetition
	selfTimes []string
}

// run repeats the workload until cfg.seconds have passed and every
// sub-seed of the panel has run (on the simulator, at least one more
// repetition reruns the first sub-seed to check determinism).
func run(cfg config) *result {
	w := cfg.workload
	minReps := w.panel
	if !w.live {
		minReps++
	}
	res := &result{cfg: cfg, metrics: map[string]value{}}
	hashes := make([]uint64, w.panel)
	var reps []repOut
	begin := time.Now()
	for r := 0; r < minReps || time.Since(begin).Seconds() < cfg.seconds; r++ {
		j := r % w.panel
		// A traced run alternates untraced and traced repetitions so the
		// tracing overhead is measured on the same run.
		traced := cfg.traced && r%2 == 1
		// Every repetition starts from a collected heap, so garbage left
		// by the previous one is not collected on this one's clock.
		runtime.GC()
		resetPeakRSS()
		out := runRep(w, subSeed(cfg.seed, j), traced)
		out.peakRSS = peakRSSMiB()
		if r < w.panel {
			hashes[j] = out.params
		} else if !w.live && out.params != hashes[j] {
			out.fail("rerun of sub-seed %d produced different final parameters", j)
		}
		res.attempted++
		if len(out.failures) > 0 {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("rep %d (seed %d): %s", r, subSeed(cfg.seed, j), strings.Join(out.failures, "; ")))
		}
		if out.traced {
			res.spans = out.spans // keep only the last traced repetition's spans
			res.last, res.clock = out.last, out.clock
		}
		// Keep only what aggregation needs, so retained repetitions do
		// not grow the heap (and peak_rss_mb) over a run.
		out.spans, out.last, out.memAfterRun = nil, nil, nil
		reps = append(reps, out)
	}
	if cfg.traced {
		res.layerMetrics(reps)
	} else {
		res.endToEnd(reps)
	}
	return res
}

func (res *result) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, "undefined: "+note
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			res.metrics[name] = value{Value: v, Unit: d.Unit, note: note}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// endToEnd aggregates untraced repetitions: timings are medians over
// repetitions, the quality metrics means over the panel's sub-seeds.
func (res *result) endToEnd(reps []repOut) {
	res.order = endToEnd
	var setup, rate, iv, ttt, loss, rss []float64
	for i, o := range reps {
		setup = append(setup, o.setup.Seconds())
		rate = append(rate, float64(o.steps)/o.body.Seconds())
		rss = append(rss, o.peakRSS)
		iv = append(iv, o.intervals...)
		if i < res.cfg.workload.panel {
			ttt = append(ttt, o.ttt)
			loss = append(loss, o.finalLoss)
		}
	}
	sort.Float64s(iv)
	n := len(reps)
	res.set("setup_s", median(setup), fmt.Sprintf("median of %d repetitions", n))
	res.set("steps_per_s", median(rate), fmt.Sprintf("worker iterations per second, median of %d repetitions", n))
	res.set("step_p50_ms", quantileSorted(iv, 0.5), fmt.Sprintf("%d intervals", len(iv)))
	res.set("step_p99_ms", quantileSorted(iv, 0.99), fmt.Sprintf("%d intervals", len(iv)))
	res.set("virtual_time_to_target_s", mean(ttt), fmt.Sprintf("mean over %d sub-seeds", len(ttt)))
	res.set("final_loss", mean(loss), fmt.Sprintf("mean over %d sub-seeds", len(loss)))
	res.set("peak_rss_mb", median(rss), fmt.Sprintf("VmHWM during one repetition, median of %d", n))
}

// layerMetrics aggregates the traced repetitions (medians) and runs the
// single-worker baseline and the codec probe on the final trainer.
func (res *result) layerMetrics(reps []repOut) {
	res.order = perLayer
	vals := map[string][]float64{}
	var tracedRate, plainRate []float64
	for _, o := range reps {
		rate := float64(o.steps) / o.body.Seconds()
		if !o.traced {
			plainRate = append(plainRate, rate)
			continue
		}
		tracedRate = append(tracedRate, rate)
		for k, v := range o.layer {
			vals[k] = append(vals[k], v)
		}
	}
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			res.set(d.Name, median(v), fmt.Sprintf("median of %d traced repetitions", len(v)))
		} else {
			res.set(d.Name, 0, "not exercised by this workload")
		}
	}
	res.set("trace.overhead", 1-median(tracedRate)/median(plainRate),
		fmt.Sprintf("1 - traced/untraced steps_per_s over %d+%d repetitions", len(tracedRate), len(plainRate)))
	last := res.last
	if last == nil {
		return
	}
	solo := soloStepsPerSecond(last.Clone(), res.cfg.seed)
	res.set("model.solo_steps_per_s", solo, "one trainer's ComputeGrad+Apply loop on one goroutine")
	res.set("model.overhead_x", solo/median(plainRate), "solo_steps_per_s / untraced cluster steps_per_s")
	probe, err := codecProbe(last.Params(), res.clock)
	if err != nil {
		res.failed++
		res.failures = append(res.failures, "codec probe: "+err.Error())
	}
	res.spans = append(res.spans, probe...)
	res.selfTimes = selfTimes(res.spans)
	perFrame := map[string][]float64{}
	for _, s := range probe {
		if s.iter > 0 { // frame 0 is the dense re-key
			perFrame[s.name] = append(perFrame[s.name], float64(s.dur())/float64(time.Microsecond))
		}
	}
	note := fmt.Sprintf("median of %d frames, TopK 0.1 delta stream on the final parameters", len(perFrame[spanEncode]))
	res.set("compress.encode_us", median(perFrame[spanEncode]), note)
	res.set("compress.fold_us", median(perFrame[spanFold]), note)
}

// soloStepsPerSecond is the single-worker baseline: a plain
// ComputeGrad+Apply loop on t for a fixed wall-time budget.
func soloStepsPerSecond(t model.Trainer, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const budget = 300 * time.Millisecond
	start := time.Now()
	steps := 0
	for time.Since(start) < budget {
		g, _ := t.ComputeGrad(rng)
		t.Apply(g)
		steps++
	}
	return float64(steps) / time.Since(start).Seconds()
}

// codecProbe runs the TopK 0.1 delta stream on x and records a span
// per Compress+Commit and per DecodeInto, on the clock that started at
// clock. After the dense re-key frame (iteration 0), each frame moves x
// by a small seeded step, as training does between updates. The
// decoder's reconstruction must track x.
func codecProbe(x []float64, clock time.Time) ([]span, error) {
	const frames = 200
	x = append([]float64(nil), x...)
	enc := compress.NewDeltaEncoder(0.1)
	var dec compress.DeltaDecoder
	var buf []byte
	var got []float64
	rng := rand.New(rand.NewSource(1))
	step := make([]float64, len(x))
	for i := range step {
		step[i] = 1e-3 * rng.NormFloat64()
	}
	spans := make([]span, 0, 2*(frames+1))
	for f := 0; f <= frames; f++ {
		if f > 0 {
			for i := range x {
				x[i] += step[i]
			}
		}
		t0 := time.Since(clock)
		buf = enc.Compress(buf[:0], x)
		enc.Commit()
		t1 := time.Since(clock)
		var err error
		got, err = dec.DecodeInto(got, buf)
		t2 := time.Since(clock)
		if err != nil {
			return spans, err
		}
		spans = append(spans,
			span{name: spanEncode, worker: noWorker, iter: f, start: t0, end: t1},
			span{name: spanFold, worker: noWorker, iter: f, start: t1, end: t2})
	}
	// Every frame carries the largest residual coordinates, so the
	// reconstruction lags x by a few steps, far less than the drift.
	var lag, drift float64
	for i := range x {
		lag = math.Max(lag, math.Abs(got[i]-x[i]))
		drift = math.Max(drift, frames*math.Abs(step[i]))
	}
	if lag > drift/10 {
		return spans, fmt.Errorf("reconstruction lags the state by %g after a drift of %g", lag, drift)
	}
	return spans, nil
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM),
// so peakRSSMiB reads the peak since this call. Where the reset is not
// supported, peakRSSMiB reads the process's peak so far instead, which
// only the first repetitions can undercount; the error is dropped for
// that reason.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// environment describes the machine and build a result was measured on.
func environment(seed int64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit, seed)
}

// print writes the readable report and, last, the JSON result line.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %s\n", res.cfg.workload.name, res.cfg.workload.why)
	fmt.Fprintf(w, "env %s\n", environment(res.cfg.seed))
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, d := range res.order {
		v := res.metrics[d.Name]
		moves := ""
		if d.moves != "" {
			moves = " -> " + d.moves
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s%s\n", d.Name, v.Value, v.Unit, v.note, moves)
	}
	for _, s := range res.selfTimes {
		fmt.Fprintln(w, s)
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is a plain float64 or string
	}
	fmt.Fprintf(w, "%s\n", b)
}

// describeJSON renders BENCHMARK.json from the workload and metric
// tables, so the committed file cannot drift from the code.
func describeJSON() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	doc.EndToEnd = endToEnd
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// writeSpans writes spans as JSON, times in microseconds.
func writeSpans(path string, spans []span) error {
	type out struct {
		Name    string  `json:"name"`
		Worker  int     `json:"worker"`
		Iter    int     `json:"iter"`
		StartUs float64 `json:"start_us"`
		DurUs   float64 `json:"dur_us"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s.name, s.worker, s.iter, float64(s.start) / 1e3, float64(s.dur()) / 1e3}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
