package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesFollowGrammar(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the name grammar", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	maxBound := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower is better, with the largest bound; got %+v", d)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := describeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --describe > BENCHMARK.json")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := lookup("sim-cnn16"); err == nil {
		t.Error("lookup accepted an unknown workload")
	}
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "nope", "--seconds", "0"}, &out, &errOut); code == 0 {
		t.Error("cli exited 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Errorf("cli printed a result for an unknown workload: %q", out.String())
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := func(a, b int) span {
		return span{start: time.Duration(a) * time.Millisecond, end: time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	// [10,30] and [20,50] overlap (40 ms covered), [25,35] lies inside
	// them, [60,70] adds 10 and [90,120] is clipped to 10.
	children := []span{ms(60, 70), ms(20, 50), ms(10, 30), ms(25, 35), ms(90, 120)}
	if got, want := selfTime(parent, children, parent.start, parent.end), 40*time.Millisecond; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	// A window starting at 40 ms sees children covering [40,50], [60,70]
	// and [90,100].
	if got, want := selfTime(parent, children, 40*time.Millisecond, parent.end), 30*time.Millisecond; got != want {
		t.Errorf("windowed self time %v, want %v", got, want)
	}
	if got := selfTime(parent, nil, parent.start, parent.end); got != parent.dur() {
		t.Errorf("self time without children %v, want %v", got, parent.dur())
	}
}

// TestSmokeEveryWorkloadPassesGate runs each workload briefly, untraced
// and traced, on a seed other than the default.
func TestSmokeEveryWorkloadPassesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := w
		w.panel = 2
		t.Run(w.name, func(t *testing.T) { smoke(t, w) })
	}
}

func smoke(t *testing.T, w workload) {
	for _, traced := range []bool{false, true} {
		res := run(config{workload: w, seed: 2, seconds: 0, traced: traced})
		if res.failed != 0 || res.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d repetitions failed: %v", traced, res.failed, res.attempted, res.failures)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := res.metrics[d.Name]; !ok {
				t.Errorf("traced=%v: metric %s missing", traced, d.Name)
			}
		}
		if traced {
			if a := res.metrics["trace.accounted_share"].Value; a < 0.99 || a > 1 {
				t.Errorf("spans account for %g of the traced wall time", a)
			}
			continue
		}
		for _, d := range endToEnd {
			if v := res.metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s = %g, want > 0", d.Name, v)
			}
		}
		var buf bytes.Buffer
		res.print(&buf)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("last line has keys %v", last)
		}
	}
}
