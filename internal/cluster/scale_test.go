package cluster

// scale_test.go — the O(degree) per-step cost contract at large n.
//
// The membership audit behind it: under Hop, death notices and
// WaitPeersDone-style fan-outs already walk the graph neighborhood
// (deathNoticePeers, core gnbrs), not the cluster. What the gate below
// pins is the steady-state iteration loop: per worker-step allocation
// cost must not grow with the cluster size, only with the degree — the
// regression this catches is a new per-step structure sized by n (an
// O(n) scan, an eager all-workers slice) slipping into protocol, gap
// tracking, or the netsim event queue. Prague is held to the same
// contract with "degree" read as the group size: a worker step touches
// only its own group, and each step's partition is built once per
// cluster step and shared, so its O(n) cost amortizes to O(1) per
// worker step.

import (
	"runtime"
	"testing"

	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/model"
)

// stepAllocCost runs the ring-of-n cluster twice — short and long runs
// differing by exactly extraSteps worker-iterations each — and returns
// allocations per additional worker-step, isolating the steady-state
// loop from O(n) setup cost. prague switches the protocol to Prague
// with group size 4.
func stepAllocCost(t *testing.T, n int, prague bool) float64 {
	t.Helper()
	const shortIter, longIter = 2, 22
	run := func(maxIter int) uint64 {
		opts := baseOptions(graph.Ring(n), maxIter)
		opts.Core.Trainers = make([]model.Trainer, n)
		for i := 0; i < n; i++ {
			opts.Core.Trainers[i] = model.NewQuadratic([]float64{5}, []float64{1}, 0.2, 0)
		}
		if prague {
			opts.Core.Mode = core.ModePrague
			opts.Core.Prague = &core.PragueConfig{GroupSize: 4, Seed: 3}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(opts); err != nil {
			t.Fatalf("n=%d maxIter=%d: %v", n, maxIter, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	shortRun := run(shortIter)
	longRun := run(longIter)
	steps := float64(n * (longIter - shortIter))
	return float64(longRun-shortRun) / steps
}

// TestStepAllocsIndependentOfClusterSize is the AllocsPerRun-style
// gate: per-worker-step allocations on a ring (constant degree), and
// under Prague with group size 4, at n=1024 must stay within 2.5x of
// n=64. Any O(n) bookkeeping per step would show up as a ~16x ratio —
// as rebuilding the n/4 Prague groups on every worker step did.
func TestStepAllocsIndependentOfClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("eight multi-hundred-worker simulations; skipped with -short")
	}
	for _, tc := range []struct {
		name   string
		prague bool
	}{{"hop", false}, {"prague", true}} {
		t.Run(tc.name, func(t *testing.T) {
			small := stepAllocCost(t, 64, tc.prague)
			big := stepAllocCost(t, 1024, tc.prague)
			t.Logf("allocs per worker-step: n=64 %.1f, n=1024 %.1f", small, big)
			if big > small*2.5 {
				t.Fatalf("per-step allocations grew with cluster size: n=64 %.1f vs n=1024 %.1f (> 2.5x)",
					small, big)
			}
		})
	}
}
