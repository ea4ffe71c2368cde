package core

// Prague partial all-reduce (the companion paper "Heterogeneity-Aware
// Asynchronous Decentralized Training"): instead of Hop's neighbor
// gossip, every iteration partitions the whole cluster into small
// randomized groups and averages parameters within the scheduled
// group only. The schedule is *static*: a seeded deterministic
// function of (seed, step), so every worker — simulated or live —
// computes the identical partition locally, with no coordinator and
// no exchange of group metadata. Stragglers are tolerated by quorum:
// a group's reduce proceeds once Quorum member updates (including the
// worker's own) are present, folding in any extras that have already
// arrived, instead of waiting for the full group. See DESIGN.md §8.
//
// The protocol reuses the existing Runtime primitives unchanged —
// Send/Deliver into the same tagged UpdateQueue, Compute/SleepUntil
// for the overlapped computation graph, ObserveAdvance for the gap
// tracker — so both the simulator and the live TCP runtime execute
// this file verbatim. The graph is a placement/cost substrate only:
// groups span all n workers regardless of topology, which is why
// NewProtocol widens the in/out neighbor views to the full peer set
// under ModePrague (and why elastic membership, which operates on
// those views, works for Prague without modification).

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"hop/internal/tensor"
)

// PragueConfig configures the Prague partial all-reduce protocol
// (Config.Prague, required when Mode == ModePrague).
type PragueConfig struct {
	// GroupSize is the target partial all-reduce group size, 2 ≤
	// GroupSize ≤ n. When n is not a multiple, the remainder forms one
	// smaller trailing group (possibly a singleton, which trains solo
	// that step).
	GroupSize int

	// Quorum is how many member updates — the worker's own included —
	// a group reduce waits for before proceeding; 0 means the full
	// live group (every member not removed by elastic membership).
	// This is the deterministic realization of the paper's straggler
	// deadline: count-based rather than wall-clock, so a full-quorum
	// spec is timing-forced and produces byte-identical decision
	// traces on the simulator and on TCP.
	Quorum int

	// Seed seeds the group schedule. Every worker in the cluster must
	// share it — it is the whole coordination mechanism.
	Seed int64
}

// validate checks the Prague knobs against the cluster size.
func (pc *PragueConfig) validate(n int) error {
	if pc.GroupSize < 2 {
		return fmt.Errorf("core: prague group size must be >=2, got %d", pc.GroupSize)
	}
	if pc.GroupSize > n {
		return fmt.Errorf("core: prague group size %d exceeds cluster size %d", pc.GroupSize, n)
	}
	if pc.Quorum < 0 || pc.Quorum > pc.GroupSize {
		return fmt.Errorf("core: prague quorum %d out of range [0, group size %d]", pc.Quorum, pc.GroupSize)
	}
	return nil
}

// pragueStepStride separates per-step RNG streams; any odd constant
// works, a large prime keeps adjacent steps' seeds far apart.
const pragueStepStride = 1_000_003

// PragueGroups returns step's partition of workers 0..n-1 into groups
// of the given size (the remainder, if any, forms one smaller trailing
// group). The result is a pure function of (seed, step, n, size):
// every worker computes the same partition locally, and each group is
// sorted ascending so group renderings — and therefore decision
// traces — are canonical. The groups are capacity-limited windows of
// one shared permutation, so appending to one never touches another.
func PragueGroups(seed int64, step, n, size int) [][]int {
	rng := rand.New(rand.NewSource(seed + int64(step)*pragueStepStride))
	perm := rng.Perm(n)
	groups := make([][]int, 0, (n+size-1)/size)
	for i := 0; i < n; i += size {
		end := i + size
		if end > n {
			end = n
		}
		g := perm[i:end:end]
		sort.Ints(g)
		groups = append(groups, g)
	}
	return groups
}

// PragueGroupOf returns the group containing worker w at step.
func PragueGroupOf(seed int64, step, n, size, w int) []int {
	for _, g := range PragueGroups(seed, step, n, size) {
		if containsInt(g, w) {
			return g
		}
	}
	panic(fmt.Sprintf("core: worker %d not in any prague group (n=%d)", w, n))
}

// PragueLastShared returns the last step in [0, maxIter) whose group
// schedule puts workers a and b in the same group, or -1 if they never
// share one. The live runtime's drain barrier uses it: the final
// protocol message between a pair of Prague workers is the update of
// their last shared step.
func PragueLastShared(seed int64, n, size, maxIter, a, b int) int {
	for step := maxIter - 1; step >= 0; step-- {
		if containsInt(PragueGroupOf(seed, step, n, size, a), b) {
			return step
		}
	}
	return -1
}

// PragueLastSharedAll returns, for every worker j, the result of
// PragueLastShared(seed, n, size, maxIter, w, j); entry w itself is -1.
// One backward pass over the schedule fills every peer at once and
// stops once all have been found, so the live drain barrier costs one
// pass over the schedule rather than one per peer.
func PragueLastSharedAll(seed int64, n, size, maxIter, w int) []int {
	last := make([]int, n)
	for j := range last {
		last[j] = -1
	}
	left := n - 1
	for step := maxIter - 1; step >= 0 && left > 0; step-- {
		for _, j := range PragueGroupOf(seed, step, n, size, w) {
			if j != w && last[j] < 0 {
				last[j] = step
				left--
			}
		}
	}
	return last
}

// pragueMemoSlots is how many steps a pragueSchedule keeps. Step k
// lives in slot k mod pragueMemoSlots, so workers fewer than that many
// steps apart never evict each other's partitions; one further behind
// only recomputes.
const pragueMemoSlots = 64

// praguePartition is one step's schedule: the PragueGroups result plus
// the index of each worker's group. It is never mutated once built, so
// every worker can hold the same value.
type praguePartition struct {
	step   int
	groups [][]int
	of     []int // of[w] indexes the group containing worker w
}

// pragueSchedule memoizes PragueGroups by step for one (seed, n, size).
// The simulator's engine shares one among all of its workers, so a
// step's partition is built once per cluster step — O(n) — and each
// worker's lookup is O(1) plus its O(size) group. A miss recomputes
// from PragueGroups, a pure function of the step, so eviction costs
// time but can never change a partition, and with it a trace. Safe
// for concurrent use.
type pragueSchedule struct {
	seed    int64
	n, size int

	mu    sync.Mutex
	slots [pragueMemoSlots]*praguePartition
}

func newPragueSchedule(pc *PragueConfig, n int) *pragueSchedule {
	return &pragueSchedule{seed: pc.Seed, n: n, size: pc.GroupSize}
}

// at returns step's partition, building it on a miss.
func (s *pragueSchedule) at(step int) *praguePartition {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.slots[step%pragueMemoSlots]
	if part := *slot; part != nil && part.step == step {
		return part
	}
	part := &praguePartition{
		step:   step,
		groups: PragueGroups(s.seed, step, s.n, s.size),
		of:     make([]int, s.n),
	}
	for gi, g := range part.groups {
		for _, w := range g {
			part.of[w] = gi
		}
	}
	*slot = part
	return part
}

// groupOf returns the group containing worker w at step; the same
// members, in the same order, as PragueGroupOf.
func (s *pragueSchedule) groupOf(step, w int) []int {
	part := s.at(step)
	return part.groups[part.of[w]]
}

// iterPrague is one Prague iteration: compute the step's scheduled
// group locally, send x_k to the live group members, overlap the
// gradient computation with the quorum Recv, average what arrived, and
// apply. Structure mirrors iterParallel (Fig. 2(b)); only the peer set
// and the Recv semantics differ.
func (p *Protocol) iterPrague(k int) {
	t := p.trainer
	x := t.Params()
	group := p.sched.groupOf(k, p.id)
	p.trace.group(group, k)

	// 1. Send x_k to the scheduled group (self-loop local, dead
	// members skipped). Every member is in gout, so membership in the
	// live view p.out is exactly "not in deadOut" — an O(1) check; a
	// nil map reads false when fault tolerance is off. The Run
	// goroutine is deadOut's only writer, so it reads it unlocked.
	snap := tensor.Clone(x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	for _, j := range group {
		if j != p.id && !p.deadOut[j] {
			p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
		}
	}

	// 2. Compute gradients on x_k, overlapping the Recv below.
	start := p.rt.Now()
	var grads []float64
	var loss float64
	d := p.rt.Compute(k, func() { grads, loss = t.ComputeGrad(p.rng) })

	// 3+4. Quorum Recv and partial all-reduce.
	reduced := p.pragueRecv(k, group)

	p.rt.SleepUntil(start + d)

	// 5. Apply gradients to the group average.
	tensor.Copy(x, reduced)
	t.Apply(grads)

	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, loss, p.rt.Now())
	}
}

// pragueRecv blocks until the quorum of iteration-k group updates is
// present (the worker's own included), folds in any extras already
// arrived, and returns the group mean. The requirement is re-evaluated
// per pass: a group member's death shrinks the live group, and the
// pragueBlockHook applies pending deaths of members whose tagged-k
// update is provably missing — the same lazy-application rule as Hop's
// reduce, so the applied iteration is deterministic (DESIGN.md §6, §8).
func (p *Protocol) pragueRecv(k int, group []int) []float64 {
	need := func() int {
		live := 0
		for _, j := range group {
			if j == p.id || !p.deadIn[j] { // j in p.in, as for p.out above
				live++
			}
		}
		n := live
		if q := p.cfg.Prague.Quorum; q > 0 && q < n {
			n = q
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	ups := p.queue.dequeueIterOr(k, need, p.pragueBlockHook(k, group))

	// Average one update per member — deduplicated by sender, first
	// arrival wins, so a duplicated delivery can never skew the mean.
	seen := make(map[int]bool, len(ups))
	vecs := make([][]float64, 0, len(ups))
	for _, u := range ups {
		if seen[u.From] {
			continue
		}
		seen[u.From] = true
		vecs = append(vecs, u.Params)
	}

	// Members absent from the reduce — quorum proceeded without them,
	// or they are dead — are recorded as group exclusions.
	for _, j := range group {
		if j != p.id && !seen[j] {
			p.mon.Lock()
			p.stats.GroupExcluded++
			p.mon.Unlock()
			p.trace.groupSkip(j, k)
		}
	}

	out := make([]float64, len(vecs[0]))
	tensor.Mean(out, vecs)
	return out
}

// pragueBlockHook applies pending deaths of scheduled group members
// whose tagged-iter update is missing — and only those: a dead
// member's already-arrived final update must be consumed exactly as if
// the member were alive, or the applied iteration would depend on
// notice timing. Pending deaths of non-members stay pending until a
// shared step actually blocks on them.
func (p *Protocol) pragueBlockHook(iter int, group []int) func() bool {
	if !p.cfg.FaultTolerance {
		return nil
	}
	return func() bool {
		if len(p.pendingDead) == 0 {
			return false
		}
		changed := false
		for _, d := range group {
			if d == p.id || !p.pendingDead[d] {
				continue
			}
			if p.queue.hasIterFromLocked(d, iter) {
				continue
			}
			p.applyDeathLocked(d)
			changed = true
		}
		return changed
	}
}
