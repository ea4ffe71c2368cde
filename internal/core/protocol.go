package core

// This file is the runtime-agnostic heart of the repository: one Hop
// protocol state machine (Figures 4 and 7-9, §5 skipping, and the
// NOTIFY-ACK baseline) written once, against the Runtime interface,
// and driven by two very different shells — the deterministic
// simulator (Engine, engine.go) and the live TCP runtime
// (internal/live.Worker). Before this extraction the live runtime
// hand-mirrored recvReduce/jumpTarget/renewParams and silently lacked
// NOTIFY-ACK, the serial graph and stale weighting; now any protocol
// change lands on both planes by construction. See DESIGN.md §5.
//
// Token accounting. The protocol folds Fig. 7's "insert at iteration
// start / remove at iteration end" into a single advance step: moving
// from iteration k to iteration next (normally next = k+1; a §5 jump
// makes next larger) takes (next−k) tokens from every out-going
// neighbor's queue toward this worker and grants (next−k) tokens to
// every in-coming neighbor. Token queues are placed at their
// *consumer*: TokenQ(i→j), which the paper stores at worker i, is
// realized as a counter at worker j that i feeds through
// Runtime.GrantTokens. The Theorem 2 invariant count = Iter(i) −
// Iter(j) + max_ig is preserved exactly — in shared memory the grant
// is a direct Put, on the wire it is a token frame whose flight time
// only delays j, never violates the bound.
//
// Bounded staleness. Fig. 9's pseudocode dequeues at least one update
// from every in-neighbor per iteration, which would contradict the
// §3.5/Fig. 3(b) behaviour it illustrates (a worker advancing several
// iterations on a neighbor's old update). The protocol follows the
// paper's prose: drain what is available, remember the newest
// iteration ever received per sender (iter_rcv), and block only while
// iter_rcv < k−s. See DESIGN.md.

import (
	"errors"
	"math/rand"
	"time"

	"hop/internal/model"
	"hop/internal/tensor"
)

// Runtime is the execution environment one Protocol instance runs
// against: the clock, the cost model of gradient computation, and the
// message plane. The simulator implements it on the virtual-time
// kernel and network fabric; the live runtime implements it on
// wall-clock time and TCP. Everything the protocol decides — when to
// advance, jump, block, aggregate or discard — flows exclusively
// through this interface, which is what makes decision traces
// comparable across runtimes (DESIGN.md §5).
type Runtime interface {
	// Now returns the current time (virtual in simulation, wall-clock
	// live).
	Now() time.Duration

	// Compute models the gradient computation at iteration iter: it
	// runs fn and accounts for the modeled duration. In simulation fn
	// executes instantly in host time and the returned duration is the
	// heterogeneity model's cost; live, fn's real execution time (plus
	// any injected delay) is the cost. The parallel computation graph
	// uses the return value to overlap compute with Recv.
	Compute(iter int, fn func()) time.Duration

	// SleepUntil blocks this worker until the given time (no-op if
	// past).
	SleepUntil(t time.Duration)

	// Send delivers u to dst's update queue asynchronously (the Send
	// operation of §3.2 is non-blocking). dst is never this worker;
	// the protocol short-circuits self-delivery.
	Send(dst int, u Update)

	// SendAck delivers a NOTIFY-ACK acknowledgment for iter to dst.
	SendAck(dst, iter int)

	// GrantTokens feeds count tokens into TokenQ(me→dst), the counter
	// held by consumer dst (§4.2). iter is the iteration this worker
	// is entering — metadata for the live runtime's peer-iteration
	// observation; the count alone carries the invariant.
	GrantTokens(dst, iter, count int)

	// PeerIter reports the newest known iteration of peer, for the
	// §6.2(b) send-side check: exact in simulation (global gap
	// tracker), last-observed on the live runtime. It is a heuristic
	// there and remains one here.
	PeerIter(peer int) int

	// ObserveAdvance notes that this worker is now executing iteration
	// iter (the simulator's gap tracker; a no-op live).
	ObserveAdvance(iter int)
}

// ParamsAllocator is optionally implemented by a Runtime whose
// delivered update buffers are exclusively owned: every Update handed
// to Deliver carries a slice referenced nowhere else, and every slice
// the protocol passes to Send is released by the runtime before Send
// returns (copied or fully serialized). Under that ownership contract
// the protocol snapshots parameters from GetParams and hands reduced
// update buffers back through RecycleParams, making the per-iteration
// hot path allocation-free. The live runtime qualifies (each decoded
// frame is a fresh buffer; the transport snapshots before returning);
// the simulator does NOT — its zero-copy fan-out delivers one slice to
// many queues and chaos can duplicate entries — so it simply does not
// implement the interface and the protocol falls back to cloning.
type ParamsAllocator interface {
	// GetParams returns a length-n vector with unspecified contents.
	GetParams(n int) []float64
	// RecycleParams takes back a buffer the protocol no longer
	// references.
	RecycleParams(v []float64)
}

// Protocol is one worker's Hop state machine: the update queue, ack
// tracker, consumer-side token counters and staleness bookkeeping of a
// single participant, plus the per-iteration decision loop. It is
// runtime-agnostic — construct it with NewProtocol, feed inbound
// messages through Deliver/DeliverAck/DeliverTokens (any
// goroutine/process), and call Run on the worker's own
// goroutine/process.
type Protocol struct {
	cfg     Config
	id      int
	trainer model.Trainer
	rt      Runtime
	mon     Monitor

	queue *UpdateQueue
	acks  *AckTracker
	// tokens[j] is this worker's counter for TokenQ(j→me), j ranging
	// over the out-going neighbors; nil map when MaxIG == 0.
	tokens map[int]*TokenQueue

	// iterRecv[j]: iteration of the most recent u_{j→me} ever received
	// (staleness bookkeeping, Fig. 9); owned by the Run loop. Keyed by
	// sender and sized by the in-neighborhood, not the cluster — absent
	// means nothing received yet (-1).
	iterRecv map[int]int

	// in and out are the live neighbor views the iteration loop reads.
	// Without fault tolerance they alias the immutable graph sets gin
	// and gout; membership changes (membership.go) replace them with
	// fresh filtered slices — only ever on the Run goroutine, under mon
	// — so the graph's shared adjacency slices are never mutated.
	in, out   []int
	gin, gout []int
	gnbrs     []int // gin ∪ gout, deterministic order

	rng   *rand.Rand
	trace *Trace

	// sched is the Prague group schedule (nil in the Hop modes):
	// shared by every worker of an Engine, owned by a Protocol built
	// with NewProtocol.
	sched *pragueSchedule

	// alloc is rt's buffer recycler when the runtime's ownership rules
	// allow one (ParamsAllocator); nil otherwise. vecScratch is the
	// reduce's reusable [][]float64 header block.
	alloc      ParamsAllocator
	vecScratch [][]float64
	reduceBuf  []float64

	// crashIter is this worker's scheduled halt (0 = none).
	crashIter int

	// Elastic-membership state (membership.go); guarded by mon, nil
	// maps when fault tolerance is off.
	deadIn, deadOut map[int]bool
	pendingDead     map[int]bool
	pendingJoin     map[int]bool
	joinFirst       map[int]int
	joinLogged      map[int]bool
	curIter         int

	// stats and maxStale are guarded by mon.
	stats    Stats
	maxStale int
}

// NewProtocol builds the state machine for worker id. cfg supplies the
// cluster-wide protocol knobs (cfg.Trainers is ignored; the replica is
// passed explicitly so single-process runtimes need not materialize
// the whole cluster's models). The monitor must be the one the
// runtime's delivery path locks against; the runtime must deliver
// inbound messages via Deliver/DeliverAck/DeliverTokens. tr may be nil
// (no decision trace).
func NewProtocol(cfg Config, id int, t model.Trainer, mon Monitor, rt Runtime, tr *Trace) (*Protocol, error) {
	if err := cfg.ValidateProtocol(); err != nil {
		return nil, err
	}
	return newProtocol(cfg, id, t, mon, rt, tr, nil), nil
}

// newProtocol is NewProtocol for a cfg its caller has already
// validated. sched is the Prague schedule to share; nil builds one for
// this protocol alone.
func newProtocol(cfg Config, id int, t model.Trainer, mon Monitor, rt Runtime, tr *Trace, sched *pragueSchedule) *Protocol {
	n := cfg.Graph.N()
	p := &Protocol{
		cfg:     cfg,
		id:      id,
		trainer: t,
		rt:      rt,
		mon:     mon,
		queue:   NewUpdateQueue(mon, cfg.numSlots()),
		acks:    NewAckTracker(mon),
		in:      cfg.Graph.In(id),
		out:     cfg.Graph.Out(id),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(id)*7919 + 1)),
		trace:   tr,
	}
	p.alloc, _ = rt.(ParamsAllocator)
	if cfg.Mode == ModePrague {
		// Prague groups span the whole cluster regardless of topology
		// (the graph is a placement/cost substrate only), so the live
		// neighbor views — which elastic membership filters — cover
		// every peer, and in and out are the same set.
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != id {
				peers = append(peers, j)
			}
		}
		p.in, p.out = peers, peers
		p.gnbrs = peers
		if sched == nil {
			sched = newPragueSchedule(cfg.Prague, n)
		}
		p.sched = sched
	} else {
		p.gnbrs = append(append(make([]int, 0, len(p.in)+len(p.out)), p.in...), p.out...)
		p.gnbrs = dedupInts(p.gnbrs)
	}
	p.gin, p.gout = p.in, p.out
	// No size hint: under Prague gin is every peer, yet iterRecv stays
	// empty (staleness and rejoin do not compose with it).
	p.iterRecv = map[int]int{}
	if cfg.MaxIG > 0 {
		p.tokens = make(map[int]*TokenQueue, len(p.out))
		for _, j := range p.out {
			p.tokens[j] = NewTokenQueue(mon, cfg.MaxIG)
		}
	}
	if cfg.Faults != nil {
		p.crashIter = cfg.Faults[id].CrashIter
	}
	if cfg.FaultTolerance {
		p.deadIn = make(map[int]bool)
		p.deadOut = make(map[int]bool)
		p.pendingDead = make(map[int]bool)
		p.pendingJoin = make(map[int]bool)
		p.joinFirst = make(map[int]int)
		p.joinLogged = make(map[int]bool)
	}
	return p
}

// dedupInts removes duplicates preserving first-occurrence order.
func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// ID returns the worker id this protocol instance runs as.
func (p *Protocol) ID() int { return p.id }

// Abort unblocks and unwinds this worker's Run: every blocked (or
// future) wait on its queues panics with the abort sentinel, which Run
// converts into ErrAborted. Safe from any goroutine, before, during or
// after Run; used by live orchestration to tear down a cluster whose
// peer has failed — without it, neighbors of a dead worker block
// forever in Recv.
func (p *Protocol) Abort() {
	p.queue.close()
	p.acks.close()
	for _, tq := range p.tokens {
		tq.close()
	}
}

// Deliver enqueues a network-delivered update.
func (p *Protocol) Deliver(u Update) {
	p.noteAlive(u.From, u.Iter, true)
	p.queue.Enqueue(u)
}

// DeliverAck records a network-delivered NOTIFY-ACK from sender from
// for iter.
func (p *Protocol) DeliverAck(from, iter int) {
	p.noteAlive(from, 0, false)
	p.acks.Deliver(from, iter)
}

// DeliverTokens feeds count tokens granted by out-going neighbor from
// into the local TokenQ(from→me) counter. Grants from workers this
// protocol holds no queue for are ignored (the live wire may present
// them; the simulator never does).
func (p *Protocol) DeliverTokens(from, count int) {
	p.noteAlive(from, 0, false)
	if tq, ok := p.tokens[from]; ok {
		tq.Put(count)
	}
}

// Queue returns this worker's update queue (runtimes, tests).
func (p *Protocol) Queue() *UpdateQueue { return p.queue }

// TokenIn returns the local counter for TokenQ(j→me), or nil if j is
// not an out-going neighbor or token queues are disabled.
func (p *Protocol) TokenIn(j int) *TokenQueue { return p.tokens[j] }

// Stats snapshots this worker's protocol counters.
func (p *Protocol) Stats() Stats {
	p.mon.Lock()
	defer p.mon.Unlock()
	return p.stats
}

// MaxObservedStaleness reports the largest k − iter over all updates a
// bounded-staleness Reduce actually aggregated: Fig. 9 guarantees it
// never exceeds the configured bound, however updates arrive. It is 0
// when bounded staleness is disabled.
func (p *Protocol) MaxObservedStaleness() int {
	p.mon.Lock()
	defer p.mon.Unlock()
	return p.maxStale
}

// ErrAborted is returned by Run when Abort tore the worker down.
var ErrAborted = errors.New("core: protocol run aborted")

// ErrCrashed is returned by Run when a scheduled fault (Config.Faults)
// halted this worker mid-run.
var ErrCrashed = errors.New("core: worker halted by scheduled fault")

// Run executes the training loop until MaxIter (or until the runtime
// kills the worker at its deadline), returning ErrAborted if Abort
// unwound it and ErrCrashed if a scheduled fault halted it. It must
// run on the process/goroutine the runtime associates with this
// worker.
func (p *Protocol) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAborted); ok {
				err = ErrAborted
				return
			}
			panic(r) // runtime shells' own sentinels (and real bugs)
		}
	}()
	return p.run()
}

func (p *Protocol) run() error {
	cfg := &p.cfg
	k := 0
	if cfg.Rejoin {
		k = p.joinSync()
	}
	for cfg.MaxIter == 0 || k < cfg.MaxIter {
		if p.queue.isClosed() {
			panic(errAborted{})
		}
		if p.crashIter > 0 && k >= p.crashIter {
			// The scheduled halt lands at the top of the iteration —
			// before any send or compute — so the final update the
			// crashed worker contributed is tagged crashIter−1 on both
			// planes: a deterministic cut.
			p.trace.crash(k)
			return ErrCrashed
		}
		p.applyMembership(k)
		p.rt.ObserveAdvance(k)
		p.trace.advance(k)
		switch {
		case cfg.Mode == ModePrague:
			p.iterPrague(k)
		case cfg.Mode == ModeNotifyAck:
			p.iterNotifyAck(k)
		case cfg.Serial:
			p.iterSerial(k)
		default:
			p.iterParallel(k)
		}

		next := k + 1
		if cfg.Skip != nil {
			next = p.jumpTarget(k)
			if next > k+1 {
				p.renewParams(next - 1)
				p.trainer.ResetOptimizer()
				p.mon.Lock()
				p.stats.Jumps++
				p.stats.IterationsSkipped += next - k - 1
				p.mon.Unlock()
				p.trace.jump(k, next)
				if cfg.OnJump != nil {
					cfg.OnJump(p.id, k, next, p.rt.Now())
				}
			}
		}
		if cfg.MaxIG > 0 {
			delta := next - k
			for _, j := range p.outSnapshot() {
				p.tokens[j].takeOr(delta, p.tokenBlockHook(j))
			}
			for _, j := range p.in {
				p.rt.GrantTokens(j, next, delta)
			}
		}
		k = next
	}
	return nil
}

// iterParallel is the parallel computation graph of Fig. 2(b): Send
// and Compute proceed together, overlapping the blocking Recv;
// gradients computed on x_k are applied after the Reduce.
func (p *Protocol) iterParallel(k int) {
	t := p.trainer
	x := t.Params()

	// 1. Send x_k (self-loop delivered locally for free, §3.1).
	snap := p.snapshotParams(x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	p.sendAll(k, snap)

	// 2. Compute gradients on x_k; the runtime returns the modeled
	// duration so the protocol can overlap it with Recv below.
	start := p.rt.Now()
	var grads []float64
	var loss float64
	d := p.rt.Compute(k, func() { grads, loss = t.ComputeGrad(p.rng) })

	// 3+4. Recv and Reduce (mode-dependent) into the persistent reduce
	// scratch — not into x, which stays untouched until the compute
	// overlap below ends, exactly as with the old allocate-and-copy.
	reduced := p.reduceScratch(len(x))
	p.recvReduceInto(reduced, k)

	// The iteration ends no earlier than the compute does.
	p.rt.SleepUntil(start + d)

	// 5. Apply gradients to the reduced parameters.
	tensor.Copy(x, reduced)
	t.Apply(grads)

	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, loss, p.rt.Now())
	}
}

// iterSerial is the serial computation graph of Fig. 2(a): compute and
// apply on the same parameters, then send, then reduce. Fewer, longer
// iterations; exact gradients (§3.2).
func (p *Protocol) iterSerial(k int) {
	t := p.trainer
	x := t.Params()

	start := p.rt.Now()
	var grads []float64
	var loss float64
	d := p.rt.Compute(k, func() { grads, loss = t.ComputeGrad(p.rng) })
	p.rt.SleepUntil(start + d)
	t.Apply(grads)

	snap := p.snapshotParams(x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	p.sendAll(k, snap)

	// Reduce directly into x: the snapshot above (not x itself) is
	// what sits in the queue, so no aggregated vector aliases the
	// destination.
	p.recvReduceInto(x, k)

	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, loss, p.rt.Now())
	}
}

// iterNotifyAck is the NOTIFY-ACK baseline (§3.3, Fig. 2(a)): serial
// computation graph; Send(k) waits for ACK(k−1) from every out-going
// neighbor; after the Reduce the worker ACKs its in-coming neighbors.
func (p *Protocol) iterNotifyAck(k int) {
	t := p.trainer
	x := t.Params()

	start := p.rt.Now()
	var grads []float64
	var loss float64
	d := p.rt.Compute(k, func() { grads, loss = t.ComputeGrad(p.rng) })
	p.rt.SleepUntil(start + d)
	t.Apply(grads)

	// Send(k) is gated on the previous iteration's ACKs; a dead
	// neighbor's pending edge is released rather than waited on.
	p.acks.waitForOr(k-1, func() []int { return p.out }, p.ackBlockHook(k-1))
	snap := p.snapshotParams(x)
	p.queue.Enqueue(Update{Params: snap, Iter: k, From: p.id})
	for _, j := range p.out {
		p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
	}

	ups := p.queue.dequeueIterOr(k, func() int { return len(p.in) + 1 }, p.reduceBlockHook(k))
	p.meanInto(x, ups)
	p.recycleUpdates(ups)

	for _, j := range p.in {
		p.rt.SendAck(j, k)
	}

	if p.cfg.OnIteration != nil {
		p.cfg.OnIteration(p.id, k, loss, p.rt.Now())
	}
}

// sendAll sends the iteration-k snapshot to all out-going neighbors,
// applying the §6.2(b) receiver-iteration check when configured.
func (p *Protocol) sendAll(k int, snap []float64) {
	for _, j := range p.out {
		if p.cfg.SendCheck && p.rt.PeerIter(j) > k {
			p.mon.Lock()
			p.stats.SendsSuppressed++
			p.mon.Unlock()
			continue
		}
		p.rt.Send(j, Update{Params: snap, Iter: k, From: p.id})
	}
}

// recvReduceInto performs the mode-appropriate Recv + Reduce for
// iteration k, writing the reduced parameter vector into dst. dst must
// not alias any queued update (snapshots are copies, never x itself).
func (p *Protocol) recvReduceInto(dst []float64, k int) {
	if p.cfg.Staleness >= 0 {
		p.recvReduceStaleInto(dst, k)
		return
	}
	need := func() int {
		// Self included (§3.1); re-evaluated per pass because a peer
		// death shrinks the in-set mid-wait. The floor keeps a worker
		// whose every in-neighbor died training solo on its own update.
		n := len(p.in) + 1 - p.cfg.Backup
		if n < 1 {
			n = 1
		}
		return n
	}
	ups := p.queue.dequeueIterOr(k, need, p.reduceBlockHook(k))
	p.meanInto(dst, ups)
	p.recycleUpdates(ups)
}

// recvReduceStaleInto implements §4.4: keep the newest update per
// in-neighbor, require it to be at most s iterations old (blocking for
// a fresh one otherwise), and aggregate with the configured
// iteration-based weights (Eq. 2 by default) into dst.
func (p *Protocol) recvReduceStaleInto(dst []float64, k int) {
	s := p.cfg.Staleness
	minIter := k - s
	var vecs [][]float64
	var weights []float64
	for _, j := range append(append(make([]int, 0, len(p.in)+1), p.in...), p.id) {
		newest := p.newestFrom(j, minIter)
		// Include j only if an update actually arrived this iteration
		// and is within the bound; j's older information is already
		// folded into x by earlier reduces (§4.4).
		if newest.Params != nil && newest.Iter >= minIter {
			vecs = append(vecs, newest.Params)
			weights = append(weights, p.cfg.StaleWeighting.weight(newest.Iter-minIter+1))
			p.noteStaleness(k - newest.Iter)
		} else {
			p.trace.staleSkip(k, j)
		}
	}
	// The self update sent this iteration always satisfies the bound,
	// so vecs is never empty. Drained buffers are not recycled here:
	// the stale mode's drain flow is shared with membership resync and
	// stays on the allocator-free path for simplicity.
	tensor.WeightedMean(dst, vecs, weights)
}

// newestFrom drains sender j's queued updates, keeps the newest, and
// blocks until the newest iteration ever received from j reaches
// minIter (the Fig. 9 staleness gate). If j dies mid-wait the wait is
// abandoned and whatever was drained is returned.
func (p *Protocol) newestFrom(j, minIter int) Update {
	newest := Update{Iter: -1}
	consider := func(ups []Update) {
		for _, u := range ups {
			if u.Iter > newest.Iter {
				newest = u
			}
		}
		if cur, ok := p.iterRecv[j]; !ok || newest.Iter > cur {
			p.iterRecv[j] = newest.Iter
		}
	}
	recv := func() int {
		if cur, ok := p.iterRecv[j]; ok {
			return cur
		}
		return -1
	}
	consider(p.queue.DrainFrom(j))
	for recv() < minIter {
		ups, ok := p.queue.waitFromOr(j, p.senderGoneHook(j))
		if !ok {
			break
		}
		consider(ups)
	}
	return newest
}

// jumpTarget implements the §5 trigger: at the end of iteration k,
// read the local token counts toward this worker's out-going
// neighbors; their minimum equals min_j Iter(j) − k + max_ig. If the
// worker is at least TriggerBehind iterations behind all out-going
// neighbors, jump forward, bounded by MaxJump and by not surpassing
// any out-going neighbor (§5's "intuitive upper-bound" max_jump −
// max_ig).
func (p *Protocol) jumpTarget(k int) int {
	sc := p.cfg.Skip
	if len(p.out) == 0 {
		return k + 1
	}
	minTok := int(^uint(0) >> 1)
	for _, j := range p.out {
		if s := p.tokens[j].Size(); s < minTok {
			minTok = s
		}
	}
	behind := minTok - p.cfg.MaxIG // = min_j Iter(j) − Iter(me)
	trigger := sc.TriggerBehind
	if trigger < 2 {
		trigger = 2 // a jump below 2 is just the normal advance
	}
	if behind < trigger {
		return k + 1
	}
	delta := behind
	if delta > sc.MaxJump {
		delta = sc.MaxJump
	}
	if delta < 1 {
		delta = 1
	}
	next := k + delta
	if p.cfg.MaxIter > 0 && next > p.cfg.MaxIter {
		next = p.cfg.MaxIter
	}
	if next <= k {
		return k + 1
	}
	return next
}

// renewParams implements the pre-jump refresh of §5: Recv(kr) with the
// active mode's semantics, reduced together with the worker's own
// current parameters, so the post-jump model is not stale.
func (p *Protocol) renewParams(kr int) {
	x := p.trainer.Params()
	if p.cfg.Staleness >= 0 {
		minIter := kr - p.cfg.Staleness
		vecs := [][]float64{x}
		weights := []float64{1} // own params: oldest admissible weight
		for _, j := range p.in {
			newest := p.newestFrom(j, minIter)
			if newest.Params != nil && newest.Iter >= minIter {
				vecs = append(vecs, newest.Params)
				weights = append(weights, p.cfg.StaleWeighting.weight(newest.Iter-minIter+1))
			}
		}
		reduced := make([]float64, len(x))
		tensor.WeightedMean(reduced, vecs, weights)
		tensor.Copy(x, reduced)
		return
	}
	need := func() int {
		n := len(p.in) - p.cfg.Backup
		if n < 0 {
			n = 0
		}
		return n
	}
	ups := p.queue.dequeueIterOr(kr, need, p.reduceBlockHook(kr))
	vecs := make([][]float64, 0, len(ups)+1)
	vecs = append(vecs, x)
	for _, u := range ups {
		vecs = append(vecs, u.Params)
	}
	reduced := make([]float64, len(x))
	tensor.Mean(reduced, vecs)
	tensor.Copy(x, reduced)
	p.recycleUpdates(ups)
}

func (p *Protocol) noteStaleness(age int) {
	p.mon.Lock()
	if age > p.maxStale {
		p.maxStale = age
	}
	p.mon.Unlock()
}

// meanInto overwrites dst with the element-wise mean of the dequeued
// updates' parameters (the Reduce of §3.2) — same summation order as
// the old allocate-and-copy reduce, so results are bit-identical. dst
// must not alias any update's buffer.
func (p *Protocol) meanInto(dst []float64, ups []Update) {
	if len(ups) == 0 {
		panic("core: Reduce over zero updates")
	}
	vecs := p.vecScratch[:0]
	for _, u := range ups {
		vecs = append(vecs, u.Params)
	}
	p.vecScratch = vecs
	tensor.Mean(dst, vecs)
}

// snapshotParams clones x for enqueue/send, drawing from the runtime's
// buffer pool when its ownership contract permits (ParamsAllocator).
func (p *Protocol) snapshotParams(x []float64) []float64 {
	if p.alloc != nil {
		snap := p.alloc.GetParams(len(x))
		tensor.Copy(snap, x)
		return snap
	}
	return tensor.Clone(x)
}

// recycleUpdates hands fully-reduced update buffers back to the
// runtime's pool. Only call it with terminally dequeued updates —
// removed from the queue, reduced, and never referenced again.
func (p *Protocol) recycleUpdates(ups []Update) {
	if p.alloc == nil {
		return
	}
	for i := range ups {
		p.alloc.RecycleParams(ups[i].Params)
		ups[i].Params = nil
	}
}

// reduceScratch returns the persistent reduce target used by the
// parallel computation graph, which must leave x untouched until the
// compute overlap ends.
func (p *Protocol) reduceScratch(n int) []float64 {
	if cap(p.reduceBuf) < n {
		p.reduceBuf = make([]float64, n)
	}
	return p.reduceBuf[:n]
}
