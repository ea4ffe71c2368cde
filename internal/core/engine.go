package core

// The Engine is the simulator-side shell around the runtime-agnostic
// Protocol state machine (protocol.go): it builds one Protocol per
// worker, adapts the simulation Host to the per-worker Runtime
// interface, and keeps the cluster-wide observability the experiments
// read (gap tracker, aggregated stats, Table 1 bounds). All protocol
// logic — iteration modes, Recv/Reduce semantics, skipping, token
// accounting — lives in protocol.go and is shared verbatim with the
// live TCP runtime (internal/live).

import "time"

// Engine wires per-worker protocol instances and trainers for one
// simulated cluster and exposes the per-worker protocol loop.
type Engine struct {
	cfg  Config
	host Host
	mon  Monitor

	n       int
	workers []*Protocol
	gaps    *GapTracker
	sched   *pragueSchedule // Prague mode only: one schedule for all workers
}

// NewEngine validates cfg and builds the cluster state. The host is
// responsible for delivering messages sent through it back into the
// engine via Deliver/DeliverAck, and for running RunWorker once per
// worker. cfg is validated here once for the whole cluster, not again
// per worker.
func NewEngine(cfg Config, host Host, mon Monitor) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	e := &Engine{cfg: cfg, host: host, mon: mon, n: n}
	e.gaps = NewGapTrackerFor(mon, cfg.Graph)
	if cfg.Mode == ModePrague {
		e.sched = newPragueSchedule(cfg.Prague, n)
	}
	e.workers = make([]*Protocol, n)
	for w := 0; w < n; w++ {
		e.workers[w] = e.newWorker(cfg, w)
	}
	return e, nil
}

// newWorker builds worker w's protocol instance from an already
// validated cfg.
func (e *Engine) newWorker(cfg Config, w int) *Protocol {
	var tr *Trace
	if cfg.Tracers != nil {
		tr = cfg.Tracers[w]
	}
	return newProtocol(cfg, w, e.cfg.Trainers[w], e.mon, &engineRuntime{e: e, w: w}, tr, e.sched)
}

// engineRuntime adapts the cluster-wide Host to one worker's Runtime.
// Token grants short-circuit into the consumer's local counter — in
// shared memory the paper's TokenQ(i→j) and the consumer-side counter
// are literally the same object, so no fabric round-trip is modeled
// (token messages are metadata-sized next to parameter updates).
type engineRuntime struct {
	e *Engine
	w int
}

func (r *engineRuntime) Now() time.Duration { return r.e.host.Now() }

func (r *engineRuntime) Compute(iter int, fn func()) time.Duration {
	return r.e.host.Compute(r.w, iter, fn)
}

func (r *engineRuntime) SleepUntil(t time.Duration) { r.e.host.SleepUntil(r.w, t) }

func (r *engineRuntime) Send(dst int, u Update) { r.e.host.Send(r.w, dst, u) }

func (r *engineRuntime) SendAck(dst, iter int) { r.e.host.SendAck(r.w, dst, iter) }

func (r *engineRuntime) GrantTokens(dst, iter, count int) {
	r.e.workers[dst].DeliverTokens(r.w, count)
}

// PeerIter is exact in simulation: the global gap tracker knows every
// worker's current iteration (the §6.2(b) check's best case).
func (r *engineRuntime) PeerIter(peer int) int { return r.e.gaps.Iter(peer) }

func (r *engineRuntime) ObserveAdvance(iter int) { r.e.gaps.Advance(r.w, iter) }

// Deliver enqueues a network-delivered update at worker dst.
func (e *Engine) Deliver(dst int, u Update) { e.workers[dst].Deliver(u) }

// DeliverAck records a network-delivered NOTIFY-ACK from sender from
// at worker dst.
func (e *Engine) DeliverAck(dst, from, iter int) { e.workers[dst].DeliverAck(from, iter) }

// Worker returns worker w's protocol instance.
func (e *Engine) Worker(w int) *Protocol { return e.workers[w] }

// Queue returns worker w's update queue (tests and hosts).
func (e *Engine) Queue(w int) *UpdateQueue { return e.workers[w].Queue() }

// TokenQ returns TokenQ(i→j), or nil if absent. The queue is held by
// its consumer j (see protocol.go); the paper's owner-side naming is
// preserved here for the Theorem 2 assertions.
func (e *Engine) TokenQ(i, j int) *TokenQueue { return e.workers[j].TokenIn(i) }

// Gaps returns the iteration-gap tracker.
func (e *Engine) Gaps() *GapTracker { return e.gaps }

// Stats returns the engine counters aggregated over all workers.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, p := range e.workers {
		s := p.Stats()
		total.SendsSuppressed += s.SendsSuppressed
		total.StaleDiscarded += s.StaleDiscarded
		total.Jumps += s.Jumps
		total.IterationsSkipped += s.IterationsSkipped
		total.PeersLost += s.PeersLost
		total.PeersJoined += s.PeersJoined
		total.GroupExcluded += s.GroupExcluded
	}
	return total
}

// Bounds returns the Table 1 bound calculator for this configuration.
func (e *Engine) Bounds() *Bounds { return NewBounds(e.cfg) }

// RunWorker executes worker w's training loop until MaxIter (or until
// the host kills the process at its deadline). It must run on the
// process/goroutine the host associates with w. The simulator never
// aborts protocols (the kernel kills processes at its deadline
// instead), so the only error here is ErrCrashed from a scheduled
// fault — the host's cue to issue death notices (and maybe a restart).
func (e *Engine) RunWorker(w int) error { return e.workers[w].Run() }

// RestartWorker replaces worker w's protocol instance with a fresh
// rejoining participant: same trainer (parameters as of the crash),
// same decision trace, fresh queues, Config.Rejoin set and the crash
// schedule cleared. The host then runs RunWorker(w) again on a new
// process; in-flight deliveries resolve the worker at delivery time,
// so they land on the new instance.
func (e *Engine) RestartWorker(w int) error {
	cfg := e.cfg
	cfg.Rejoin = true
	cfg.Faults = nil
	if err := cfg.ValidateProtocol(); err != nil {
		return err
	}
	e.workers[w] = e.newWorker(cfg, w)
	return nil
}
