// Package live is the real-time, real-network runtime of the Hop
// protocol: one Worker per process (or goroutine), communicating over
// TCP through internal/transport. It demonstrates that the protocol is
// not simulator-bound: the Worker is a thin shell that adapts sockets
// and wall-clock time to the core.Runtime interface and lets the
// shared core.Protocol state machine (internal/core/protocol.go) make
// every decision. The full protocol surface — standard, serial and
// NOTIFY-ACK modes, token queues, backup workers, bounded staleness
// with configurable weighting, skipping iterations — runs here
// verbatim from the same code the deterministic simulator executes.
//
// Queue placement follows the protocol core's consumer-side
// convention: TokenQ(i→j) is a counter at worker j (initialized to
// max_ig) that worker i feeds with token-grant messages as it
// advances. The Theorem 2 invariant — count = Iter(i) − Iter(j) +
// max_ig — is preserved exactly; grants in flight only delay j, never
// violate the bound.
//
// The send-side iteration check of §6.2(b) uses the last iteration
// observed on any message from the receiver; it is a heuristic there
// and remains one here.
package live

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"hop/internal/compress"
	"hop/internal/core"
	"hop/internal/graph"
	"hop/internal/model"
	"hop/internal/tensor"
	"hop/internal/transport"
)

// Logger is the printf-style sink live workers report through
// (*log.Logger satisfies it). WorkerConfig.Logger defaults to the
// standard library's default logger; tests inject NopLogger to run
// quiet.
type Logger interface {
	Printf(format string, v ...any)
}

type nopLogger struct{}

func (nopLogger) Printf(string, ...any) {}

// NopLogger returns a Logger that discards everything.
func NopLogger() Logger { return nopLogger{} }

// WorkerConfig configures one live worker.
type WorkerConfig struct {
	ID    int
	Graph *graph.Graph

	// ListenAddr is this worker's bind address (":0" for ephemeral).
	ListenAddr string

	Trainer model.Trainer

	// Protocol knobs, matching core.Config semantics.
	Mode           core.Mode
	Serial         bool
	MaxIG          int
	Backup         int
	Staleness      int // -1 disables
	StaleWeighting core.StaleWeighting
	SendCheck      bool
	Skip           *core.SkipConfig
	Prague         *core.PragueConfig

	// Compression selects the wire codec for outgoing update payloads
	// (negotiated per connection at Dial; see internal/transport). The
	// zero value is lossless.
	Compression compress.Spec

	// WireChunkBytes caps the per-frame payload size so control
	// frames interleave with large updates; 0 means
	// transport.DefaultMaxChunk.
	WireChunkBytes int

	// NoPipelineSends disables the transport's pipelined update path
	// and encodes/writes every update synchronously on the protocol
	// goroutine. By default updates are staged with a per-peer sender
	// goroutine so the next iteration's gradient compute overlaps the
	// encode and the socket wait; the one-in-flight barrier keeps the
	// delta stream's stage/commit discipline — and therefore the
	// payload bytes and retransmit-on-failure semantics — identical to
	// the synchronous path (transport.Config.PipelineUpdates).
	NoPipelineSends bool

	MaxIter int
	Seed    int64

	// FaultTolerance makes peer death survivable (core.Config
	// semantics): a peer whose connection drops, or whose sends fail,
	// is declared dead and the protocol reforms its iteration graph
	// around it instead of aborting the run.
	FaultTolerance bool

	// HeartbeatInterval and ReadDeadline tune the liveness layer
	// (transport.Config semantics). Zero means the defaults below when
	// FaultTolerance is set and disabled otherwise; negative disables
	// explicitly.
	HeartbeatInterval time.Duration
	ReadDeadline      time.Duration

	// SuspectBudget bounds how long a suspected peer is probed with
	// redials before DeclarePeerDead. Zero means DefaultSuspectBudget.
	// While suspected, the peer is neither dead nor trusted: a
	// heartbeat, any protocol frame, or a successful redial heals it
	// with no membership event.
	SuspectBudget time.Duration

	// OnSuspect and OnHeal, when non-nil, observe failure-detector
	// transitions (diagnostics and tests; membership changes still
	// surface only through the protocol trace). Called from transport
	// goroutines; must be safe for concurrent use.
	OnSuspect func(peer int)
	OnHeal    func(peer int)

	// Chaos, when non-nil, injects seeded network faults into this
	// worker's outgoing frames (transport.ChaosConfig). Used by the
	// scenario layer and hopnode -chaos-seed.
	Chaos *transport.ChaosConfig

	// CrashIter, when > 0, schedules this worker to halt at the start
	// of that iteration (Run returns core.ErrCrashed). RestartAfter,
	// when also > 0, tells the cluster orchestrator (RunCluster) to
	// restart the worker that long after the crash.
	CrashIter    int
	RestartAfter time.Duration

	// Rejoin marks this worker a restarted participant: it announces
	// itself to its neighbors and fast-forwards to one past their
	// newest observed iteration before training (core.Config.Rejoin).
	Rejoin bool

	// ComputeDelay, when non-nil, injects artificial per-iteration
	// compute time (for demonstrating heterogeneity on real clusters).
	ComputeDelay func(iter int) time.Duration

	// OnIteration, when non-nil, runs after each completed iteration.
	OnIteration func(iter int, loss float64)

	// OnJump, when non-nil, runs when this worker skips from iteration
	// from to iteration to (§5).
	OnJump func(from, to int)

	// Logger receives the worker's diagnostics (dropped in-neighbor
	// connections, ...). nil means the standard library logger.
	Logger Logger

	// Trace, when non-nil, records this worker's protocol decisions
	// (core.Trace) — the live half of the sim↔live differential tests.
	Trace *core.Trace
}

// Liveness defaults, applied when FaultTolerance is on and the knobs
// are zero. A healthy connection is never silent longer than about one
// heartbeat interval, so the read deadline — several intervals — only
// expires when frames are actually not arriving; the suspect budget
// then buys a transient stall time to clear before membership reforms.
// DefaultSuspectBudget must stay below any orchestrated restart delay
// (e.g. live_smoke.sh's rejoin-after) so a genuinely dead peer is
// declared before its replacement tries to join.
const (
	DefaultHeartbeatInterval = 250 * time.Millisecond
	DefaultReadDeadline      = 1500 * time.Millisecond
	DefaultSuspectBudget     = time.Second
	// DefaultWriteTimeout bounds frame writes so an alive-but-wedged
	// peer (open socket, nothing draining it) surfaces as a prompt send
	// error instead of blocking the protocol loop forever.
	DefaultWriteTimeout = 2 * time.Second
)

// NewWorkerConfig seeds a live WorkerConfig for worker id from the
// shared protocol configuration — the one place core.Config knobs
// (modes, token queues, backup, staleness, skipping, wire compression)
// cross into the live runtime. The trainer is taken from c.Trainers
// when present; the caller fills the live-only fields (ListenAddr,
// ComputeDelay, OnIteration, ...) before NewWorker.
func NewWorkerConfig(c core.Config, id int) WorkerConfig {
	cfg := WorkerConfig{
		ID:             id,
		Graph:          c.Graph,
		Mode:           c.Mode,
		Serial:         c.Serial,
		MaxIG:          c.MaxIG,
		Backup:         c.Backup,
		Staleness:      c.Staleness,
		StaleWeighting: c.StaleWeighting,
		SendCheck:      c.SendCheck,
		Skip:           c.Skip,
		Prague:         c.Prague,
		Compression:    c.Compression,
		MaxIter:        c.MaxIter,
		Seed:           c.Seed,
		FaultTolerance: c.FaultTolerance,
		Rejoin:         c.Rejoin,
	}
	if id >= 0 && id < len(c.Faults) {
		cfg.CrashIter = c.Faults[id].CrashIter
		cfg.RestartAfter = c.Faults[id].RestartAfter
	}
	if id >= 0 && id < len(c.Trainers) {
		cfg.Trainer = c.Trainers[id]
	}
	return cfg
}

// coreConfig expands the live worker configuration back into the
// shared protocol configuration the state machine is built from.
func (cfg WorkerConfig) coreConfig() core.Config {
	c := core.Config{
		Graph:          cfg.Graph,
		Mode:           cfg.Mode,
		Serial:         cfg.Serial,
		MaxIG:          cfg.MaxIG,
		Backup:         cfg.Backup,
		Staleness:      cfg.Staleness,
		StaleWeighting: cfg.StaleWeighting,
		SendCheck:      cfg.SendCheck,
		Compression:    cfg.Compression,
		Skip:           cfg.Skip,
		Prague:         cfg.Prague,
		MaxIter:        cfg.MaxIter,
		Seed:           cfg.Seed,
		FaultTolerance: cfg.FaultTolerance,
		Rejoin:         cfg.Rejoin,
	}
	// One process holds one worker's view: only its own fault schedule
	// crosses back into the shared configuration.
	if cfg.CrashIter > 0 && cfg.Graph != nil {
		faults := make([]core.FaultSchedule, cfg.Graph.N())
		faults[cfg.ID] = core.FaultSchedule{CrashIter: cfg.CrashIter, RestartAfter: cfg.RestartAfter}
		c.Faults = faults
	}
	return c
}

// Worker is one live protocol participant: transport shell + shared
// protocol state machine.
type Worker struct {
	cfg    WorkerConfig
	node   *transport.Node
	mon    core.Monitor
	proto  *core.Protocol
	start  time.Time
	logger Logger

	// mu guards peerIter (the §6.2(b) observation), lastLoss, addrs
	// (stored at Connect for rejoin redials), the failure-detector
	// state (suspected, closed) and failErr.
	mu        sync.Mutex
	peerIter  map[int]int
	lastLoss  float64
	addrs     map[int]string
	suspected map[int]bool
	closed    bool
	failErr   error
}

// fail records a fatal transport failure and unwinds the protocol
// loop. Unlike a panic it works from any goroutine — send errors
// surface from the protocol loop, the heartbeat loop, and transport
// readers alike — and the first error wins.
func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.failErr == nil {
		w.failErr = err
	}
	w.mu.Unlock()
	w.proto.Abort()
}

// NewWorker validates the configuration, binds the listener and
// prepares the protocol state. Call Addr to learn the bound address,
// Connect to dial the neighbors, then Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("live: no graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Graph.N() {
		return nil, fmt.Errorf("live: worker id %d out of range", cfg.ID)
	}
	if cfg.Trainer == nil {
		return nil, fmt.Errorf("live: no trainer")
	}
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("live: MaxIter must be positive")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	w := &Worker{
		cfg:       cfg,
		mon:       core.NewSyncMonitor(),
		peerIter:  make(map[int]int),
		suspected: make(map[int]bool),
		start:     time.Now(),
		logger:    logger,
	}
	coreCfg := cfg.coreConfig()
	if cfg.FaultTolerance {
		// A rejoined peer needs a fresh outbound connection before the
		// protocol's next send to it; the membership callback runs
		// under the monitor, so the redial happens off to the side.
		coreCfg.OnMembership = func(_ int, ev core.TraceEvent) {
			if ev.Kind == core.TraceJoin {
				go w.redialPeer(ev.From)
			}
		}
	}
	coreCfg.OnIteration = func(_, iter int, loss float64, _ time.Duration) {
		w.mu.Lock()
		w.lastLoss = loss
		w.mu.Unlock()
		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, loss)
		}
	}
	if cfg.OnJump != nil {
		coreCfg.OnJump = func(_, from, to int, _ time.Duration) { cfg.OnJump(from, to) }
	}
	proto, err := core.NewProtocol(coreCfg, cfg.ID, cfg.Trainer, w.mon, &liveRuntime{w: w}, cfg.Trace)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	w.proto = proto
	for _, j := range cfg.protocolPeers() {
		w.peerIter[j] = -1
	}
	// Liveness defaults kick in with fault tolerance; explicit values
	// always win, negative disables.
	hb, rd, wt := cfg.HeartbeatInterval, cfg.ReadDeadline, time.Duration(0)
	if cfg.FaultTolerance {
		if hb == 0 {
			hb = DefaultHeartbeatInterval
		}
		if rd == 0 {
			rd = DefaultReadDeadline
		}
		wt = DefaultWriteTimeout
	}
	if hb < 0 {
		hb = 0
	}
	if rd < 0 {
		rd = 0
	}
	node, err := transport.ListenConfig(cfg.ID, cfg.ListenAddr, w.handle, transport.Config{
		Compressor: cfg.Compression.New(),
		MaxChunk:   cfg.WireChunkBytes,
		// A dropped in-neighbor otherwise manifests only as a silent
		// hang in the Recv; log the diagnosis (also counted in
		// WireStats().ReadErrors).
		OnReadError: func(err error) {
			logger.Printf("hop/live: worker %d: %v", cfg.ID, err)
		},
		// A handshake-pinned inbound connection ending is the live
		// plane's death evidence: the per-connection frame stream is
		// sequential, so everything the peer sent before dying has
		// already been delivered. A goodbye (err == nil) is the peer
		// *announcing* its exit — declared dead immediately; an abrupt
		// end (EOF, reset) could be a transient network event, so it
		// only raises suspicion and lets the probe budget decide.
		OnPeerDown: func(peer int, err error) {
			if !cfg.FaultTolerance {
				if err != nil {
					w.fail(fmt.Errorf("live: worker %d: peer %d connection lost: %w", cfg.ID, peer, err))
				}
				return
			}
			if err == nil {
				w.proto.DeclarePeerDead(peer)
				return
			}
			logger.Printf("hop/live: worker %d: peer %d down: %v", cfg.ID, peer, err)
			w.suspect(peer, "connection lost")
		},
		HeartbeatInterval: hb,
		ReadDeadline:      rd,
		WriteTimeout:      wt,
		// A full read-deadline window of silence from a peer: the
		// failure detector's trigger.
		OnPeerSilent: func(peer int) { w.suspect(peer, "silent past read deadline") },
		// Send errors with no caller to return to (the heartbeat
		// loop's) route through the same policy as protocol sends.
		OnSendError:     func(peer int, err error) { w.noteSendError(peer, err) },
		PipelineUpdates: !cfg.NoPipelineSends,
		Chaos:           cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	w.node = node
	return w, nil
}

// liveRuntime adapts sockets and wall-clock time to core.Runtime. The
// protocol loop calls these from the worker's Run goroutine; inbound
// deliveries arrive through Worker.handle on transport reader
// goroutines, synchronized by the worker's monitor inside the protocol
// queues.
type liveRuntime struct{ w *Worker }

func (r *liveRuntime) Now() time.Duration { return time.Since(r.w.start) }

// Compute runs the gradient step for real; its cost is its real
// duration plus any injected heterogeneity delay.
func (r *liveRuntime) Compute(iter int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	if d := r.w.cfg.ComputeDelay; d != nil {
		if dd := d(iter); dd > 0 {
			time.Sleep(dd)
		}
	}
	return time.Since(t0)
}

// SleepUntil realizes the parallel computation graph's "iteration ends
// no earlier than the compute" rule. Live compute already took its
// real time before Recv, so this is effectively a no-op; it is kept
// faithful for completeness.
func (r *liveRuntime) SleepUntil(t time.Duration) {
	if d := t - time.Since(r.w.start); d > 0 {
		time.Sleep(d)
	}
}

func (r *liveRuntime) Send(dst int, u core.Update) {
	err := r.w.node.Send(dst, transport.Message{Kind: transport.KindUpdate, Iter: u.Iter, Params: u.Params})
	if err != nil {
		r.w.noteSendError(dst, err)
	}
}

func (r *liveRuntime) SendAck(dst, iter int) {
	if err := r.w.node.Send(dst, transport.Message{Kind: transport.KindAck, Iter: iter}); err != nil {
		r.w.noteSendError(dst, err)
	}
}

func (r *liveRuntime) GrantTokens(dst, iter, count int) {
	err := r.w.node.Send(dst, transport.Message{Kind: transport.KindToken, Iter: iter, Count: count})
	if err != nil {
		r.w.noteSendError(dst, err)
	}
}

// noteSendError handles a transport send failure: fault-tolerant
// workers suspect the peer and drop the frame (the probe either heals
// the connection or declares the peer dead and the protocol reforms);
// otherwise the failure promptly aborts the run with the transport
// error — from whichever goroutine noticed it.
func (w *Worker) noteSendError(dst int, err error) {
	if !w.cfg.FaultTolerance {
		w.fail(fmt.Errorf("live: worker %d: %w", w.cfg.ID, err))
		return
	}
	w.logger.Printf("hop/live: worker %d: send to %d failed: %v", w.cfg.ID, dst, err)
	w.suspect(dst, "send failed")
}

// suspectBudget returns the configured probe budget.
func (cfg WorkerConfig) suspectBudget() time.Duration {
	if cfg.SuspectBudget > 0 {
		return cfg.SuspectBudget
	}
	return DefaultSuspectBudget
}

// suspect marks peer as possibly gone and starts (at most one) probe
// goroutine for it. Suspicion is a detector state, not a membership
// state: nothing in the protocol changes until the probe gives up.
func (w *Worker) suspect(peer int, cause string) {
	if !w.cfg.FaultTolerance {
		return
	}
	for _, d := range w.proto.DeadPeers() {
		if d == peer {
			return // already declared; nothing left to detect
		}
	}
	w.mu.Lock()
	if w.closed || w.suspected[peer] {
		w.mu.Unlock()
		return
	}
	w.suspected[peer] = true
	w.mu.Unlock()
	w.logger.Printf("hop/live: worker %d: peer %d suspected (%s)", w.cfg.ID, peer, cause)
	if cb := w.cfg.OnSuspect; cb != nil {
		cb(peer)
	}
	go w.probe(peer)
}

// notePeerAlive clears any suspicion on peer — fresh evidence (a
// heartbeat, any protocol frame, a successful redial) means the stall
// healed.
func (w *Worker) notePeerAlive(peer int) {
	w.mu.Lock()
	was := w.suspected[peer]
	if was {
		delete(w.suspected, peer)
	}
	w.mu.Unlock()
	if !was {
		return
	}
	w.logger.Printf("hop/live: worker %d: peer %d healed", w.cfg.ID, peer)
	if cb := w.cfg.OnHeal; cb != nil {
		cb(peer)
	}
}

// probe retries the suspected peer with backoff until the suspicion
// clears (frames resumed, or a redial handshake succeeded), the
// worker closes, or the budget runs out — only then is the peer
// declared dead through the PR 6 membership path, reforming the
// iteration graph deterministically.
func (w *Worker) probe(peer int) {
	w.mu.Lock()
	addr, hasAddr := w.addrs[peer]
	w.mu.Unlock()
	deadline := time.Now().Add(w.cfg.suspectBudget())
	bo := transport.NewBackoff(transport.BackoffConfig{
		Initial: 20 * time.Millisecond, Max: 200 * time.Millisecond,
	})
	for {
		w.mu.Lock()
		closed, still := w.closed, w.suspected[peer]
		w.mu.Unlock()
		if closed || !still {
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if hasAddr {
			dialT := remaining
			if dialT > 300*time.Millisecond {
				dialT = 300 * time.Millisecond
			}
			if err := w.node.Redial(peer, addr, dialT); err == nil {
				w.notePeerAlive(peer)
				return
			}
		}
		d := bo.Next()
		if rem := time.Until(deadline); d > rem {
			d = rem
		}
		if d > 0 {
			time.Sleep(d)
		}
	}
	w.mu.Lock()
	still := w.suspected[peer] && !w.closed
	delete(w.suspected, peer)
	w.mu.Unlock()
	if still {
		w.logger.Printf("hop/live: worker %d: peer %d unreachable past budget (declaring dead)", w.cfg.ID, peer)
		w.proto.DeclarePeerDead(peer)
	}
}

// PeerIter is the §6.2(b) observation: the newest iteration seen on
// any message from the peer (a heuristic, unlike the simulator's exact
// global view).
func (r *liveRuntime) PeerIter(peer int) int {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.peerIter[peer]
}

// ObserveAdvance is a no-op live: there is no global gap tracker on a
// real cluster. Peers learn this worker's iteration from its messages.
func (r *liveRuntime) ObserveAdvance(int) {}

// The live runtime satisfies core.ParamsAllocator: every inbound
// update decodes into its own buffer (transport readConn draws from
// tensor.GetVec), and outbound Send releases the caller's slice before
// returning (the synchronous sender fully serializes it; the pipelined
// sender snapshots it into the peer's staging buffer). The protocol
// may therefore recycle reduced update buffers, making the live
// iteration hot path allocation-free.
func (r *liveRuntime) GetParams(n int) []float64 { return tensor.GetVec(n) }

func (r *liveRuntime) RecycleParams(v []float64) { tensor.PutVec(v) }

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.node.Addr() }

// protocolPeers returns the workers this one exchanges protocol
// messages with: the graph neighbors (out ∪ in) under Hop, every
// other worker under Prague — group schedules span the whole cluster
// regardless of topology (core/prague.go).
func (cfg WorkerConfig) protocolPeers() []int {
	n := cfg.Graph.N()
	if cfg.Mode == core.ModePrague {
		out := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != cfg.ID {
				out = append(out, j)
			}
		}
		return out
	}
	seen := make(map[int]bool)
	var out []int
	for _, j := range append(append([]int(nil), cfg.Graph.Out(cfg.ID)...), cfg.Graph.In(cfg.ID)...) {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// Connect dials every peer this worker sends to: its out-going
// neighbors (updates, acks) and its in-coming neighbors (token
// grants) — or, under Prague, the whole cluster. addrs maps worker
// id → address.
func (w *Worker) Connect(addrs map[int]string, timeout time.Duration) error {
	need := map[int]bool{}
	for _, j := range w.cfg.protocolPeers() {
		need[j] = true
	}
	w.mu.Lock()
	w.addrs = make(map[int]string, len(addrs))
	for j, a := range addrs {
		w.addrs[j] = a
	}
	w.mu.Unlock()
	for j := range need {
		addr, ok := addrs[j]
		if !ok {
			if w.cfg.FaultTolerance {
				// A neighbor with no address is a neighbor already gone
				// (e.g. crashed before this worker restarted).
				w.proto.DeclarePeerDead(j)
				continue
			}
			return fmt.Errorf("live: no address for neighbor %d", j)
		}
		if err := w.node.Dial(j, addr, timeout); err != nil {
			if w.cfg.FaultTolerance {
				w.logger.Printf("hop/live: worker %d: dial neighbor %d: %v (declaring dead)", w.cfg.ID, j, err)
				w.proto.DeclarePeerDead(j)
				continue
			}
			return err
		}
	}
	return nil
}

// redialPeer re-establishes the outbound connection to a peer that
// rejoined after a restart (it listens on its original address).
func (w *Worker) redialPeer(peer int) {
	w.mu.Lock()
	addr, ok := w.addrs[peer]
	w.mu.Unlock()
	if !ok {
		return
	}
	if err := w.node.Redial(peer, addr, DefaultDialTimeout); err != nil {
		w.logger.Printf("hop/live: worker %d: redial peer %d: %v", w.cfg.ID, peer, err)
	}
}

// Close shuts down the transport (and stops any in-flight probes from
// declaring peers dead afterwards).
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.node.Close()
}

// handle is the transport inbound path: any frame from a peer is
// liveness evidence that clears suspicion; protocol frames then
// deliver into the shared state. Heartbeats stop at the liveness layer
// — their zero Iter must not feed the §6.2(b) observation.
func (w *Worker) handle(m transport.Message) {
	w.notePeerAlive(m.From)
	if m.Kind == transport.KindHeartbeat {
		return
	}
	w.observeIter(m.From, m.Iter)
	switch m.Kind {
	case transport.KindUpdate:
		w.proto.Deliver(core.Update{Params: m.Params, Iter: m.Iter, From: m.From, Codec: m.Codec})
	case transport.KindToken:
		w.proto.DeliverTokens(m.From, m.Count)
	case transport.KindAck:
		w.proto.DeliverAck(m.From, m.Iter)
	}
}

func (w *Worker) observeIter(peer, iter int) {
	w.mu.Lock()
	if cur, ok := w.peerIter[peer]; ok && iter > cur {
		w.peerIter[peer] = iter
	}
	w.mu.Unlock()
}

// Params returns the trainer's parameter vector.
func (w *Worker) Params() []float64 { return w.cfg.Trainer.Params() }

// Trainer returns this worker's model replica.
func (w *Worker) Trainer() model.Trainer { return w.cfg.Trainer }

// Trace returns the decision trace configured for this worker, or nil.
func (w *Worker) Trace() *core.Trace { return w.cfg.Trace }

// Run executes the training loop for MaxIter iterations under the
// configured protocol mode. It returns the final training loss. A
// fatal transport failure recorded by fail() surfaces here as its
// original error instead of the bare core.ErrAborted the abort
// produced.
func (w *Worker) Run() (float64, error) {
	err := w.proto.Run()
	if errors.Is(err, core.ErrAborted) {
		w.mu.Lock()
		ferr := w.failErr
		w.mu.Unlock()
		if ferr != nil {
			return w.LastLoss(), ferr
		}
	}
	return w.LastLoss(), err
}

// Abort unblocks and unwinds a running Run (which then returns
// core.ErrAborted). Live cluster teardown uses it so a failed worker
// does not leave its neighbors blocked in Recv forever.
func (w *Worker) Abort() { w.proto.Abort() }

// WaitPeersDone blocks after Run until every neighbor has been
// observed at its own final protocol message, or until timeout; it
// returns whether all neighbors were seen finishing. A worker that
// closes its listener the moment its own loop ends tears down sockets
// its slower neighbors are still sending protocol frames to (their
// final updates, token grants or ACKs) — killing *their* runs with
// broken pipes. One process per worker should therefore Run, then
// WaitPeersDone, then Close; the in-process orchestrator (RunCluster)
// joins all loops before closing and does not need it.
//
// "Finished" is read off the peer-iteration observations: an
// in-neighbor's last update is tagged MaxIter−1 (or as low as
// MaxIter−MaxJump when §5 skipping lets it jump over the tail), an
// out-neighbor's last token grant is tagged exactly MaxIter, and a
// NOTIFY-ACK out-neighbor's last ACK is tagged MaxIter−1. Out-neighbors
// that never send this worker anything (no token queues, standard
// mode, not also in-neighbors) are not waited on. On directed
// topologies the §6.2(b) send check can suppress an in-only neighbor's
// final update; the timeout is the backstop there.
func (w *Worker) WaitPeersDone(timeout time.Duration) bool {
	need := map[int]int{}
	if w.cfg.Mode == core.ModePrague {
		// A Prague peer's final message to this worker is the update of
		// the pair's last shared-group step — locally computable from
		// the deterministic schedule. Peers never scheduled together
		// exchange nothing.
		pc := w.cfg.Prague
		for j, last := range core.PragueLastSharedAll(pc.Seed, w.cfg.Graph.N(), pc.GroupSize, w.cfg.MaxIter, w.cfg.ID) {
			if last >= 0 {
				need[j] = last
			}
		}
	} else {
		for _, j := range w.cfg.Graph.In(w.cfg.ID) {
			need[j] = w.cfg.MaxIter - 1
			if sc := w.cfg.Skip; sc != nil && sc.MaxJump > 1 {
				need[j] = w.cfg.MaxIter - sc.MaxJump
			}
		}
		for _, j := range w.cfg.Graph.Out(w.cfg.ID) {
			switch {
			case w.cfg.MaxIG > 0:
				need[j] = w.cfg.MaxIter
			case w.cfg.Mode == core.ModeNotifyAck:
				if need[j] < w.cfg.MaxIter-1 {
					need[j] = w.cfg.MaxIter - 1
				}
			}
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		dead := map[int]bool{}
		for _, j := range w.proto.DeadPeers() {
			dead[j] = true
		}
		done := true
		w.mu.Lock()
		for j, min := range need {
			if dead[j] {
				continue // a dead peer sends nothing further
			}
			if w.peerIter[j] < min {
				done = false
				break
			}
		}
		w.mu.Unlock()
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// LastLoss returns the most recent completed iteration's training
// loss.
func (w *Worker) LastLoss() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLoss
}

// Stats snapshots this worker's protocol counters (jumps, skipped
// iterations, suppressed sends) — the same counters the simulated
// engine aggregates.
func (w *Worker) Stats() core.Stats { return w.proto.Stats() }

// QueueSize reports the update-queue occupancy (diagnostics).
func (w *Worker) QueueSize() int { return w.proto.Queue().Size() }

// TokenIn returns the local counter for TokenQ(j→me) (diagnostics and
// the Theorem 2 conservation tests), or nil.
func (w *Worker) TokenIn(j int) *core.TokenQueue { return w.proto.TokenIn(j) }

// MaxObservedStaleness reports the largest k − iter over all updates a
// bounded-staleness Reduce actually aggregated: Fig. 9 guarantees it
// never exceeds the configured bound, however updates arrive
// (compressed, chunked, out of order relative to tokens). It is 0 when
// bounded staleness is disabled.
func (w *Worker) MaxObservedStaleness() int { return w.proto.MaxObservedStaleness() }

// WireStats snapshots the transport's byte/frame counters (see
// transport.Stats); feed them to metrics.Recorder.RecordWire to fold
// into a run's metrics.
func (w *Worker) WireStats() transport.Stats { return w.node.Stats() }
