// Package engine implements the TART execution engine: the container that
// hosts a placement's components, routes messages between them (in memory
// locally, over a transport remotely), ingests external input through
// logged sources, delivers external output through sinks, takes periodic
// soft checkpoints shipped to a passive backup, and performs the recovery
// protocol — replay-range requests, duplicate discard, and buffer trimming
// by stability acknowledgements (paper §II.C, §II.F).
package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/silence"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/trace/span"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// Backup receives soft checkpoints. A checkpoint.ReplicaStore implements it
// directly for in-process passive replicas; a remote backup would forward
// the encoded checkpoint over its own channel.
type Backup interface {
	Apply(c *checkpoint.Checkpoint) error
}

// ComponentSpec supplies the application half of one hosted component.
type ComponentSpec struct {
	// Handler is the component's message-processing logic.
	Handler sched.Handler
	// State is the object whose fields hold the component's persistent
	// state (often the Handler itself). It is captured via the checkpoint
	// package: transparently through gob unless it implements Snapshotter.
	State any
	// Est is the component's virtual-time estimator. Required.
	Est estimator.Estimator
	// Silence configures the component's silence propagation.
	Silence silence.Config
	// Extract supplies message features when Est is a *estimator.Calibrated
	// (enables determinism-fault recalibration).
	Extract estimator.FeatureFunc
	// ProbeRetry overrides the scheduler's probe retry interval.
	ProbeRetry time.Duration
}

// Config assembles an engine.
type Config struct {
	// Name is the engine's name in the topology placement.
	Name string
	// Topo is the application topology.
	Topo *topo.Topology
	// Components maps component name to spec, for every component the
	// placement assigns to this engine.
	Components map[string]ComponentSpec
	// Transport connects engines; required when the topology places
	// components on more than one engine.
	Transport transport.Transport
	// Addrs maps engine name to transport address, for this engine and all
	// peers it exchanges wires with.
	Addrs map[string]string
	// Log is the stable store for external inputs and determinism faults.
	// Defaults to an in-memory log.
	Log wal.Log
	// Backup receives soft checkpoints; nil disables checkpointing.
	Backup Backup
	// CheckpointEvery is the soft-checkpoint cadence (the paper's tunable
	// checkpoint frequency). Zero disables the periodic loop; Checkpoint
	// can still be called manually.
	CheckpointEvery time.Duration
	// SourceSilenceEvery is how often real-time sources advance their
	// silence watermark unprompted. Zero disables (manual-clock tests).
	SourceSilenceEvery time.Duration
	// GapRepairEvery is how often the engine scans for sequence gaps and
	// issues replay requests. Default 50ms.
	GapRepairEvery time.Duration
	// HeartbeatEvery is the keepalive cadence on peer connections.
	// Default 250ms.
	HeartbeatEvery time.Duration
	// RedialEvery is the reconnection retry cadence. Default 100ms.
	RedialEvery time.Duration
	// SilenceFlushEvery is the coalescing window for silence promises bound
	// for peer engines: within a window only the newest watermark per wire
	// is transmitted (lossless — promises are monotone, so the newest
	// subsumes the ones it replaced). Zero means 100µs; negative disables
	// coalescing (every promise is sent immediately).
	SilenceFlushEvery time.Duration
	// Metrics receives runtime counters; optional. New attaches a labeled
	// registry (const label engine=<Name>) if the Metrics has none, so
	// per-wire series are always available.
	Metrics *trace.Metrics
	// Recorder is the flight recorder events are emitted into; optional.
	// Pass the same recorder to successive generations of an engine (the
	// cluster does) so a post-failover dump contains the pre-crash story.
	Recorder *trace.Recorder
	// Audit is the determinism audit log delivery chains are recorded in
	// and verified against; optional (nil disables auditing). Like the
	// Recorder, pass the same log to successive generations so a recovered
	// engine's replay is checked against the pre-crash record.
	Audit *trace.AuditLog
	// Spans is the span collector sampled deliveries emit into; optional
	// (nil disables span tracing). Like the Recorder, pass the same
	// collector to successive generations so a post-failover timeline
	// shows the pre-crash journey next to the replayed re-deliveries.
	Spans *span.Collector
	// DebugAddr, when non-empty, binds a debug HTTP listener serving
	// /metrics, /healthz, /trace, /spans, and /topology. Off by default.
	// Use "127.0.0.1:0" for an ephemeral port (see Engine.DebugAddr).
	DebugAddr string
	// DebugPprof mounts net/http/pprof under /debug/pprof/ on the debug
	// listener. Off by default: profiling endpoints can stall the process
	// (full-stack dumps stop the world) and should be opted into.
	DebugPprof bool
	// FlightDump, when non-empty, is a file path the flight recorder is
	// dumped to (JSONL) after a post-failover replay and on shutdown.
	FlightDump string
	// Clock supplies virtual time for real-time sources. Defaults to
	// nanoseconds since engine start (plus ClockFloor's floor, when set).
	Clock func() vt.Time
	// ClockFloor carries the default source clock across incarnations;
	// ignored when Clock is set. The clock starts at the stored floor
	// instead of 0, and no clock-driven source silence promise passes the
	// floor the store holds. A background ticker keeps the floor up to a
	// lease ahead of the clock (see clockFloorLease), so a restarted
	// engine stamps every new input above all silence its predecessor
	// promised. Optional; the cluster backs it with the durable checkpoint
	// store, or with memory that outlives the engine's in-process
	// incarnations.
	ClockFloor ClockFloorStore
	// Generation is this engine incarnation's fencing token, carried in
	// peer handshakes. A cluster increments it on every Recover so peers
	// reject handshakes from zombie engines of earlier generations (a
	// crashed-but-not-quite-dead engine, or one failed over while merely
	// partitioned, cannot re-join and double-drive its wires). Zero is a
	// valid first generation.
	Generation uint64
	// PeerGens seeds the highest generation seen per peer, so an engine
	// that is itself recovering still fences peers it had already
	// witnessed at a newer generation. Optional.
	PeerGens map[string]uint64
	// SupervisorInfo, when set, is served as JSON at the debug listener's
	// /supervisor endpoint — the cluster installs its failover
	// supervisor's status here. Optional.
	SupervisorInfo func() any
	// SLOInfo, when set, is served as JSON at the debug listener's /slo
	// endpoint — the cluster installs the live SLO tracker's report here.
	// Optional.
	SLOInfo func() any
	// ExtraMetrics, when set, is appended to the /metrics exposition after
	// the engine's own registry — the cluster uses it to surface
	// supervisor-owned series (failovers, time-to-recover) on every
	// engine's scrape endpoint. Optional.
	ExtraMetrics func(w io.Writer)
	// AdaptInfo, when set, is served as JSON at the debug listener's /adapt
	// endpoint — the cluster installs the adaptive runtime controller's
	// status (coefficients, per-wire strategies, recent decisions) here.
	// Optional.
	AdaptInfo func() any
	// RewindInfo, when set, serves /rewind queries on the debug listener —
	// the cluster installs its time-travel inspector here. The handler
	// receives the raw query values and returns a JSON-encodable result or
	// an error (surfaced as HTTP 400). Optional.
	RewindInfo func(q map[string][]string) (any, error)
	// ForceFullCheckpoints makes every checkpoint carry full handler state
	// for every component, never deltas. Time travel requires it: an
	// archived checkpoint must be restorable on its own, without the delta
	// chain the passive replica accumulated before it.
	ForceFullCheckpoints bool
	// DisableCalibration keeps calibrated estimators from proposing *new*
	// recalibration faults; faults already in the stable log are still
	// re-applied on restore. Replay sandboxes set this: a fresh proposal
	// would shift virtual-time stamps away from the run being inspected.
	DisableCalibration bool
	// OnDelivered, when set, is invoked synchronously after every message a
	// hosted component handles, outside the scheduler lock and before that
	// component's next delivery starts. The time-travel inspector uses it
	// to observe replayed state transitions. See sched.Config.OnDelivered.
	OnDelivered func(d sched.Delivery)
	// ColdStart marks this incarnation as a cold restart: the engine was
	// rebuilt in a fresh OS process from a durable checkpoint plus WAL
	// suffix (not activated from a warm in-process replica). It only
	// affects observability — the coldstart-replayed counter tracks how
	// many logged inputs the restart re-injected.
	ColdStart bool
	// ShedBufferedLimit bounds the engine's total buffered replay
	// envelopes. While a peer is down its unacked envelopes cannot be
	// trimmed; past the limit, sources refuse new external inputs with
	// ErrShed instead of growing the buffers without bound (explicit shed,
	// not indefinite stall — determinism is unaffected because only
	// not-yet-ingested external inputs are refused). Zero means unbounded.
	ShedBufferedLimit int
}

// ClockFloorStore records the floor of an engine's source clock where the
// engine's next incarnation can read it.
type ClockFloorStore interface {
	ClockFloor() vt.Time
	SetClockFloor(vt.Time) error
}

// clockFloorLease is how far ahead of the source clock the engine raises
// the clock floor, every half lease from a ticker — never from the routing
// path, since a durable store fsyncs each raise. It trades two store
// writes per second against a restarted clock that resumes up to a lease
// ahead of its surviving peers. Neither cost is measured yet: the only
// benchmark workload with a durable store runs a manual clock.
const clockFloorLease = time.Second

// Engine hosts the components placed on one engine name.
type Engine struct {
	cfg  Config
	name string
	tp   *topo.Topology

	comps   map[string]*hosted
	byID    map[topo.ComponentID]*hosted
	sources map[string]*Source
	sinksMu sync.Mutex
	sinks   map[msg.WireID]func(env msg.Envelope)
	buffers *bufferSet
	peers   *peerSet
	log     wal.Log
	metrics *trace.Metrics
	rec     *trace.Recorder
	debug   *debugServer
	ckptSeq uint64
	ckptMu  sync.Mutex
	// lastCkptVT is the VT of the newest checkpoint (guarded by ckptMu).
	lastCkptVT vt.Time
	epoch      time.Time
	clock      func() vt.Time
	restored   bool

	// fullShipped is set once the backup holds a full round this
	// engine's deltas build on, and deltasSince counts checkpoints since
	// that round (both guarded by ckptMu).
	fullShipped bool
	deltasSince int

	// floor is the durable clock floor (nil without one), floorAt the
	// vt.Time it is known to hold; only Start and the renewal ticker
	// raise it.
	floor   ClockFloorStore
	floorAt atomic.Int64

	mu      sync.Mutex
	started bool
	stopped bool
	stop    chan struct{}
	done    sync.WaitGroup
}

type hosted struct {
	name string
	comp *topo.Component
	spec ComponentSpec
	sch  *sched.Scheduler
	cal  *estimator.Calibrated // non-nil when Est is calibrated

	// Checkpoint bookkeeping (guarded by Engine.ckptMu).
	restoredState sched.State
}

// New builds an engine. The engine is inert until Start.
func New(cfg Config) (*Engine, error) {
	if cfg.Name == "" || cfg.Topo == nil {
		return nil, errors.New("engine: Name and Topo are required")
	}
	if cfg.Log == nil {
		cfg.Log = wal.NewMemLog()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &trace.Metrics{}
	}
	if cfg.Metrics.Registry() == nil {
		cfg.Metrics.SetRegistry(trace.NewRegistry(trace.L("engine", cfg.Name)))
	}
	if cfg.Recorder != nil {
		cfg.Metrics.SetRecorder(cfg.Recorder)
	}
	if cfg.Audit != nil {
		cfg.Metrics.SetAudit(cfg.Audit)
	}
	if cfg.Spans != nil {
		cfg.Metrics.SetSpans(cfg.Spans)
		// Feed every recorded span into the critical-path histogram family
		// so the aggregate phase shares are scrapeable without a dump.
		reg := cfg.Metrics.Registry()
		hists := make(map[string]*trace.Histogram, len(span.Phases()))
		for _, p := range span.Phases() {
			hists[p.String()] = reg.Histogram(trace.MetricCriticalPath,
				"Span-attributed share of traced end-to-end latency by phase.",
				trace.SecondsBuckets, trace.L("phase", p.String()))
		}
		cfg.Spans.SetObserver(func(phase string, seconds float64) {
			if h, ok := hists[phase]; ok {
				h.Observe(seconds)
			}
		})
	}
	if cfg.GapRepairEvery <= 0 {
		cfg.GapRepairEvery = 50 * time.Millisecond
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.RedialEvery <= 0 {
		cfg.RedialEvery = 100 * time.Millisecond
	}
	if cfg.SilenceFlushEvery == 0 {
		cfg.SilenceFlushEvery = 100 * time.Microsecond
	}
	e := &Engine{
		cfg:     cfg,
		name:    cfg.Name,
		tp:      cfg.Topo,
		comps:   make(map[string]*hosted),
		byID:    make(map[topo.ComponentID]*hosted),
		sources: make(map[string]*Source),
		sinks:   make(map[msg.WireID]func(msg.Envelope)),
		log:     cfg.Log,
		metrics: cfg.Metrics,
		rec:     cfg.Metrics.Recorder(),
		stop:    make(chan struct{}),
	}
	e.buffers = newBufferSet()
	e.peers = newPeerSet(e)
	// Seed the cold-restart robustness families at zero so they are
	// scrapeable from launch — including on single-engine clusters that
	// never dial, shed, or cold-start. Per-peer labeled series join the
	// same families once dial loops run.
	reg := cfg.Metrics.Registry()
	reg.Counter(trace.MetricRedials,
		"Dial attempts to a peer engine (first dials and redials).")
	reg.Gauge(trace.MetricDialBreaker,
		"Per-peer dial circuit breaker position (0 closed, 1 open, 2 half-open).")
	reg.Counter(trace.MetricColdstartReplayed,
		"Logged input records re-injected from the durable WAL suffix during a cold restart.")
	reg.Counter(trace.MetricCkptStoreWrites,
		"Checkpoints persisted by the durable checkpoint store.")
	reg.Counter(trace.MetricCkptStoreFsyncs,
		"fsync calls issued by the durable checkpoint store.")
	reg.Counter(trace.MetricSourceShed,
		"External inputs refused at sources because buffered replay state hit its bound.")
	switch {
	case cfg.Clock != nil:
		e.clock = cfg.Clock
	case cfg.ClockFloor != nil:
		base := cfg.ClockFloor.ClockFloor()
		e.floor = cfg.ClockFloor
		e.floorAt.Store(int64(base))
		e.clock = func() vt.Time { return base.Add(vt.Ticks(time.Since(e.epoch).Nanoseconds())) }
	default:
		e.clock = func() vt.Time { return vt.Time(time.Since(e.epoch).Nanoseconds()) }
	}

	placed := cfg.Topo.ComponentsOn(cfg.Name)
	if len(placed) == 0 {
		return nil, fmt.Errorf("engine: no components placed on %q", cfg.Name)
	}
	for _, id := range placed {
		comp := cfg.Topo.Component(id)
		spec, ok := cfg.Components[comp.Name]
		if !ok {
			return nil, fmt.Errorf("engine: no spec for component %q placed on %q", comp.Name, cfg.Name)
		}
		if err := e.host(comp, spec); err != nil {
			return nil, err
		}
	}
	// Pre-create sources whose receiving component lives here.
	for _, src := range cfg.Topo.Sources() {
		w := cfg.Topo.Wire(src.Wire)
		if h, ok := e.byID[w.To]; ok {
			e.sources[src.Name] = newSource(e, src.Name, w, h)
		}
	}
	return e, nil
}

func (e *Engine) host(comp *topo.Component, spec ComponentSpec) error {
	if spec.Handler == nil || spec.Est == nil {
		return fmt.Errorf("engine: component %q needs Handler and Est", comp.Name)
	}
	h := &hosted{name: comp.Name, comp: comp, spec: spec}
	cfg := sched.Config{
		Comp:       comp,
		Topo:       e.tp,
		Handler:    spec.Handler,
		Est:        spec.Est,
		Silence:    spec.Silence,
		Router:     e,
		Metrics:    e.metrics,
		Seed:       nameSeed(comp.Name),
		ProbeRetry: spec.ProbeRetry,
		OnDuplicateCall: func(req msg.Envelope) {
			e.resendBufferedReply(req)
		},
		OnDelivered: e.cfg.OnDelivered,
	}
	if cal, ok := spec.Est.(*estimator.Calibrated); ok {
		h.cal = cal // restore still installs checkpointed epochs + logged faults
		if !e.cfg.DisableCalibration {
			cfg.Calibration = calibrationFor(e, comp.Name, cal, spec)
		}
	}
	sc, err := sched.New(cfg)
	if err != nil {
		return err
	}
	h.sch = sc
	e.comps[comp.Name] = h
	e.byID[comp.ID] = h
	// Register replay buffers for every outgoing message wire.
	for _, w := range e.tp.Wires() {
		if w.From != comp.ID {
			continue
		}
		switch w.Kind {
		case topo.WireSend, topo.WireCallRequest, topo.WireCallReply:
			e.buffers.register(w.ID)
		}
	}
	return nil
}

func calibrationFor(e *Engine, name string, cal *estimator.Calibrated, spec ComponentSpec) *sched.Calibration {
	return &sched.Calibration{
		Extract: spec.Extract,
		Observe: cal.Observe,
		Commit: func(fault estimator.Fault) error {
			// Determinism faults must hit stable storage before they
			// take effect (paper §II.G.4).
			rec := wal.FaultRecord{Component: name, Fault: fault}
			if err := e.log.AppendFault(rec); err != nil {
				return err
			}
			return cal.Apply(fault)
		},
	}
}

// CommitEstimatorFault routes an externally proposed estimator
// recalibration (the adaptive runtime's) through the same log-then-apply
// discipline as scheduler-proposed faults: the record hits stable storage
// before the new coefficients take effect (§II.G.4). Errors if the
// component is not hosted here or lacks a calibrated estimator.
func (e *Engine) CommitEstimatorFault(component string, fault estimator.Fault) error {
	h, ok := e.comps[component]
	if !ok {
		return fmt.Errorf("engine: component %q not hosted on %q", component, e.name)
	}
	if h.cal == nil {
		return fmt.Errorf("engine: component %q has no calibrated estimator", component)
	}
	rec := wal.FaultRecord{Component: component, Fault: fault}
	if err := e.log.AppendFault(rec); err != nil {
		return err
	}
	return h.cal.Apply(fault)
}

// CommitSilenceFault logs a silence-configuration change as a determinism
// fault and schedules it to take effect at the given virtual-time epoch
// boundary. Every adaptive strategy switch goes through here — even ones
// that would pass the SetConfig guard — so replay and replicas re-derive
// the identical per-wire strategy sequence from the log instead of
// re-running the control loop.
func (e *Engine) CommitSilenceFault(component string, cfg silence.Config, at vt.Time) error {
	h, ok := e.comps[component]
	if !ok {
		return fmt.Errorf("engine: component %q not hosted on %q", component, e.name)
	}
	rec := wal.FaultRecord{Component: component, Silence: &wal.SilenceFault{Config: cfg, EffectiveVT: at}}
	if err := e.log.AppendFault(rec); err != nil {
		return err
	}
	h.sch.ApplySilenceEpoch(cfg, at)
	return nil
}

// Calibrated returns a hosted component's calibrated estimator, or false
// when the component is not hosted here or uses a plain estimator.
func (e *Engine) Calibrated(component string) (*estimator.Calibrated, bool) {
	h, ok := e.comps[component]
	if !ok || h.cal == nil {
		return nil, false
	}
	return h.cal, true
}

// ComponentVT returns a hosted component's virtual-time frontier: the
// later of the engine clock and the component's scheduler clock. Manual-
// clock deployments keep the engine clock pinned while schedulers still
// advance with processed messages, so "which estimator/silence epoch is in
// force" must consult the scheduler side too.
func (e *Engine) ComponentVT(component string) vt.Time {
	now := e.clock()
	if h, ok := e.comps[component]; ok {
		if c := h.sch.Clock(); c > now {
			now = c
		}
	}
	return now
}

// Hosted returns the names of the components hosted on this engine, sorted.
func (e *Engine) Hosted() []string {
	out := make([]string, 0, len(e.comps))
	for name := range e.comps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Name returns the engine name.
func (e *Engine) Name() string { return e.name }

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *trace.Metrics { return e.metrics }

// Source returns the handle for a named external source whose component is
// hosted on this engine.
func (e *Engine) Source(name string) (*Source, error) {
	s, ok := e.sources[name]
	if !ok {
		return nil, fmt.Errorf("engine: source %q is not hosted on %q", name, e.name)
	}
	return s, nil
}

// Sink registers the consumer callback for a named external sink whose
// component is hosted on this engine. Must be called before Start.
// The callback receives raw envelopes and may see re-deliveries after a
// failover (output stutter); wrap it with DedupSink to suppress them.
func (e *Engine) Sink(name string, fn func(env msg.Envelope)) error {
	sink, ok := e.tp.SinkByName(name)
	if !ok {
		return fmt.Errorf("engine: unknown sink %q", name)
	}
	w := e.tp.Wire(sink.Wire)
	if _, hostedHere := e.byID[w.From]; !hostedHere {
		return fmt.Errorf("engine: sink %q feeds from a component not hosted on %q", name, e.name)
	}
	e.sinksMu.Lock()
	defer e.sinksMu.Unlock()
	e.sinks[w.ID] = fn
	return nil
}

// Scheduler exposes a hosted component's scheduler (used by tests and the
// checkpoint loop).
func (e *Engine) Scheduler(component string) (*sched.Scheduler, bool) {
	h, ok := e.comps[component]
	if !ok {
		return nil, false
	}
	return h.sch, true
}

// BufferedCount reports how many envelopes the replay buffer of a wire
// currently holds (observability for tests and operators).
func (e *Engine) BufferedCount(w msg.WireID) int {
	return e.buffers.count(w)
}

// PeerHealth describes connectivity to one peer engine: whether a live
// connection exists and when a frame (heartbeats included) was last
// received. Monitors use a stale LastHeard as the fail-stop suspicion
// signal that triggers replica activation.
type PeerHealth struct {
	Connected bool
	LastHeard time.Time
}

// PeerHealth reports connectivity to every peer engine this engine shares
// wires with.
func (e *Engine) PeerHealth() map[string]PeerHealth {
	return e.peers.health()
}

// Start brings the engine up: schedulers, peer links, background loops.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return fmt.Errorf("engine: %q already started", e.name)
	}
	e.started = true
	e.epoch = time.Now()
	e.mu.Unlock()
	e.renewClockFloor()

	for _, h := range e.comps {
		if err := h.sch.Run(); err != nil {
			return err
		}
	}
	if err := e.peers.start(); err != nil {
		return err
	}
	if err := e.startDebug(); err != nil {
		return err
	}
	if e.restored {
		e.replayAfterRestore()
	}
	e.startLoops()
	return nil
}

func (e *Engine) startLoops() {
	if e.cfg.CheckpointEvery > 0 && e.cfg.Backup != nil {
		e.spawnTicker(e.cfg.CheckpointEvery, func() {
			if _, err := e.Checkpoint(); err != nil {
				// Checkpoint failures degrade recovery freshness but must
				// not stop the engine.
				_ = err
			}
		})
	}
	if e.cfg.SourceSilenceEvery > 0 {
		e.spawnTicker(e.cfg.SourceSilenceEvery, e.advanceSourceSilence)
	}
	if e.floor != nil {
		e.spawnTicker(clockFloorLease/2, e.renewClockFloor)
	}
	e.spawnTicker(e.cfg.GapRepairEvery, e.repairGaps)
	e.spawnTicker(e.cfg.HeartbeatEvery, e.peers.heartbeat)
}

func (e *Engine) spawnTicker(every time.Duration, fn func()) {
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Alive reports whether the engine has been started and not yet stopped or
// killed — the local liveness signal a failure detector falls back to when
// no peer can vouch for the engine.
func (e *Engine) Alive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started && !e.stopped
}

// Generation returns the engine incarnation's fencing token.
func (e *Engine) Generation() uint64 { return e.cfg.Generation }

// NowVT reads the engine's source clock: the virtual time a real-time
// source would stamp on an input emitted now. The adaptive span-sampling
// controller proposes epoch boundaries relative to the max of the live
// engines' clocks.
func (e *Engine) NowVT() vt.Time { return e.clock() }

// Stop shuts the engine down gracefully (schedulers drained of their
// current handler, connections closed). Idempotent.
func (e *Engine) Stop() {
	e.shutdown()
}

// Kill simulates a fail-stop crash: everything stops immediately and all
// volatile state (queues, buffers, un-checkpointed component state) is
// abandoned. The stable log and the backup survive, and a replacement can
// be built with NewFromBackup.
func (e *Engine) Kill() {
	e.shutdown()
}

func (e *Engine) shutdown() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.mu.Unlock()
	close(e.stop)
	for _, h := range e.comps {
		h.sch.Stop()
	}
	e.peers.stop()
	if e.debug != nil {
		e.debug.close()
	}
	e.done.Wait()
	e.dumpFlight()
}

// dumpFlight writes the flight recorder to the configured dump file
// (no-op when either is absent). Best-effort: observability must never
// fail a shutdown or a recovery.
func (e *Engine) dumpFlight() {
	if e.cfg.FlightDump == "" || e.rec == nil {
		return
	}
	f, err := os.Create(e.cfg.FlightDump)
	if err != nil {
		return
	}
	_ = e.rec.WriteDump(f, e.name)
	_ = f.Close()
}

// nameSeed derives a deterministic PRNG seed from a component name, so the
// active engine and every replica/replay agree on component randomness.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
