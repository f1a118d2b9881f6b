package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
)

// fullCheckpointEvery bounds delta chains: every Nth checkpoint captures
// full handler state for every component at once, so a replica's or a
// durable store's chain — and its restore cost — stays bounded.
const fullCheckpointEvery = 10

// Checkpoint takes one soft checkpoint: a quiescent capture of every
// hosted component plus the replay buffers, applied to the configured
// backup. On success it trims the stable log and local buffers and sends
// stability acks to remote senders. It returns the checkpoint sequence
// number.
func (e *Engine) Checkpoint() (uint64, error) {
	if e.cfg.Backup == nil {
		return 0, fmt.Errorf("engine: %q has no backup configured", e.name)
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	start := time.Now()
	comps := make(map[string]checkpoint.ComponentState, len(e.comps))
	var captureErr error
	var bytesTotal int
	maxClock := vt.Zero
	fullRound := e.cfg.ForceFullCheckpoints || !e.fullShipped || e.deltasSince >= fullCheckpointEvery
	for _, h := range e.sortedHosted() {
		var cs checkpoint.ComponentState
		h.sch.WithQuiescent(func(st sched.State) {
			cs.Sched = st
			if st.Clock > maxClock {
				maxClock = st.Clock
			}
			if fullRound {
				data, err := checkpoint.Capture(h.spec.State)
				if err != nil {
					captureErr = err
					return
				}
				cs.Kind = checkpoint.HandlerFull
				cs.Handler = data
				return
			}
			data, full, err := checkpoint.CaptureDelta(h.spec.State)
			if err != nil {
				captureErr = err
				return
			}
			if full {
				cs.Kind = checkpoint.HandlerFull
			} else {
				cs.Kind = checkpoint.HandlerDelta
			}
			cs.Handler = data
		})
		if captureErr != nil {
			// A failed capture may have consumed dirty sets; force the next
			// checkpoint to be full for every component.
			e.forceFullNext()
			return 0, fmt.Errorf("engine: checkpoint %q: %w", h.name, captureErr)
		}
		if h.cal != nil {
			st := h.cal.State()
			cs.Estimator = &st
		}
		bytesTotal += len(cs.Handler)
		comps[h.name] = cs
	}

	ck := &checkpoint.Checkpoint{
		Engine:     e.name,
		Seq:        e.ckptSeq + 1,
		VT:         maxClock,
		Components: comps,
		Buffers:    e.buffers.snapshot(),
	}
	// The sequence number is spent even if Apply fails: a teed backup may
	// have taken it, and the full checkpoint that follows a failure must
	// not look like a stale duplicate to that backup.
	e.ckptSeq = ck.Seq
	if err := e.cfg.Backup.Apply(ck); err != nil {
		e.forceFullNext()
		return 0, fmt.Errorf("engine: apply checkpoint: %w", err)
	}
	e.lastCkptVT = maxClock
	if fullRound {
		e.fullShipped = true
		e.deltasSince = 0
	} else {
		e.deltasSince++
	}
	e.metrics.AddCheckpoint(bytesTotal)
	elapsed := time.Since(start)
	reg := e.metrics.Registry()
	reg.Counter(trace.MetricCheckpoints, "Soft checkpoints applied to the backup.").Inc()
	reg.Histogram(trace.MetricCheckpointBytes,
		"Encoded handler-state bytes per soft checkpoint.", trace.BytesBuckets).Observe(float64(bytesTotal))
	reg.Histogram(trace.MetricCheckpointSecs,
		"Real time to capture and apply one soft checkpoint.", trace.SecondsBuckets).Observe(elapsed.Seconds())
	e.rec.Record(trace.Event{Kind: trace.EvCheckpoint, VT: maxClock, Wire: -1, MsgSeq: ck.Seq,
		Note: fmt.Sprintf("%d bytes in %v", bytesTotal, elapsed.Round(time.Microsecond))})
	e.afterCheckpoint(ck)
	return ck.Seq, nil
}

// LastCheckpointVT returns the virtual time of the newest checkpoint this
// engine has taken (or restored from), vt.Zero before the first.
func (e *Engine) LastCheckpointVT() vt.Time {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.lastCkptVT
}

// MaxComponentClock returns the newest component clock on this engine —
// the live VT frontier a rewind would have to replay up to.
func (e *Engine) MaxComponentClock() vt.Time {
	m := vt.Zero
	for _, h := range e.comps {
		if c := h.sch.Clock(); c > m {
			m = c
		}
	}
	return m
}

// refreshCheckpointGauges publishes the rewind-distance bound: the VT of
// the newest checkpoint, and how far the live clock has run past it (the
// most replay any time-travel reconstruction has to do). Called at scrape
// time so the age tracks the live clock, not the last checkpoint tick.
func (e *Engine) refreshCheckpointGauges() {
	last := e.LastCheckpointVT()
	reg := e.metrics.Registry()
	reg.Gauge(trace.MetricCheckpointLastVT,
		"Virtual time of the engine's newest checkpoint (0 before the first).").Set(int64(last))
	age := int64(e.MaxComponentClock()) - int64(last)
	if age < 0 {
		age = 0
	}
	reg.Gauge(trace.MetricCheckpointAgeVT,
		"Virtual-time distance from the live clock frontier to the newest checkpoint — the bound on any rewind's replay distance.").Set(age)
}

// forceFullNext makes the next checkpoint ship full handler state for
// every component (after a failed capture or apply, deltas may be lost).
func (e *Engine) forceFullNext() {
	e.fullShipped = false
}

// afterCheckpoint performs the stability housekeeping a durable checkpoint
// enables: trim the input log, trim local replay buffers, and acknowledge
// remote senders so they can trim theirs (paper: checkpoints bound both
// recovery time and replay-buffer growth).
func (e *Engine) afterCheckpoint(ck *checkpoint.Checkpoint) {
	type ackTarget struct {
		engine string
		env    msg.Envelope
	}
	var acks []ackTarget
	for _, h := range e.sortedHosted() {
		cs := ck.Components[h.name]
		// Input wires: sorted for deterministic ack order.
		wires := make([]msg.WireID, 0, len(cs.Sched.Inputs))
		for wid := range cs.Sched.Inputs {
			wires = append(wires, wid)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
		for _, wid := range wires {
			cursor := cs.Sched.Inputs[wid].NextSeq // next needed; delivered through cursor-1
			if cursor == 0 {
				continue
			}
			delivered := cursor - 1
			w := e.tp.Wire(wid)
			switch {
			case w.From == topo.External:
				if src := e.sourceByWire(wid); src != nil {
					_ = e.log.TrimInputs(src.name, delivered)
				}
			case e.tp.EngineOf(w.From) == e.name:
				e.buffers.trim(wid, delivered)
			default:
				acks = append(acks, ackTarget{
					engine: e.tp.EngineOf(w.From),
					env:    msg.NewAck(wid, delivered),
				})
			}
		}
		// Reply wires: every call with ID <= NextCall completed before the
		// snapshot (snapshots are quiescent), so its reply is stable.
		for _, wid := range h.comp.ReplyInputs {
			if cs.Sched.NextCall == 0 {
				continue
			}
			w := e.tp.Wire(wid)
			if e.tp.EngineOf(w.From) == e.name {
				e.buffers.trimReplies(wid, cs.Sched.NextCall)
			} else {
				acks = append(acks, ackTarget{
					engine: e.tp.EngineOf(w.From),
					env:    msg.NewAck(wid, cs.Sched.NextCall),
				})
			}
		}
	}
	for _, a := range acks {
		e.peers.send(a.engine, a.env)
	}
}

func (e *Engine) sourceByWire(w msg.WireID) *Source {
	for _, s := range e.sources {
		if s.wire.ID == w {
			return s
		}
	}
	return nil
}

// NewFromBackup builds a replacement engine from the passive replica's
// stored state: the paper's failover (§II.F.3). The returned engine is
// inert; Start brings it up, replays the input-log suffix into restored
// components, and re-establishes connections (which re-drives remote
// replay).
func NewFromBackup(cfg Config, store *checkpoint.ReplicaStore) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, h := range e.sortedHosted() {
		schedState, estState, err := store.RestoreInto(h.name, h.spec.State)
		if err != nil {
			return nil, fmt.Errorf("engine: restore %q: %w", h.name, err)
		}
		if err := h.sch.Restore(schedState); err != nil {
			return nil, err
		}
		h.restoredState = schedState
		// Verify the checkpoint's audit chain against the replica-side
		// record: the chain value after AuditCount deliveries must match
		// what the original generation recorded at that index (§II.G.4).
		// A mismatch means the checkpointed prefix diverged from the run
		// the replica witnessed — a determinism fault.
		if audit := e.metrics.Audit(); audit != nil && schedState.AuditCount > 0 {
			if entry, ok := audit.At(h.name, schedState.AuditCount-1); ok && entry.Chain != schedState.AuditChain {
				e.metrics.AddDeterminismFault()
				e.metrics.Registry().DeterminismFaults(h.name, "checkpoint-chain").Inc()
				e.rec.Record(trace.Event{Kind: trace.EvDeterminismFault, VT: schedState.Clock, Component: h.name, Wire: -1,
					Note: fmt.Sprintf("checkpoint audit chain mismatch at delivery %d", schedState.AuditCount-1)})
			}
		}
		faults, err := e.log.Faults(h.name)
		if err != nil {
			return nil, err
		}
		if h.cal != nil {
			if estState != nil {
				if err := h.cal.SetState(*estState); err != nil {
					return nil, fmt.Errorf("engine: restore estimator of %q: %w", h.name, err)
				}
			}
			// Re-apply determinism faults logged after the checkpoint; the
			// synchronous fault log is the source of truth (§II.G.4).
			last := lastEpochStart(h.cal)
			for _, f := range faults {
				if f.Silence != nil {
					continue // silence faults re-applied below
				}
				if f.Fault.EffectiveVT < last {
					continue // already reflected in the checkpointed state
				}
				if err := h.cal.Apply(f.Fault); err != nil {
					return nil, fmt.Errorf("engine: replay fault for %q: %w", h.name, err)
				}
			}
		}
		// Silence configuration is not part of the checkpointed component
		// state, so re-install every logged silence fault in log order: the
		// scheduler applies boundaries at or before the restored clock
		// immediately (later entries overwrite earlier ones, converging on
		// the newest past config) and queues strictly-future ones.
		for _, f := range faults {
			if f.Silence == nil {
				continue
			}
			h.sch.ApplySilenceEpoch(f.Silence.Config, f.Silence.EffectiveVT)
		}
		if schedState.Clock > e.lastCkptVT {
			e.lastCkptVT = schedState.Clock // restored from a checkpoint at this VT
		}
	}
	e.buffers.restore(e.tp, store.Buffers())
	e.ckptSeq = store.Seq()
	e.restored = true
	return e, nil
}

func lastEpochStart(cal *estimator.Calibrated) vt.Time {
	st := cal.State()
	if n := len(st.Epochs); n > 0 {
		return st.Epochs[n-1].From
	}
	return 0
}

// replayAfterRestore re-drives local recovery once schedulers are running:
// buffered local-wire messages are re-delivered (duplicates discard), and
// each source's logged suffix is re-injected. Remote replay is driven by
// the connection hooks (onPeerConnected).
func (e *Engine) replayAfterRestore() {
	// Record activation before replay so the flight dump reads in causal
	// order: checkpoint → failover → replay → duplicate drops.
	e.metrics.Registry().Counter(trace.MetricFailovers, "Passive-replica activations.").Inc()
	e.rec.Record(trace.Event{Kind: trace.EvFailover, VT: vt.Never, Wire: -1, MsgSeq: e.ckptSeq,
		Note: fmt.Sprintf("activated from checkpoint %d", e.ckptSeq)})
	// Local wire buffers: deliver everything; receivers dedup by sequence.
	// Wires are visited in ID order so the recorded replay events are
	// deterministic.
	bufs := e.buffers.snapshot()
	wids := make([]msg.WireID, 0, len(bufs))
	for wid := range bufs {
		wids = append(wids, wid)
	}
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	for _, wid := range wids {
		w := e.tp.Wire(wid)
		if w.To == topo.External || e.tp.EngineOf(w.To) != e.name {
			continue
		}
		buf := bufs[wid]
		if len(buf) > 0 {
			e.rec.Record(trace.Event{Kind: trace.EvReplayServe, VT: vt.Never, Wire: wid, MsgSeq: buf[0].Seq,
				Note: fmt.Sprintf("re-delivered %d buffered envelopes (local replay)", len(buf))})
		}
		for _, env := range buf {
			e.forward(w, env)
		}
	}
	// Source logs: replay from each restored component's delivery cursor.
	for _, h := range e.sortedHosted() {
		for wid, ist := range h.restoredState.Inputs {
			w := e.tp.Wire(wid)
			if w.From != topo.External {
				continue
			}
			if src := e.sourceByWire(wid); src != nil {
				e.rec.Record(trace.Event{Kind: trace.EvReplayRequest, VT: vt.Never,
					Component: src.name, Wire: wid, MsgSeq: ist.NextSeq, Note: "source log replay"})
				if err := src.restoreCursor(ist.NextSeq, ist.LastVT); err != nil {
					// Log replay failure leaves the component waiting for the
					// missing range; surfaced via metrics rather than a crash.
					continue
				}
			}
		}
	}
	e.metrics.AddFailover()
	// Persist the recovery story immediately: the dump now shows the
	// pre-crash checkpoints and sends followed by failover and replay.
	e.dumpFlight()
}
