package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vt"
)

// Route implements sched.Router: it is the single egress point for every
// envelope a hosted component (or the engine itself) produces.
//
// Forward traffic (data, silence, calls, replies) goes to the wire's
// receiver; backward traffic (probes, replay requests, acks) goes to the
// wire's sender. Data-bearing envelopes on component output wires are
// appended to the wire's replay buffer before delivery, so replays and
// reconnects can re-send them.
func (e *Engine) Route(env msg.Envelope) {
	w := e.tp.Wire(env.Wire)
	switch env.Kind {
	case msg.KindData, msg.KindCallRequest:
		// Sink envelopes are never replayed (a restored engine re-executes
		// its outputs) nor acknowledged, so buffering them would only grow
		// every checkpoint and count against ShedBufferedLimit.
		if w.To != topo.External {
			e.buffers.append(env)
		}
		e.forward(w, env)
	case msg.KindCallReply:
		e.buffers.appendReply(env)
		e.forward(w, env)
	case msg.KindSilence:
		e.forward(w, env)
	case msg.KindProbe:
		e.backward(w, env)
	case msg.KindReplayRequest, msg.KindAck:
		e.backward(w, env)
	}
}

// forward delivers toward the wire's receiver.
func (e *Engine) forward(w *topo.Wire, env msg.Envelope) {
	if w.To == topo.External {
		if w.Kind == topo.WireSink && env.IsMessage() {
			e.sinksMu.Lock()
			fn := e.sinks[w.ID]
			e.sinksMu.Unlock()
			if fn != nil {
				fn(env)
			}
		}
		return
	}
	if h, ok := e.byID[w.To]; ok {
		h.sch.Deliver(env)
		return
	}
	if env.Kind == msg.KindSilence {
		e.peers.sendSilence(e.tp.EngineOf(w.To), env)
		return
	}
	e.peers.send(e.tp.EngineOf(w.To), env)
}

// backward delivers toward the wire's sender.
func (e *Engine) backward(w *topo.Wire, env msg.Envelope) {
	if w.From == topo.External {
		// A probe for a source wire: the source answers with its current
		// silence knowledge. (Replay of source wires is WAL-driven and
		// handled at restore time, not via requests.)
		if env.Kind == msg.KindProbe {
			e.answerSourceProbe(w)
		}
		return
	}
	if _, ok := e.byID[w.From]; ok {
		e.dispatchLocal(w, env)
		return
	}
	e.peers.send(e.tp.EngineOf(w.From), env)
}

// dispatchLocal hands an envelope to its handler on this engine: schedulers
// for wire traffic, the engine itself for recovery-protocol control.
func (e *Engine) dispatchLocal(w *topo.Wire, env msg.Envelope) {
	switch env.Kind {
	case msg.KindReplayRequest:
		e.serveReplay(env)
	case msg.KindAck:
		e.handleAck(env)
	default: // probes
		if h, ok := e.byID[w.From]; ok {
			h.sch.Deliver(env)
		}
	}
}

// deliverInbound dispatches an envelope received from a peer connection.
func (e *Engine) deliverInbound(env msg.Envelope) {
	if int(env.Wire) < 0 || int(env.Wire) >= len(e.tp.Wires()) {
		return // malformed
	}
	w := e.tp.Wire(env.Wire)
	switch env.Kind {
	case msg.KindProbe:
		if h, ok := e.byID[w.From]; ok {
			h.sch.Deliver(env)
		}
	case msg.KindReplayRequest:
		e.serveReplay(env)
	case msg.KindAck:
		e.handleAck(env)
	case msg.KindData, msg.KindSilence, msg.KindCallRequest, msg.KindCallReply:
		if h, ok := e.byID[w.To]; ok {
			h.sch.Deliver(env)
		}
	}
}

// serveReplay re-sends buffered envelopes of a wire from the requested
// sequence number (paper §II.F.4: "the sender or senders will be prompted
// to resend the range of ticks for which there is a gap").
func (e *Engine) serveReplay(req msg.Envelope) {
	e.metrics.AddReplayRequest()
	resent := e.buffers.from(req.Wire, req.Seq)
	e.metrics.Registry().Counter(trace.MetricReplayServes,
		"Replay-range requests served from replay buffers.",
		trace.L("wire", sched.WireName(e.tp, e.tp.Wire(req.Wire)))).Inc()
	e.rec.Record(trace.Event{Kind: trace.EvReplayServe, VT: vt.Never, Wire: req.Wire, MsgSeq: req.Seq,
		Note: fmt.Sprintf("resent %d buffered envelopes", len(resent))})
	for _, env := range resent {
		w := e.tp.Wire(env.Wire)
		e.forward(w, env)
	}
}

// noteReplayRequest accounts one replay-range request this engine issues.
func (e *Engine) noteReplayRequest(wid msg.WireID, fromSeq uint64) {
	e.metrics.Registry().Counter(trace.MetricReplayRequests,
		"Replay-range requests issued to senders.",
		trace.L("wire", sched.WireName(e.tp, e.tp.Wire(wid)))).Inc()
	e.rec.Record(trace.Event{Kind: trace.EvReplayRequest, VT: vt.Never, Wire: wid, MsgSeq: fromSeq})
}

// handleAck trims a wire's replay buffer after the receiver durably
// checkpointed delivery (stability acknowledgement).
func (e *Engine) handleAck(ack msg.Envelope) {
	w := e.tp.Wire(ack.Wire)
	if w.Kind == topo.WireCallReply {
		e.buffers.trimReplies(ack.Wire, ack.Seq)
		return
	}
	e.buffers.trim(ack.Wire, ack.Seq)
}

// resendBufferedReply answers a duplicate call request from a recovering
// caller by re-sending the buffered reply with the matching call ID.
func (e *Engine) resendBufferedReply(req msg.Envelope) {
	w := e.tp.Wire(req.Wire)
	if w.Peer < 0 {
		return
	}
	if reply, ok := e.buffers.replyByCallID(w.Peer, req.CallID); ok {
		e.metrics.AddDuplicateDropped()
		e.forward(e.tp.Wire(reply.Wire), reply)
	}
}

// repairGaps scans hosted components for sequence gaps (messages parked in
// holdback) and asks the senders to replay the missing ranges.
func (e *Engine) repairGaps() {
	for _, h := range e.sortedHosted() {
		for wid, fromSeq := range h.sch.Gaps() {
			w := e.tp.Wire(wid)
			if w.From == topo.External {
				// A gap on a source wire: re-inject the missing range from
				// the stable input log.
				if src := e.sourceByWire(wid); src != nil {
					recs, err := e.log.Inputs(src.name, fromSeq)
					if err == nil {
						for _, r := range recs {
							env := msg.NewData(wid, r.Seq, r.VT, r.Payload)
							env.Origin = msg.NewOrigin(wid, r.Seq)
							env.Trace = e.metrics.Spans().DecideAt(env.Origin, r.VT)
							src.target.sch.Deliver(env)
						}
					}
				}
				continue
			}
			if local, ok := e.byID[w.From]; ok {
				_ = local // local wires deliver synchronously; a local gap
				// can only appear after a restore, repaired from buffers.
				for _, env := range e.buffers.from(wid, fromSeq) {
					e.forward(w, env)
				}
				continue
			}
			e.noteReplayRequest(wid, fromSeq)
			e.peers.send(e.tp.EngineOf(w.From), msg.NewReplayRequest(wid, fromSeq))
		}
	}
}

// sortedHosted returns hosted components in name order (deterministic
// iteration for loops and checkpoints).
func (e *Engine) sortedHosted() []*hosted {
	out := make([]*hosted, 0, len(e.comps))
	for _, h := range e.comps {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// bufferSet holds per-wire replay buffers: data/call envelopes indexed by
// sequence number, call replies indexed by call ID. Buffers are trimmed by
// stability acks and are included in checkpoints so a restored engine can
// still serve replay requests for pre-crash sends.
type bufferSet struct {
	mu      sync.Mutex
	data    map[msg.WireID][]msg.Envelope // ordered by Seq
	replies map[msg.WireID][]msg.Envelope // ordered by CallID
}

func newBufferSet() *bufferSet {
	return &bufferSet{
		data:    make(map[msg.WireID][]msg.Envelope),
		replies: make(map[msg.WireID][]msg.Envelope),
	}
}

func (b *bufferSet) register(w msg.WireID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[w]; !ok {
		b.data[w] = nil
	}
}

func (b *bufferSet) append(env msg.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.data[env.Wire]
	if n := len(buf); n > 0 && env.Seq <= buf[n-1].Seq {
		return // regenerated duplicate after restore; already buffered
	}
	b.data[env.Wire] = append(buf, env)
}

func (b *bufferSet) appendReply(env msg.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.replies[env.Wire]
	if n := len(buf); n > 0 && env.CallID <= buf[n-1].CallID {
		return
	}
	b.replies[env.Wire] = append(buf, env)
}

// from returns buffered envelopes of the wire with Seq >= fromSeq.
func (b *bufferSet) from(w msg.WireID, fromSeq uint64) []msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.data[w]
	i := sort.Search(len(buf), func(i int) bool { return buf[i].Seq >= fromSeq })
	out := make([]msg.Envelope, len(buf)-i)
	copy(out, buf[i:])
	return out
}

// unacked returns every buffered envelope of every wire (for full resend on
// reconnect); wires are visited in ID order.
func (b *bufferSet) unacked() []msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	var wires []msg.WireID
	for w := range b.data {
		wires = append(wires, w)
	}
	for w := range b.replies {
		wires = append(wires, w)
	}
	sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })
	var out []msg.Envelope
	seen := make(map[msg.WireID]bool)
	for _, w := range wires {
		if seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, b.data[w]...)
		out = append(out, b.replies[w]...)
	}
	return out
}

func (b *bufferSet) replyByCallID(w msg.WireID, callID uint64) (msg.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.replies[w]
	i := sort.Search(len(buf), func(i int) bool { return buf[i].CallID >= callID })
	if i < len(buf) && buf[i].CallID == callID {
		return buf[i], true
	}
	return msg.Envelope{}, false
}

// count returns the number of buffered envelopes (data + replies) on a wire.
func (b *bufferSet) count(w msg.WireID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data[w]) + len(b.replies[w])
}

// total returns the number of buffered envelopes across all wires — the
// quantity ShedBufferedLimit bounds.
func (b *bufferSet) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, buf := range b.data {
		n += len(buf)
	}
	for _, buf := range b.replies {
		n += len(buf)
	}
	return n
}

func (b *bufferSet) trim(w msg.WireID, throughSeq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.data[w]
	i := sort.Search(len(buf), func(i int) bool { return buf[i].Seq > throughSeq })
	b.data[w] = append([]msg.Envelope(nil), buf[i:]...)
}

func (b *bufferSet) trimReplies(w msg.WireID, throughCallID uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := b.replies[w]
	i := sort.Search(len(buf), func(i int) bool { return buf[i].CallID > throughCallID })
	b.replies[w] = append([]msg.Envelope(nil), buf[i:]...)
}

// snapshot captures all buffers for inclusion in a checkpoint.
func (b *bufferSet) snapshot() map[msg.WireID][]msg.Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[msg.WireID][]msg.Envelope, len(b.data)+len(b.replies))
	for w, buf := range b.data {
		if len(buf) > 0 {
			out[w] = append([]msg.Envelope(nil), buf...)
		}
	}
	for w, buf := range b.replies {
		if len(buf) > 0 {
			out[w] = append([]msg.Envelope(nil), buf...)
		}
	}
	return out
}

// restore reinstates checkpointed buffers.
func (b *bufferSet) restore(tp *topo.Topology, bufs map[msg.WireID][]msg.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w, buf := range bufs {
		if int(w) < 0 || int(w) >= len(tp.Wires()) {
			continue
		}
		cp := append([]msg.Envelope(nil), buf...)
		if tp.Wire(w).Kind == topo.WireCallReply {
			b.replies[w] = cp
		} else {
			b.data[w] = cp
		}
	}
}
