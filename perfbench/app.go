package main

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	tart "repro"
)

// Req is the one payload every workload sends: which source emitted it,
// the per-source sequence number, a key, a value and the instant the input
// was due. Relays forward it unchanged; the state-holding merger of
// durable-restart replaces Val with its state digest after applying the
// input, so the sink sees the state the output was computed from.
type Req struct {
	Src uint8
	Seq uint64
	Key uint64
	Val uint64
	Due int64 // unix nanos: the arrival's due instant (open loop) or emit call (closed loop)
}

// reqPayloadID is Req's binary payload type ID, recorded in logs and wire
// frames.
const reqPayloadID = tart.FirstUserPayloadID + 7

const reqSize = 1 + 8 + 8 + 8 + 8

var registerOnce sync.Once

// registerReq registers Req's binary codec, so TCP frames and the file WAL
// never take the gob fallback (msg.codec_fallbacks must read 0), plus the
// gob registration checkpoints use for payloads held in replay buffers.
func registerReq() {
	registerOnce.Do(func() {
		if err := tart.RegisterPayload(Req{}); err != nil {
			panic(err)
		}
		err := tart.RegisterBinaryPayload(tart.PayloadCodec{
			ID:   reqPayloadID,
			Type: reflect.TypeOf(Req{}),
			Append: func(dst []byte, v any) ([]byte, error) {
				r := v.(Req)
				var b [reqSize]byte
				b[0] = r.Src
				binary.LittleEndian.PutUint64(b[1:], r.Seq)
				binary.LittleEndian.PutUint64(b[9:], r.Key)
				binary.LittleEndian.PutUint64(b[17:], r.Val)
				binary.LittleEndian.PutUint64(b[25:], uint64(r.Due))
				return append(dst, b[:]...), nil
			},
			Decode: func(b []byte) (any, error) {
				if len(b) != reqSize {
					return nil, fmt.Errorf("perfbench: Req payload is %d bytes, want %d", len(b), reqSize)
				}
				return Req{
					Src: b[0],
					Seq: binary.LittleEndian.Uint64(b[1:]),
					Key: binary.LittleEndian.Uint64(b[9:]),
					Val: binary.LittleEndian.Uint64(b[17:]),
					Due: int64(binary.LittleEndian.Uint64(b[25:])),
				}, nil
			},
		})
		if err != nil {
			panic(err)
		}
	})
}

// handlerClock collects the wall time of the benchmark's own OnMessage
// bodies in the traced run. Handlers of one component run one at a time,
// but the relays and the merger run concurrently, hence the lock.
type handlerClock struct {
	on atomic.Bool // set while the measured window is open
	mu sync.Mutex
	us []float64
}

func (h *handlerClock) since(t0 time.Time) {
	if h == nil || !h.on.Load() {
		return
	}
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	h.mu.Lock()
	h.us = append(h.us, d)
	h.mu.Unlock()
}

func (h *handlerClock) samples() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.us...)
}

// relay forwards every input to "out" (the Fig. 1 senders and the
// stateless merger).
type relay struct {
	N     uint64
	clock *handlerClock
}

func (r *relay) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	t0 := time.Now()
	r.N++
	err := ctx.Send("out", payload)
	r.clock.since(t0)
	return nil, err
}

// stateMerger is durable-restart's merger: a large keyed table updated by
// every input. The update is a commutative add, so the table after a set
// of inputs does not depend on their merge order, and the digest the
// generator folds over the inputs it emitted must equal the merger's.
type stateMerger struct {
	State  *tart.StateMap[uint64, uint64]
	Digest uint64
	N      uint64
	clock  *handlerClock
}

func (m *stateMerger) OnMessage(ctx *tart.Context, _ string, payload any) (any, error) {
	t0 := time.Now()
	r := payload.(Req)
	old, _ := m.State.Get(r.Key)
	m.State.Put(r.Key, old+r.Val)
	m.Digest += mix(r.Key, old+r.Val) - mix(r.Key, old)
	m.N++
	r.Val = m.Digest
	err := ctx.Send("out", r)
	m.clock.since(t0)
	return nil, err
}

// mix is one table entry's contribution to the state digest, which is the
// wrapping sum of mix over every entry.
func mix(k, v uint64) uint64 {
	return splitmix(k*0x9e3779b97f4a7c15 ^ v)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// preloadValue is the initial value of key k, drawn from the seed.
func preloadValue(seed, k uint64) uint64 { return splitmix(seed^k*0x2545f4914f6cdd1d) % 1000 }

// fig1 builds the paper's Fig. 1 fan-in: sources in1 and in2 feed relays
// sender1 and sender2, whose outputs merge at merger, which feeds sink
// "out". Every component has a constant-cost estimator and Curiosity
// silence. engineOf places each component.
func fig1(merger tart.Component, clock *handlerClock, engineOf func(component string) string) *tart.App {
	registerReq()
	app := tart.NewApp()
	opts := []tart.ComponentOption{
		tart.WithConstantCost(50 * time.Microsecond),
		tart.WithSilence(tart.Curiosity),
		tart.WithProbeRetry(time.Millisecond),
	}
	app.Register("sender1", &relay{clock: clock}, opts...)
	app.Register("sender2", &relay{clock: clock}, opts...)
	app.Register("merger", merger, opts...)
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	for _, c := range []string{"sender1", "sender2", "merger"} {
		app.Place(c, engineOf(c))
	}
	return app
}

func oneEngine(string) string { return "A" }
