package engine

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/msg"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
	"repro/internal/wal"
)

// record reduces an envelope to its externally observable identity.
type record struct {
	Seq     uint64
	VT      vt.Time
	Payload any
}

func recordsOf(envs []msg.Envelope) []record {
	out := make([]record, len(envs))
	for i, e := range envs {
		out[i] = record{Seq: e.Seq, VT: e.VT, Payload: e.Payload}
	}
	return out
}

// TestSingleEngineFailover is the paper's core recovery scenario on one
// engine: run, checkpoint mid-stream, crash, restore from the passive
// replica plus the input log, and verify the output stream continues
// identically — re-delivered outputs (stutter) carry identical sequence
// numbers, virtual times, and payloads.
func TestSingleEngineFailover(t *testing.T) {
	tp := fig1Topo(t, false)
	log := wal.NewMemLog()
	store := checkpoint.NewReplicaStore()
	sink := newSinkCollector()

	e, err := New(Config{
		Name:       "A",
		Topo:       tp,
		Components: fig1Specs(),
		Log:        log,
		Backup:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	in1, _ := e.Source("in1")
	in2, _ := e.Source("in2")
	emit := func(i int) {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(vt.Time(i*1_000_000+500_000), []string{"c"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		emit(i)
	}
	in1.Quiesce(3_500_000)
	in2.Quiesce(3_500_000)
	sink.await(t, 6, 10*time.Second)

	// Checkpoint covers the first six outputs.
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	for i := 4; i <= 6; i++ {
		emit(i)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)
	before := recordsOf(sink.await(t, 12, 10*time.Second))

	// Crash. Everything volatile is gone; log and replica survive.
	e.Kill()

	sink2 := newSinkCollector()
	e2, err := NewFromBackup(Config{
		Name:       "A",
		Topo:       tp,
		Components: fig1Specs(), // fresh state objects, restored from replica
		Log:        log,
		Backup:     store,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Sink("out", sink2.fn); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()

	// The checkpoint covered outputs 1..6, so outputs 7..12 are regenerated
	// (stutter). They must be IDENTICAL to the originals.
	// The sources must replay their suffix from the log; re-quiesce so the
	// merge can drain (silence promises are volatile and died with e).
	in1b, _ := e2.Source("in1")
	in2b, _ := e2.Source("in2")
	in1b.Quiesce(7_000_000)
	in2b.Quiesce(7_000_000)

	after := recordsOf(sink2.await(t, 6, 10*time.Second))
	if !reflect.DeepEqual(before[6:12], after[:6]) {
		t.Errorf("post-recovery stutter differs from original:\n  want %+v\n  got  %+v",
			before[6:12], after[:6])
	}

	// And the pipeline keeps working after recovery.
	if err := in1b.EmitAt(8_000_000, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := in2b.EmitAt(8_500_000, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	in1b.Quiesce(9_000_000)
	in2b.Quiesce(9_000_000)
	post := sink2.await(t, 8, 10*time.Second)
	if got := post[7].Seq; got != 14 {
		t.Errorf("post-recovery output seq = %d, want 14", got)
	}
}

// twoEngines wires the split Figure-1 topology over an in-process
// transport: senders on A, merger on B.
type twoEngines struct {
	net    *transport.Inproc
	logB   *wal.MemLog
	storeB *checkpoint.ReplicaStore
	sink   *sinkCollector
	engA   *Engine
	engB   *Engine
	addrs  map[string]string
}

func startTwoEngines(t *testing.T) *twoEngines {
	t.Helper()
	tp := fig1Topo(t, true)
	c := &twoEngines{
		net:    transport.NewInproc(),
		logB:   wal.NewMemLog(),
		storeB: checkpoint.NewReplicaStore(),
		sink:   newSinkCollector(),
		addrs:  map[string]string{"A": "addr-A", "B": "addr-B"},
	}
	specs := fig1Specs()
	var err error
	c.engA, err = New(Config{
		Name: "A",
		Topo: tp,
		Components: map[string]ComponentSpec{
			"sender1": specs["sender1"],
			"sender2": specs["sender2"],
		},
		Transport:      c.net,
		Addrs:          c.addrs,
		RedialEvery:    5 * time.Millisecond,
		GapRepairEvery: 10 * time.Millisecond,
		Metrics:        &trace.Metrics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.engB, err = New(c.engBConfig(tp, map[string]ComponentSpec{"merger": specs["merger"]}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.engB.Sink("out", c.sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := c.engB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.engA.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *twoEngines) engBConfig(tp *topo.Topology, comps map[string]ComponentSpec) Config {
	return Config{
		Name:           "B",
		Topo:           tp,
		Components:     comps,
		Transport:      c.net,
		Addrs:          c.addrs,
		Log:            c.logB,
		Backup:         c.storeB,
		RedialEvery:    5 * time.Millisecond,
		GapRepairEvery: 10 * time.Millisecond,
		Metrics:        &trace.Metrics{},
	}
}

func (c *twoEngines) stop() {
	c.engA.Stop()
	c.engB.Stop()
}

func TestTwoEngineDistributedFlow(t *testing.T) {
	c := startTwoEngines(t)
	defer c.stop()

	in1, _ := c.engA.Source("in1")
	in2, _ := c.engA.Source("in2")
	for i := 1; i <= 5; i++ {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(vt.Time(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(vt.Time(10_000_000))
	in2.Quiesce(vt.Time(10_000_000))

	got := c.sink.await(t, 10, 15*time.Second)
	for i := 1; i < 10; i++ {
		if got[i].VT <= got[i-1].VT {
			t.Errorf("sink VTs not increasing at %d", i)
		}
	}
	// Determinism of the merge across engines: sender1 (lower wire ID)
	// messages interleave with sender2's strictly by virtual time.
	if got[9].Payload.(int) != 30 {
		// sender1 emits 0,2,4,6,8 (x,y counted) — wait, two words seen
		// i-1 times each → 2(i-1); sender2 emits i-1. Totals sum to
		// 2*(0+1+2+3+4) + (0+1+2+3+4) = 30.
		t.Errorf("final total = %v, want 30", got[9].Payload)
	}
}

// TestRemoteEngineFailover kills the merger's engine mid-stream and
// restores it from its replica: the senders' engine must survive the
// disconnect, replay the suffix the restored merger asks for, and the
// output stream must continue identically modulo stutter.
func TestRemoteEngineFailover(t *testing.T) {
	c := startTwoEngines(t)
	defer func() { c.engA.Stop() }()

	tp := c.engA.tp
	in1, _ := c.engA.Source("in1")
	in2, _ := c.engA.Source("in2")
	emit := func(i int) {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"x"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(vt.Time(i*1_000_000+400_000), []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		emit(i)
	}
	in1.Quiesce(3_500_000)
	in2.Quiesce(3_500_000)
	c.sink.await(t, 6, 15*time.Second)

	if _, err := c.engB.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	for i := 4; i <= 6; i++ {
		emit(i)
	}
	in1.Quiesce(7_000_000)
	in2.Quiesce(7_000_000)
	before := recordsOf(c.sink.await(t, 12, 15*time.Second))

	// Crash B.
	c.engB.Kill()

	// Build B' from the replica; the sink consumer reattaches.
	sink2 := newSinkCollector()
	engB2, err := NewFromBackup(c.engBConfig(tp, map[string]ComponentSpec{
		"merger": spec(&adder{}, 400_000),
	}), c.storeB)
	if err != nil {
		t.Fatal(err)
	}
	if err := engB2.Sink("out", sink2.fn); err != nil {
		t.Fatal(err)
	}
	if err := engB2.Start(); err != nil {
		t.Fatal(err)
	}
	defer engB2.Stop()

	// B' restored to the checkpoint (outputs 1..6 delivered); the senders'
	// replay buffers supply 7..12 again. Verify identical stutter.
	after := recordsOf(sink2.await(t, 6, 20*time.Second))
	if !reflect.DeepEqual(before[6:12], after[:6]) {
		t.Errorf("post-failover stutter differs:\n  want %+v\n  got  %+v", before[6:12], after[:6])
	}

	// New traffic flows end to end through the recovered engine.
	emit(8) // VT 8M / 8.4M, past the pre-crash quiesce at 7M
	in1.Quiesce(9_000_000)
	in2.Quiesce(9_000_000)
	post := sink2.await(t, 8, 15*time.Second)
	if post[7].Seq != 14 {
		t.Errorf("post-failover new output seq = %d, want 14", post[7].Seq)
	}
}

// TestAcksTrimReplayBuffers verifies the stability protocol: after the
// receiving engine checkpoints, the sender's replay buffers shrink.
func TestAcksTrimReplayBuffers(t *testing.T) {
	c := startTwoEngines(t)
	defer c.stop()

	tp := c.engA.tp
	s1, _ := tp.ComponentByName("sender1")
	wireS1 := s1.Outputs["out"]

	in1, _ := c.engA.Source("in1")
	in2, _ := c.engA.Source("in2")
	for i := 1; i <= 5; i++ {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(6_000_000)
	in2.Quiesce(6_000_000)
	c.sink.await(t, 5, 15*time.Second)

	if got := c.engA.BufferedCount(wireS1); got != 5 {
		t.Fatalf("pre-checkpoint buffer = %d, want 5", got)
	}
	if _, err := c.engB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The ack travels asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for c.engA.BufferedCount(wireS1) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("buffer not trimmed: %d entries", c.engA.BufferedCount(wireS1))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSinkWiresAreNotBuffered: envelopes on a wire whose receiver is
// external are never replayed or acknowledged, so they must not sit in the
// replay buffers — or in checkpoints, or against the shed limit.
func TestSinkWiresAreNotBuffered(t *testing.T) {
	tp := fig1Topo(t, false)
	store := checkpoint.NewReplicaStore()
	sink := newSinkCollector()
	e, err := New(Config{Name: "A", Topo: tp, Components: fig1Specs(), Backup: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sink("out", sink.fn); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	merger, _ := tp.ComponentByName("merger")
	sinkWire := merger.Outputs["out"]

	in1, _ := e.Source("in1")
	in2, _ := e.Source("in2")
	for i := 1; i <= 4; i++ {
		if err := in1.EmitAt(vt.Time(i*1_000_000), []string{"a"}); err != nil {
			t.Fatal(err)
		}
		if err := in2.EmitAt(vt.Time(i*1_000_000+500_000), []string{"b"}); err != nil {
			t.Fatal(err)
		}
	}
	in1.Quiesce(5_000_000)
	in2.Quiesce(5_000_000)
	sink.await(t, 8, 10*time.Second)
	if got := e.BufferedCount(sinkWire); got != 0 {
		t.Fatalf("sink wire buffered %d envelopes after 8 outputs, want 0", got)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.BufferedCount(sinkWire); got != 0 {
		t.Fatalf("sink wire buffered %d envelopes after a checkpoint, want 0", got)
	}
	if got := len(store.Buffers()[sinkWire]); got != 0 {
		t.Fatalf("checkpoint carries %d sink-wire envelopes, want 0", got)
	}
}

// floorStore is a ClockFloorStore that counts writes and can refuse them.
type floorStore struct {
	mu     sync.Mutex
	t      vt.Time
	writes int
	fail   bool
}

func (f *floorStore) ClockFloor() vt.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *floorStore) SetClockFloor(t vt.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.fail {
		return errors.New("floor store down")
	}
	f.t = max(f.t, t)
	return nil
}

// TestSourcePromisesStayBelowClockFloor: clock-driven source silence never
// passes the floor the store holds, and the floor is raised by the engine
// itself (once at Start, then every half lease), not per promise. With a
// store that refuses writes, promises stall at the stored floor.
func TestSourcePromisesStayBelowClockFloor(t *testing.T) {
	for _, fail := range []bool{false, true} {
		store := &floorStore{t: 5_000_000, fail: fail}
		e, err := New(Config{Name: "A", Topo: fig1Topo(t, false), Components: fig1Specs(),
			ClockFloor: store, SourceSilenceEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		e.Stop()
		store.mu.Lock()
		floor, writes := store.t, store.writes
		store.mu.Unlock()
		if writes != 1 {
			t.Errorf("fail=%v: %d floor writes in 50ms, want 1 (at Start)", fail, writes)
		}
		for _, s := range e.sortedSources() {
			s.mu.Lock()
			promised := s.promised
			s.mu.Unlock()
			if promised > floor {
				t.Errorf("fail=%v: source %s promised %v past the floor %v", fail, s.name, promised, floor)
			}
			if fail && promised != 5_000_000 {
				t.Errorf("fail=%v: source %s promised %v, want the stored floor 5000000", fail, s.name, promised)
			}
			if !fail && promised <= 5_000_000 {
				t.Errorf("fail=%v: source %s promised %v, want past the old floor 5000000", fail, s.name, promised)
			}
		}
	}
}
