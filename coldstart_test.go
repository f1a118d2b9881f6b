package tart_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	tart "repro"
	"repro/internal/checkpoint"
)

// coldApp builds a fresh instance of the Figure-1 pipeline. A cold restart
// happens in a new OS process, so each (re)open constructs new component
// objects — their state comes from the durable checkpoint, never from
// heap leftovers.
func coldApp() *tart.App {
	app := tart.NewApp()
	app.Register("sender1", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(70*time.Microsecond))
	app.Register("merger", &crashMerger{},
		tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("node")
	return app
}

// coldRun drives `rounds` rounds (two inputs each) through a cluster and
// appends the deduped output to the shared collector.
func coldRound(t *testing.T, cluster *tart.Cluster, round int, outCh chan crashRecord) {
	t.Helper()
	in1, err := cluster.Source("in1")
	if err != nil {
		t.Fatal(err)
	}
	in2, err := cluster.Source("in2")
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"ash", "birch", "cedar", "fir"}
	vtBase := tart.VirtualTime((round + 1) * 1_000_000)
	if err := in1.EmitAt(vtBase, words[round%len(words)]); err != nil {
		t.Fatal(err)
	}
	if err := in2.EmitAt(vtBase+333_000, words[(round+1)%len(words)]); err != nil {
		t.Fatal(err)
	}
	q := vtBase + 500_000
	in1.Quiesce(q)
	in2.Quiesce(q)
	_ = outCh
}

// TestColdRestartReopen is the in-process half of the cold-restart
// contract: a cluster launched over a durable state directory is stopped
// with rounds of input beyond its newest durable checkpoint, then a brand
// new cluster (fresh component objects — stand-in for a fresh OS process)
// Reopens the same directory. The restart must restore the checkpoint,
// replay the WAL suffix, suppress the resulting stutter under
// DedupOutputs, accept new input, and produce a total output tape
// identical to a clean run that never restarted. The durable generation
// must ratchet across incarnations.
func TestColdRestartReopen(t *testing.T) {
	coldRestartOracle(t, coldApp, []int{3}, 1)
}

// TestColdRestartReopenDeltaChain runs the same oracle over components
// that keep their state in StateMap fields and checkpoint after each of
// the first four rounds, so the durable store holds a full checkpoint
// plus four field deltas and Reopen restores the whole chain.
func TestColdRestartReopenDeltaChain(t *testing.T) {
	coldRestartOracle(t, coldMapApp, []int{1, 2, 3, 4}, 5)
}

// coldRestartOracle drives eight rounds through newApp's Figure-1
// pipeline, checkpointing after each round in ckptRounds, once straight
// through and once stopped after round six and Reopened over the same
// state directory, and requires identical output tapes. chainLen is the
// length of the durable chain the restart must restore.
func coldRestartOracle(t *testing.T, newApp func() *tart.App, ckptRounds []int, chainLen int) {
	const (
		stopAfterRound = 6 // first process ends here
		totalRounds    = 8 // second incarnation adds two more
	)
	lastCkpt := ckptRounds[len(ckptRounds)-1] // later rounds live only in the WAL

	run := func(t *testing.T, restart bool) []crashRecord {
		t.Helper()
		dir := t.TempDir()
		outCh := make(chan crashRecord, 256)
		// ONE dedup cursor across both incarnations: it plays the role of
		// the external consumer, which does not restart with the engine.
		deduped := tart.DedupOutputs(func(o tart.Output) {
			outCh <- crashRecord{Seq: o.Seq, VT: o.VT, Payload: o.Payload.(string)}
		})
		var got []crashRecord
		collect := func(n int) {
			deadline := time.After(20 * time.Second)
			for len(got) < n {
				select {
				case r := <-outCh:
					got = append(got, r)
				case <-deadline:
					t.Fatalf("timed out at %d of %d outputs", len(got), n)
				}
			}
		}

		opts := []tart.ClusterOption{
			tart.WithManualClock(func() tart.VirtualTime { return 0 }),
			tart.WithDurableStore(dir),
		}
		cluster, err := tart.Launch(newApp(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.Sink("out", deduped); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < stopAfterRound; r++ {
			coldRound(t, cluster, r, outCh)
			collect(2 * (r + 1))
			for _, c := range ckptRounds {
				if r+1 == c {
					if _, err := cluster.Checkpoint("node"); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if !restart {
			// Clean reference: same schedule, one incarnation end to end.
			for r := stopAfterRound; r < totalRounds; r++ {
				coldRound(t, cluster, r, outCh)
				collect(2 * (r + 1))
			}
			cluster.Stop()
			return got
		}
		cluster.Stop()

		fs, err := checkpoint.OpenFileStore(dir + "/node/checkpoints")
		if err != nil {
			t.Fatal(err)
		}
		chain, err := fs.Chain()
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != chainLen {
			t.Fatalf("durable chain holds %d checkpoints, want %d", len(chain), chainLen)
		}
		for i, ck := range chain {
			if ck.Full() != (i == 0) {
				t.Fatalf("durable chain entry %d (seq %d): full=%v", i, ck.Seq, ck.Full())
			}
		}

		// "New process": fresh component objects, same state directory.
		cluster2, err := tart.Reopen(newApp(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster2.Stop()
		if err := cluster2.Sink("out", deduped); err != nil {
			t.Fatal(err)
		}
		// The WAL suffix past the durable checkpoint replays immediately on
		// reopen; the dedup cursor swallows the stutter, so the visible tape
		// just continues.
		for r := stopAfterRound; r < totalRounds; r++ {
			coldRound(t, cluster2, r, outCh)
			collect(2 * (r + 1))
		}

		// The replayed-suffix counter saw the WAL records past the durable
		// checkpoint's cursor: one record per source per round.
		fams, err := cluster2.MetricFamilies("node")
		if err != nil {
			t.Fatal(err)
		}
		var replayed float64
		for _, f := range fams {
			if f.Name != "tart_coldstart_replayed_records" {
				continue
			}
			for _, s := range f.Series {
				replayed += s.Value
			}
		}
		if want := float64(2 * (stopAfterRound - lastCkpt)); replayed != want {
			t.Fatalf("tart_coldstart_replayed_records = %v, want %v", replayed, want)
		}
		cluster2.Stop()

		// Generation ratchet: launch persisted 1, reopen persisted 2 — and
		// did so durably, so a third incarnation would fence both.
		fs, err = checkpoint.OpenFileStore(dir + "/node/checkpoints")
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		if g := fs.Generation(); g != 2 {
			t.Fatalf("durable generation after reopen = %d, want 2", g)
		}
		if fs.Seq() == 0 {
			t.Fatal("durable store holds no checkpoint after reopen")
		}
		return got
	}

	want := run(t, false)
	got := run(t, true)
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("restarted tape diverged at output %d:\n  want %+v\n  got  %+v",
					i, want[i], safeIndex(got, i))
			}
		}
		t.Fatalf("tape length mismatch: clean %d vs restarted %d", len(want), len(got))
	}
}

// coldMapApp is coldApp with every component's state in StateMap fields:
// checkpoints after the launch checkpoint are field deltas.
func coldMapApp() *tart.App {
	app := tart.NewApp()
	app.Register("sender1", &mapCounter{Counts: tart.NewStateMap[string, int]()},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &mapCounter{Counts: tart.NewStateMap[string, int]()},
		tart.WithConstantCost(70*time.Microsecond))
	app.Register("merger", &mapMerger{Seen: tart.NewStateMap[string, int]()},
		tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.PlaceAll("node")
	return app
}

// mapCounter is crashCounter over a StateMap.
type mapCounter struct {
	Counts *tart.StateMap[string, int]
}

func (c *mapCounter) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	w := payload.(string)
	n, _ := c.Counts.Get(w)
	c.Counts.Put(w, n+1)
	return nil, ctx.Send("out", fmt.Sprintf("%s#%d", w, n+1))
}

// mapMerger numbers its inputs and remembers, per input, when it came:
// its output depends on the whole restored table.
type mapMerger struct {
	Seen *tart.StateMap[string, int]
	N    int
}

func (m *mapMerger) OnMessage(ctx *tart.Context, port string, payload any) (any, error) {
	m.N++
	key := fmt.Sprint(payload)
	first, ok := m.Seen.Get(key)
	if !ok {
		first = m.N
		m.Seen.Put(key, first)
	}
	return nil, ctx.Send("out", fmt.Sprintf("%03d:%v@%d/%d", m.N, payload, first, m.Seen.Len()))
}

// TestWithEnginesRejectsUnhostedAttachments pins the engine-subset
// contract: a process hosting only part of the topology gets a clear
// error — not a nil-pointer crash — when asked to attach a source or sink
// served by an engine it does not host.
func TestWithEnginesRejectsUnhostedAttachments(t *testing.T) {
	app := tart.NewApp()
	app.Register("sender1", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(40*time.Microsecond))
	app.Register("sender2", &crashCounter{Counts: map[string]int{}},
		tart.WithConstantCost(70*time.Microsecond))
	app.Register("merger", &crashMerger{},
		tart.WithConstantCost(100*time.Microsecond))
	app.SourceInto("in1", "sender1", "in")
	app.SourceInto("in2", "sender2", "in")
	app.Connect("sender1", "out", "merger", "s1")
	app.Connect("sender2", "out", "merger", "s2")
	app.SinkFrom("out", "merger", "out")
	app.Place("sender1", "left")
	app.Place("sender2", "left")
	app.Place("merger", "right")

	cluster, err := tart.Launch(app,
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithEngines("left"))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	if _, err := cluster.Source("in1"); err != nil {
		t.Fatalf("hosted source rejected: %v", err)
	}
	if err := cluster.Sink("out", func(tart.Output) {}); err == nil {
		t.Fatal("sink on unhosted engine was accepted")
	} else if !strings.Contains(err.Error(), "right") {
		t.Fatalf("sink error does not name the unhosted engine: %v", err)
	}

	if _, err := tart.Launch(app, tart.WithEngines("nope")); err == nil {
		t.Fatal("WithEngines with unknown engine name was accepted")
	}
}

// TestShedLimitIgnoresSinkOutputs: a long-lived cluster with a shed limit
// and periodic checkpoints keeps accepting input. Checkpoints trim the
// replay buffers of internal wires; outputs to sinks are never buffered,
// so they cannot accumulate against the limit.
func TestShedLimitIgnoresSinkOutputs(t *testing.T) {
	const (
		limit  = 16
		rounds = 60 // 120 outputs, far past the limit
	)
	cluster, err := tart.Launch(coldApp(),
		tart.WithManualClock(func() tart.VirtualTime { return 0 }),
		tart.WithShedLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	outCh := make(chan crashRecord, 2*rounds)
	if err := cluster.Sink("out", func(o tart.Output) {
		outCh <- crashRecord{Seq: o.Seq, VT: o.VT, Payload: o.Payload.(string)}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	for r := 0; r < rounds; r++ {
		coldRound(t, cluster, r, outCh) // fails the test on ErrSourceShed
		for deadline := time.After(10 * time.Second); got < 2*(r+1); {
			select {
			case <-outCh:
				got++
			case <-deadline:
				t.Fatalf("round %d: timed out at %d outputs", r, got)
			}
		}
		if r%4 == 3 {
			if _, err := cluster.Checkpoint("node"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestColdRestartDefaultClock reopens a cluster that runs on the default
// real-time source clock. Before the stop, in2 falls silent while in1
// keeps emitting, so in2's clock-driven silence promises let the merger
// deliver in1's inputs well past in2's last input. After the reopen, in2
// speaks first: its input must be stamped after all silence the stopped
// incarnation promised, so the replayed suffix is numbered exactly as
// before (stutter byte-identical to the delivered outputs), no input is
// lost, and the tape stays in virtual-time and per-source order.
func TestColdRestartDefaultClock(t *testing.T) {
	restartDefaultClock(t, true)
}

// TestRecoverDefaultClock is the same check across an in-process
// failover (Fail, then Recover from the warm replica) without a durable
// store: the clock floor then lives in memory, beside the replica.
func TestRecoverDefaultClock(t *testing.T) {
	restartDefaultClock(t, false)
}

// restartDefaultClock runs the default-clock restart check, restarting
// with Reopen over a durable store, or with Fail and Recover.
func restartDefaultClock(t *testing.T, durable bool) {
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		first = map[uint64]crashRecord{}
		tape  []crashRecord
		bad   []string
	)
	sink := func(o tart.Output) {
		r := crashRecord{Seq: o.Seq, VT: o.VT, Payload: o.Payload.(string)}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := first[o.Seq]; ok {
			if prev != r {
				bad = append(bad, fmt.Sprintf("output %d delivered as %+v, repeated as %+v", o.Seq, prev, r))
			}
			return
		}
		if want := uint64(len(tape) + 1); o.Seq != want {
			bad = append(bad, fmt.Sprintf("output %d arrived, want %d next", o.Seq, want))
		}
		first[o.Seq] = r
		tape = append(tape, r)
	}
	waitFor := func(n int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			mu.Lock()
			got := len(tape)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out at %d of %d outputs", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	emit := func(c *tart.Cluster, source, word string) {
		t.Helper()
		src, err := c.Source(source)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Emit(word); err != nil {
			t.Fatal(err)
		}
	}

	var opts []tart.ClusterOption
	if durable {
		opts = append(opts, tart.WithDurableStore(dir))
	}
	c1, err := tart.Launch(coldApp(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Sink("out", sink); err != nil {
		t.Fatal(err)
	}
	emit(c1, "in1", "a1")
	emit(c1, "in2", "b1")
	waitFor(2)
	if _, err := c1.Checkpoint("node"); err != nil {
		t.Fatal(err)
	}
	emit(c1, "in2", "b2")
	waitFor(3)
	time.Sleep(30 * time.Millisecond)
	for _, w := range []string{"a2", "a3", "a4"} {
		emit(c1, "in1", w)
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(6)
	c2 := c1
	if durable {
		c1.Stop()
		if c2, err = tart.Reopen(coldApp(), opts...); err != nil {
			t.Fatal(err)
		}
		if err := c2.Sink("out", sink); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := c1.Fail("node"); err != nil {
			t.Fatal(err)
		}
		if err := c1.Recover("node"); err != nil {
			t.Fatal(err)
		}
	}
	defer c2.Stop()
	emit(c2, "in2", "b3")
	emit(c2, "in1", "a5")
	waitFor(8)
	time.Sleep(50 * time.Millisecond) // room for anything extra to show up

	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	if len(tape) != 8 {
		t.Fatalf("tape holds %d outputs, want 8: %+v", len(tape), tape)
	}
	var order []string
	for i, r := range tape {
		if i > 0 && r.VT <= tape[i-1].VT {
			t.Errorf("output %d at %v, not after output %d at %v", r.Seq, r.VT, tape[i-1].Seq, tape[i-1].VT)
		}
		word := strings.TrimSuffix(r.Payload[strings.Index(r.Payload, ":")+1:], "#1")
		order = append(order, word)
	}
	var a, b []string
	for _, w := range order {
		if w[0] == 'a' {
			a = append(a, w)
		} else {
			b = append(b, w)
		}
	}
	if want := []string{"a1", "a2", "a3", "a4", "a5"}; !reflect.DeepEqual(a, want) {
		t.Errorf("in1 inputs in output order %v, want %v", a, want)
	}
	if want := []string{"b1", "b2", "b3"}; !reflect.DeepEqual(b, want) {
		t.Errorf("in2 inputs in output order %v, want %v", b, want)
	}
}
