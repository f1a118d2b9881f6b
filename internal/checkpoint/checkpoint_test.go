package checkpoint

import (
	"encoding/gob"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

// autoComp is a plain component with exported fields — the transparent
// capture path.
type autoComp struct {
	Counts map[string]int
	Total  int
}

func TestCaptureAutoRoundTrip(t *testing.T) {
	src := &autoComp{Counts: map[string]int{"a": 1, "b": 2}, Total: 3}
	data, err := Capture(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := &autoComp{}
	if err := Reinstate(dst, data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Errorf("round trip mismatch: %+v vs %+v", src, dst)
	}
}

// Regression: restoring into a previously used object must not merge with
// its current (post-checkpoint) state — gob decodes into existing maps
// additively unless the target is zeroed first.
func TestReinstateIntoDirtyObjectReplaces(t *testing.T) {
	c := &autoComp{Counts: map[string]int{"alpha": 2, "beta": 1}, Total: 3}
	snap, err := Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations that must vanish on restore.
	c.Counts["gamma"] = 1
	c.Counts["alpha"] = 9
	c.Total = 99
	if err := Reinstate(c, snap); err != nil {
		t.Fatal(err)
	}
	if _, stale := c.Counts["gamma"]; stale {
		t.Error("restore kept a key that did not exist at checkpoint time")
	}
	if c.Counts["alpha"] != 2 || c.Total != 3 {
		t.Errorf("restore incomplete: %+v", c)
	}
}

// explicitComp implements Snapshotter.
type explicitComp struct {
	state    []byte
	snapped  int
	restored int
}

func (e *explicitComp) Snapshot() ([]byte, error) { e.snapped++; return e.state, nil }
func (e *explicitComp) Restore(d []byte) error    { e.restored++; e.state = d; return nil }

func TestCaptureExplicitSnapshotter(t *testing.T) {
	c := &explicitComp{state: []byte("hello")}
	data, err := Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || c.snapped != 1 {
		t.Errorf("explicit snapshot not used: %q", data)
	}
	if err := Reinstate(c, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if string(c.state) != "world" || c.restored != 1 {
		t.Error("explicit restore not used")
	}
}

func TestCaptureDeltaFallsBackToFull(t *testing.T) {
	c := &autoComp{Counts: map[string]int{}, Total: 1}
	data, full, err := CaptureDelta(c)
	if err != nil {
		t.Fatal(err)
	}
	if !full || len(data) == 0 {
		t.Error("non-incremental component should produce a full capture")
	}
	if err := ApplyDelta(c, data); err == nil {
		t.Error("ApplyDelta on non-incremental component should fail")
	}
}

func TestMapBasics(t *testing.T) {
	m := NewMap[string, int]()
	if m.Len() != 0 || m.DirtyCount() != 0 {
		t.Error("fresh map not empty")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Error("Get after Put failed")
	}
	if _, ok := m.Get("zzz"); ok {
		t.Error("Get of missing key succeeded")
	}
	m.Delete("a")
	if _, ok := m.Get("a"); ok {
		t.Error("Delete did not remove")
	}
	m.Delete("never-existed") // no-op, must not mark dirty
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if got := m.DirtyCount(); got != 2 { // a (put+deleted), b
		t.Errorf("DirtyCount = %d, want 2", got)
	}
}

func TestMapSortedKeys(t *testing.T) {
	m := NewMap[string, int]()
	for _, k := range []string{"zebra", "apple", "mango"} {
		m.Put(k, 1)
	}
	got := m.SortedKeys()
	want := []string{"apple", "mango", "zebra"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedKeys = %v", got)
	}
}

func TestMapSnapshotRestore(t *testing.T) {
	m := NewMap[string, int]()
	m.Put("x", 10)
	m.Put("y", 20)
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() != 0 {
		t.Error("Snapshot did not clear dirty set")
	}
	m2 := NewMap[string, int]()
	if err := m2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.Get("x"); v != 10 {
		t.Error("restored map missing data")
	}
	if m2.Len() != 2 {
		t.Errorf("restored Len = %d", m2.Len())
	}
}

func TestMapDeltaLifecycle(t *testing.T) {
	m := NewMap[string, int]()
	m.Put("a", 1)
	m.Put("b", 2)
	full, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: update b, add c, delete a.
	m.Put("b", 22)
	m.Put("c", 3)
	m.Delete("a")
	delta, ok, err := m.Delta()
	if err != nil || !ok {
		t.Fatalf("Delta: %v ok=%v", err, ok)
	}
	if m.DirtyCount() != 0 {
		t.Error("Delta did not clear dirty set")
	}

	// Replica: restore full, then apply delta.
	r := NewMap[string, int]()
	if err := r.Restore(full); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("a"); ok {
		t.Error("delta did not delete a")
	}
	if v, _ := r.Get("b"); v != 22 {
		t.Errorf("b = %v, want 22", v)
	}
	if v, _ := r.Get("c"); v != 3 {
		t.Errorf("c = %v, want 3", v)
	}
}

// Property: full snapshot + any sequence of deltas equals the live map.
func TestMapQuickDeltaEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		live := NewMap[string, int]()
		replica := NewMap[string, int]()
		full, err := live.Snapshot()
		if err != nil {
			return false
		}
		if err := replica.Restore(full); err != nil {
			return false
		}
		keys := []string{"a", "b", "c", "d", "e"}
		for i, op := range ops {
			k := keys[int(op)%len(keys)]
			if op%3 == 0 {
				live.Delete(k)
			} else {
				live.Put(k, i)
			}
			if op%4 == 0 { // checkpoint boundary
				delta, ok, err := live.Delta()
				if err != nil || !ok {
					return false
				}
				if err := replica.ApplyDelta(delta); err != nil {
					return false
				}
			}
		}
		// Final delta to sync.
		delta, ok, err := live.Delta()
		if err != nil || !ok {
			return false
		}
		if err := replica.ApplyDelta(delta); err != nil {
			return false
		}
		if live.Len() != replica.Len() {
			return false
		}
		for _, k := range live.SortedKeys() {
			lv, _ := live.Get(k)
			rv, ok := replica.Get(k)
			if !ok || lv != rv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mapComp embeds a Map in an auto-captured struct (GobEncode path).
type mapComp struct {
	Words *Map[string, int]
	Seen  int
}

func TestMapGobInsideStruct(t *testing.T) {
	src := &mapComp{Words: NewMap[string, int](), Seen: 5}
	src.Words.Put("hello", 3)
	data, err := Capture(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := &mapComp{Words: NewMap[string, int]()}
	if err := Reinstate(dst, data); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.Words.Get("hello"); v != 3 || dst.Seen != 5 {
		t.Errorf("restored = %+v (hello=%v)", dst, v)
	}
	// GobEncode must not clear the dirty set; the full Capture around it
	// then starts a new delta epoch, which does.
	src.Words.Put("again", 1)
	if err := gob.NewEncoder(io.Discard).Encode(src); err != nil {
		t.Fatal(err)
	}
	if src.Words.DirtyCount() == 0 {
		t.Error("GobEncode cleared the dirty set")
	}
	if _, err := Capture(src); err != nil {
		t.Fatal(err)
	}
	if n := src.Words.DirtyCount(); n != 0 {
		t.Errorf("full Capture left %d dirty keys, want a new delta epoch", n)
	}
}

func TestCheckpointEncodeDecode(t *testing.T) {
	c := &Checkpoint{
		Engine: "e0",
		Seq:    7,
		Components: map[string]ComponentState{
			"merger": {
				Sched: sched.State{
					Clock: 123456,
					Inputs: map[msg.WireID]sched.InputState{
						2: {NextSeq: 10, LastVT: 120000},
					},
					Outputs: map[msg.WireID]sched.OutputState{
						4: {Seq: 9, LastSentVT: 125000},
					},
					Floor: vt.Never,
				},
				Kind:    HandlerFull,
				Handler: []byte("state"),
			},
		},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Engine != "e0" {
		t.Errorf("header = %+v", got)
	}
	cs := got.Components["merger"]
	if cs.Sched.Clock != 123456 || cs.Sched.Inputs[2].NextSeq != 10 {
		t.Errorf("sched state = %+v", cs.Sched)
	}
	if string(cs.Handler) != "state" {
		t.Errorf("handler state = %q", cs.Handler)
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestReplicaStoreLifecycle(t *testing.T) {
	r := NewReplicaStore()
	if r.Seq() != 0 || len(r.Components()) != 0 {
		t.Error("fresh store not empty")
	}

	m := NewMap[string, int]()
	m.Put("a", 1)
	full, _ := m.Snapshot()
	if err := r.Apply(&Checkpoint{Engine: "e", Seq: 1, Components: map[string]ComponentState{
		"c": {Kind: HandlerFull, Handler: full, Sched: sched.State{Clock: 100}},
	}}); err != nil {
		t.Fatal(err)
	}

	m.Put("b", 2)
	delta, _, _ := m.Delta()
	if err := r.Apply(&Checkpoint{Engine: "e", Seq: 2, Components: map[string]ComponentState{
		"c": {Kind: HandlerDelta, Handler: delta, Sched: sched.State{Clock: 200}},
	}}); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 2 {
		t.Errorf("Seq = %d", r.Seq())
	}

	// Stale checkpoint ignored.
	if err := r.Apply(&Checkpoint{Engine: "e", Seq: 1}); err != nil {
		t.Errorf("stale apply errored: %v", err)
	}
	if r.Seq() != 2 {
		t.Error("stale apply changed seq")
	}

	restored := NewMap[string, int]()
	schedState, estState, err := r.RestoreInto("c", restored)
	if err != nil {
		t.Fatal(err)
	}
	if schedState.Clock != 200 {
		t.Errorf("sched clock = %v", schedState.Clock)
	}
	if estState != nil {
		t.Error("unexpected estimator state")
	}
	if v, _ := restored.Get("a"); v != 1 {
		t.Error("full capture not restored")
	}
	if v, _ := restored.Get("b"); v != 2 {
		t.Error("delta not applied")
	}

	if _, _, err := r.RestoreInto("ghost", restored); err == nil {
		t.Error("unknown component restored")
	}
}

func TestReplicaStoreDeltaBeforeFullRejected(t *testing.T) {
	r := NewReplicaStore()
	err := r.Apply(&Checkpoint{Engine: "e", Seq: 1, Components: map[string]ComponentState{
		"c": {Kind: HandlerDelta, Handler: []byte("d")},
	}})
	if err == nil {
		t.Error("delta before full accepted")
	}
}

func TestReplicaStoreFullResetsDeltas(t *testing.T) {
	r := NewReplicaStore()
	m := NewMap[string, int]()
	m.Put("a", 1)
	full1, _ := m.Snapshot()
	mustApply(t, r, 1, "c", HandlerFull, full1)
	m.Put("b", 2)
	d, _, _ := m.Delta()
	mustApply(t, r, 2, "c", HandlerDelta, d)
	m.Put("c", 3)
	full2, _ := m.Snapshot()
	mustApply(t, r, 3, "c", HandlerFull, full2)

	restored := NewMap[string, int]()
	if _, _, err := r.RestoreInto("c", restored); err != nil {
		t.Fatal(err)
	}
	// full2 already contains everything; stale deltas must not re-apply.
	if restored.Len() != 3 {
		t.Errorf("restored Len = %d, want 3", restored.Len())
	}
}

func mustApply(t *testing.T, r *ReplicaStore, seq uint64, name string, kind HandlerKind, data []byte) {
	t.Helper()
	if err := r.Apply(&Checkpoint{Engine: "e", Seq: seq, Components: map[string]ComponentState{
		name: {Kind: kind, Handler: data},
	}}); err != nil {
		t.Fatal(err)
	}
}
