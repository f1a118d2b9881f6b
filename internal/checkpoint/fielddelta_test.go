package checkpoint

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// ledgerComp keeps its bulk state in a Map field, next to plain fields:
// the transparent field-delta path.
type ledgerComp struct {
	Table *Map[string, int]
	Total int
	Label string
	cache int // unexported: not state, never captured
}

// captureInto applies one engine-style capture of comp to r: full when
// full is set, otherwise whatever CaptureDelta produces.
func captureInto(t *testing.T, r *ReplicaStore, seq uint64, comp any, full bool) HandlerKind {
	t.Helper()
	cs := ComponentState{Kind: HandlerFull}
	var err error
	if full {
		cs.Handler, err = Capture(comp)
	} else {
		var isFull bool
		cs.Handler, isFull, err = CaptureDelta(comp)
		if !isFull {
			cs.Kind = HandlerDelta
		}
	}
	if err != nil {
		t.Fatalf("capture %d: %v", seq, err)
	}
	if err := r.Apply(&Checkpoint{Engine: "e", Seq: seq, Components: map[string]ComponentState{"c": cs}}); err != nil {
		t.Fatalf("apply %d: %v", seq, err)
	}
	return cs.Kind
}

// exported is live with its unexported state dropped: what a restore of a
// transparent capture reproduces.
func (c *ledgerComp) exported() *ledgerComp {
	cp := *c
	cp.cache = 0
	return &cp
}

func TestFieldDeltaRoundTrip(t *testing.T) {
	live := &ledgerComp{Table: NewMap[string, int](), Total: 1, Label: "start", cache: 7}
	for i, k := range []string{"a", "b", "c", "d"} {
		live.Table.Put(k, i)
	}
	r := NewReplicaStore()
	captureInto(t, r, 1, live, true)

	steps := []func(){
		func() { live.Table.Put("e", 5); live.Table.Put("a", 10); live.Total = 2 },
		func() { live.Table.Delete("b"); live.Label = "" }, // delete + scalar to zero value
		func() {}, // nothing changed
		func() { live.Table.Put("b", 20); live.Total = 0 }, // re-add a deleted key
		func() { live.Table.Delete("c"); live.Table.Delete("zzz"); live.Label = "end" },
	}
	for i, step := range steps {
		step()
		live.cache++
		if kind := captureInto(t, r, uint64(i+2), live, false); kind != HandlerDelta {
			t.Fatalf("step %d: capture kind %v, want a delta", i, kind)
		}
		fresh := &ledgerComp{}
		if _, _, err := r.RestoreInto("c", fresh); err != nil {
			t.Fatalf("step %d: restore: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, live.exported()) {
			t.Fatalf("step %d: restored %+v (table %v), live %+v (table %v)",
				i, fresh, fresh.Table.data, live, live.Table.data)
		}
	}
}

func TestFieldDeltaIsSmall(t *testing.T) {
	live := &ledgerComp{Table: NewMap[string, int]()}
	for i := 0; i < 1000; i++ {
		live.Table.Put(string(rune('a'+i%26))+string(rune('a'+i/26)), i)
	}
	full, err := Capture(live)
	if err != nil {
		t.Fatal(err)
	}
	live.Table.Put("aa", -1)
	delta, isFull, err := CaptureDelta(live)
	if err != nil || isFull {
		t.Fatalf("CaptureDelta: full=%v err=%v", isFull, err)
	}
	if len(delta)*10 > len(full) {
		t.Fatalf("delta of one key is %d bytes, full capture %d", len(delta), len(full))
	}
}

func TestFieldDeltaNilMapField(t *testing.T) {
	live := &ledgerComp{Total: 3}
	r := NewReplicaStore()
	captureInto(t, r, 1, live, true)
	live.Total = 4
	if kind := captureInto(t, r, 2, live, false); kind != HandlerDelta {
		t.Fatalf("nil map field: capture kind %v, want a delta", kind)
	}
	fresh := &ledgerComp{}
	if _, _, err := r.RestoreInto("c", fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, live) {
		t.Fatalf("restored %+v, live %+v", fresh, live)
	}

	// A freshly assigned map has no base in any earlier capture: the next
	// capture must be full, and deltas resume after it.
	live.Table = NewMap[string, int]()
	live.Table.Put("x", 1)
	if kind := captureInto(t, r, 3, live, false); kind != HandlerFull {
		t.Fatalf("fresh map: capture kind %v, want full", kind)
	}
	live.Table.Put("y", 2)
	if kind := captureInto(t, r, 4, live, false); kind != HandlerDelta {
		t.Fatalf("after full: capture kind %v, want a delta", kind)
	}
	// Dropping the map again is an ordinary delta.
	live.Table = nil
	if kind := captureInto(t, r, 5, live, false); kind != HandlerDelta {
		t.Fatalf("map dropped: capture kind %v, want a delta", kind)
	}
	fresh = &ledgerComp{}
	if _, _, err := r.RestoreInto("c", fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, live) {
		t.Fatalf("restored %+v, live %+v", fresh, live)
	}
}

// selfDelta implements DeltaSnapshotter itself; its exported Map field
// must not be captured behind its back.
type selfDelta struct {
	M      *Map[string, int]
	deltas int
}

func (s *selfDelta) Snapshot() ([]byte, error)    { return s.M.Snapshot() }
func (s *selfDelta) Restore(d []byte) error       { return s.M.Restore(d) }
func (s *selfDelta) Delta() ([]byte, bool, error) { s.deltas++; return s.M.Delta() }
func (s *selfDelta) ApplyDelta(d []byte) error    { return s.M.ApplyDelta(d) }

func TestFieldDeltaSelfSnapshotterUnchanged(t *testing.T) {
	live := &selfDelta{M: NewMap[string, int]()}
	live.M.Put("a", 1)
	r := NewReplicaStore()
	captureInto(t, r, 1, live, true)
	live.M.Put("b", 2)
	if kind := captureInto(t, r, 2, live, false); kind != HandlerDelta {
		t.Fatalf("capture kind %v, want a delta", kind)
	}
	if live.deltas != 1 {
		t.Fatalf("component's own Delta called %d times, want 1", live.deltas)
	}
	fresh := &selfDelta{M: NewMap[string, int]()}
	if _, _, err := r.RestoreInto("c", fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.M.data, live.M.data) {
		t.Fatalf("restored %v, live %v", fresh.M.data, live.M.data)
	}
}

func TestFieldDeltaFullCaptureStartsEpoch(t *testing.T) {
	live := &ledgerComp{Table: NewMap[string, int]()}
	for _, k := range []string{"a", "b", "c"} {
		live.Table.Put(k, 1)
	}
	if _, err := Capture(live); err != nil {
		t.Fatal(err)
	}
	if n := live.Table.DirtyCount(); n != 0 {
		t.Fatalf("dirty set after full capture: %d keys, want 0", n)
	}
	live.Table.Put("d", 4)
	delta, isFull, err := CaptureDelta(live)
	if err != nil || isFull {
		t.Fatalf("CaptureDelta: full=%v err=%v", isFull, err)
	}
	var fd fieldDelta
	if err := gob.NewDecoder(bytes.NewReader(delta)).Decode(&fd); err != nil {
		t.Fatal(err)
	}
	if len(fd.Fields) != 1 {
		t.Fatalf("field deltas: %d, want 1", len(fd.Fields))
	}
	entries, err := decodeEntries[string, int](fd.Fields[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "d" {
		t.Fatalf("delta after full capture holds %+v, want only key d", entries)
	}
}

// explicitVault owns its capture through Snapshotter, yet keeps an
// exported Map and unexported state: the field-delta path must leave it
// alone, since its Snapshot captures what gob cannot see.
type explicitVault struct {
	Index   *Map[string, int]
	secrets map[string]string
}

func (v *explicitVault) Snapshot() ([]byte, error) {
	idx, err := v.Index.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = gob.NewEncoder(&buf).Encode(struct {
		Index   []byte
		Secrets map[string]string
	}{idx, v.secrets})
	return buf.Bytes(), err
}

func (v *explicitVault) Restore(data []byte) error {
	var st struct {
		Index   []byte
		Secrets map[string]string
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	v.Index = NewMap[string, int]()
	v.secrets = st.Secrets
	return v.Index.Restore(st.Index)
}

func TestFieldDeltaSkipsSnapshotter(t *testing.T) {
	live := &explicitVault{Index: NewMap[string, int](), secrets: map[string]string{"k": "v"}}
	live.Index.Put("a", 1)
	r := NewReplicaStore()
	captureInto(t, r, 1, live, true)
	// The full capture put the Map in an epoch; a delta round must still
	// go through Snapshot, whole.
	live.Index.Put("b", 2)
	live.secrets["k2"] = "v2"
	if kind := captureInto(t, r, 2, live, false); kind != HandlerFull {
		t.Fatalf("capture kind %v, want full through Snapshot", kind)
	}
	if err := ApplyDelta(live, nil); err == nil {
		t.Fatal("ApplyDelta on a Snapshotter with a Map field: want an error")
	}
	fresh := &explicitVault{}
	if _, _, err := r.RestoreInto("c", fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Index.data, live.Index.data) || !reflect.DeepEqual(fresh.secrets, live.secrets) {
		t.Fatalf("restored %v/%v, live %v/%v", fresh.Index.data, fresh.secrets, live.Index.data, live.secrets)
	}
}

func TestMapDeltaNeedsEpoch(t *testing.T) {
	m := NewMap[string, int]()
	m.Put("a", 1)
	if _, ok, err := m.Delta(); ok || err != nil {
		t.Fatalf("Delta before any capture: ok=%v err=%v, want !ok", ok, err)
	}
	if n := m.DirtyCount(); n != 1 {
		t.Fatalf("refused Delta touched the dirty set: %d keys, want 1", n)
	}
}
