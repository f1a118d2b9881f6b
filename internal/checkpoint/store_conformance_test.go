package checkpoint

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

func init() { gob.Register("") }

// fullCheckpoint builds a standalone checkpoint (full handler capture for
// every component) the way a durable-store engine would.
func fullCheckpoint(seq uint64) *Checkpoint {
	return &Checkpoint{
		Engine: "e1",
		Seq:    seq,
		VT:     vt.Time(int64(seq) * 1000),
		Components: map[string]ComponentState{
			"counter": {
				Sched:   sched.State{Clock: vt.Time(int64(seq) * 1000)},
				Kind:    HandlerFull,
				Handler: []byte(fmt.Sprintf("state-%d", seq)),
			},
		},
		Buffers: map[msg.WireID][]msg.Envelope{
			0: {{Wire: 0, Kind: msg.KindData, Seq: seq, VT: vt.Time(int64(seq)), Payload: "p"}},
		},
	}
}

// deltaCheckpoint builds a delta checkpoint: it restores only on top of
// checkpoint seq-1.
func deltaCheckpoint(seq uint64) *Checkpoint {
	c := fullCheckpoint(seq)
	cs := c.Components["counter"]
	cs.Kind = HandlerDelta
	cs.Handler = []byte(fmt.Sprintf("delta-%d", seq))
	c.Components["counter"] = cs
	return c
}

// chainSeqs lists the sequence numbers of a chain.
func chainSeqs(chain []*Checkpoint) []uint64 {
	out := make([]uint64, 0, len(chain))
	for _, c := range chain {
		out = append(out, c.Seq)
	}
	return out
}

// checkChain fails unless chain is a well-formed restore point ending at
// tip: a full checkpoint, then deltas with consecutive sequence numbers.
// tip 0 means the empty chain.
func checkChain(t *testing.T, chain []*Checkpoint, tip uint64) {
	t.Helper()
	if tip == 0 {
		if len(chain) != 0 {
			t.Fatalf("chain %v, want empty", chainSeqs(chain))
		}
		return
	}
	if len(chain) == 0 || chain[len(chain)-1].Seq != tip {
		t.Fatalf("chain %v, want one ending at %d", chainSeqs(chain), tip)
	}
	if !chain[0].Full() {
		t.Fatalf("chain %v starts with a delta", chainSeqs(chain))
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].Full() || chain[i].Seq != chain[i-1].Seq+1 {
			t.Fatalf("chain %v: entry %d is not the delta after %d", chainSeqs(chain), chain[i].Seq, chain[i-1].Seq)
		}
	}
}

// storeConformance is the shared Store contract suite, run against every
// backend.
func storeConformance(t *testing.T, open func(t *testing.T) Store) {
	t.Run("EmptyStore", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if got := s.Seq(); got != 0 {
			t.Fatalf("empty store Seq = %d, want 0", got)
		}
		ck, err := latest(s)
		if err != nil || ck != nil {
			t.Fatalf("empty store Latest = %v, %v; want nil, nil", ck, err)
		}
	})
	t.Run("LatestTracksNewest", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		for seq := uint64(1); seq <= 4; seq++ {
			if err := s.Apply(fullCheckpoint(seq)); err != nil {
				t.Fatalf("apply %d: %v", seq, err)
			}
		}
		if got := s.Seq(); got != 4 {
			t.Fatalf("Seq = %d, want 4", got)
		}
		ck, err := latest(s)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Seq != 4 || ck.Engine != "e1" {
			t.Fatalf("Latest = seq %d engine %q, want 4 e1", ck.Seq, ck.Engine)
		}
		if got := string(ck.Components["counter"].Handler); got != "state-4" {
			t.Fatalf("handler state = %q, want state-4", got)
		}
		if got := len(ck.Buffers[0]); got != 1 {
			t.Fatalf("buffers lost: %d envelopes, want 1", got)
		}
	})
	t.Run("StaleAndDuplicateIgnored", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(fullCheckpoint(5)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(fullCheckpoint(5)); err != nil {
			t.Fatalf("duplicate apply: %v", err)
		}
		if err := s.Apply(fullCheckpoint(3)); err != nil {
			t.Fatalf("stale apply: %v", err)
		}
		ck, err := latest(s)
		if err != nil || ck.Seq != 5 {
			t.Fatalf("Latest after stale applies = %+v, %v; want seq 5", ck, err)
		}
	})
	t.Run("ClosedStoreRejectsApply", func(t *testing.T) {
		s := open(t)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(fullCheckpoint(1)); err == nil {
			t.Fatal("Apply after Close succeeded, want error")
		}
	})
	t.Run("ChainIsNewestFullPlusDeltas", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		steps := []struct {
			ck   *Checkpoint
			want []uint64
		}{
			{fullCheckpoint(1), []uint64{1}},
			{deltaCheckpoint(2), []uint64{1, 2}},
			{deltaCheckpoint(3), []uint64{1, 2, 3}},
			{fullCheckpoint(4), []uint64{4}},
			{deltaCheckpoint(5), []uint64{4, 5}},
		}
		for _, st := range steps {
			if err := s.Apply(st.ck); err != nil {
				t.Fatalf("apply %d: %v", st.ck.Seq, err)
			}
			chain, err := s.Chain()
			if err != nil {
				t.Fatal(err)
			}
			if got := chainSeqs(chain); !reflect.DeepEqual(got, st.want) {
				t.Fatalf("after %d: chain %v, want %v", st.ck.Seq, got, st.want)
			}
			checkChain(t, chain, st.ck.Seq)
		}
		if got := string(mustLatest(t, s).Components["counter"].Handler); got != "delta-5" {
			t.Fatalf("Latest handler = %q, want delta-5", got)
		}
		// A stale delta is ignored like any stale checkpoint.
		if err := s.Apply(deltaCheckpoint(3)); err != nil {
			t.Fatalf("stale delta: %v", err)
		}
		if s.Seq() != 5 {
			t.Fatalf("Seq after stale delta = %d, want 5", s.Seq())
		}
	})
	t.Run("DeltaWithoutBaseRejected", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(deltaCheckpoint(1)); err == nil {
			t.Fatal("delta into an empty store accepted")
		}
		if s.Seq() != 0 {
			t.Fatalf("Seq = %d after a rejected delta, want 0", s.Seq())
		}
	})
	t.Run("DeltaAfterHoleRejected", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(fullCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(deltaCheckpoint(3)); err == nil {
			t.Fatal("delta 3 after checkpoint 1 accepted")
		}
		chain, err := s.Chain()
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, chain, 1)
		// The engine answers a rejected delta with a full capture.
		if err := s.Apply(fullCheckpoint(4)); err != nil {
			t.Fatal(err)
		}
		chain, err = s.Chain()
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, chain, 4)
	})
	t.Run("ChainRestoresLiveState", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		live := &ledgerComp{Table: NewMap[string, int]()}
		warm := NewReplicaStore()
		for seq := uint64(1); seq <= 7; seq++ {
			live.Table.Put(fmt.Sprintf("k%d", seq%4), int(seq))
			live.Total += int(seq)
			ck := ledgerCheckpoint(t, seq, live, seq == 1 || seq == 5)
			if err := warm.Apply(ck); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(ck); err != nil {
				t.Fatal(err)
			}
		}
		chain, err := s.Chain()
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, chain, 7)
		cold := NewReplicaStore()
		for _, ck := range chain {
			if err := cold.Apply(ck); err != nil {
				t.Fatal(err)
			}
		}
		fromWarm, fromCold := &ledgerComp{}, &ledgerComp{}
		if _, _, err := warm.RestoreInto("ledger", fromWarm); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cold.RestoreInto("ledger", fromCold); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromCold, live) || !reflect.DeepEqual(fromWarm, live) {
			t.Fatalf("restored cold %+v / warm %+v, live %+v", fromCold.Table.data, fromWarm.Table.data, live.Table.data)
		}
	})
	t.Run("LatestIsIsolatedCopy", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if err := s.Apply(fullCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
		a, _ := latest(s)
		a.Components["counter"] = ComponentState{Handler: []byte("mutated")}
		b, err := latest(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b.Components["counter"].Handler); got != "state-1" {
			t.Fatalf("mutating a Latest result leaked into the store: %q", got)
		}
	})
}

// latest returns the newest checkpoint of a store's chain (nil when
// empty).
func latest(s Store) (*Checkpoint, error) {
	chain, err := s.Chain()
	if err != nil || len(chain) == 0 {
		return nil, err
	}
	return chain[len(chain)-1], nil
}

func mustLatest(t *testing.T, s Store) *Checkpoint {
	t.Helper()
	ck, err := latest(s)
	if err != nil || ck == nil {
		t.Fatalf("Latest = %v, %v", ck, err)
	}
	return ck
}

// ledgerCheckpoint captures live the way an engine does: full when full
// is set, otherwise a field delta.
func ledgerCheckpoint(t testing.TB, seq uint64, live *ledgerComp, full bool) *Checkpoint {
	t.Helper()
	cs := ComponentState{Kind: HandlerFull, Sched: sched.State{Clock: vt.Time(seq)}}
	var err error
	if full {
		cs.Handler, err = Capture(live)
	} else {
		var isFull bool
		if cs.Handler, isFull, err = CaptureDelta(live); !isFull {
			cs.Kind = HandlerDelta
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{Engine: "e1", Seq: seq, VT: vt.Time(seq),
		Components: map[string]ComponentState{"ledger": cs}}
}

func TestMemStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) Store { return NewMemStore() })
}

func TestFileStoreConformance(t *testing.T) {
	storeConformance(t, func(t *testing.T) Store {
		s, err := OpenFileStore(filepath.Join(t.TempDir(), "ckpts"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestFileStoreSurvivesReopen is the durability half of the contract:
// what Apply persisted, a new process (here: a new OpenFileStore) reads
// back, including the durable generation.
func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.Apply(fullCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetGeneration(3); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Seq(); got != 5 {
		t.Fatalf("reopened Seq = %d, want 5", got)
	}
	if got := r.Generation(); got != 3 {
		t.Fatalf("reopened Generation = %d, want 3", got)
	}
	ck, err := latest(r)
	if err != nil || ck == nil || ck.Seq != 5 {
		t.Fatalf("reopened Latest = %+v, %v; want seq 5", ck, err)
	}
	if got := string(ck.Components["counter"].Handler); got != "state-5" {
		t.Fatalf("reopened handler state = %q", got)
	}
}

// TestFileStoreRetainsBounded checks old checkpoint files are pruned once
// the manifest stops referencing them.
func TestFileStoreRetainsBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		if err := s.Apply(fullCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".bin" {
			files++
		}
	}
	if files != retainCheckpoints {
		t.Fatalf("retained %d checkpoint files, want %d", files, retainCheckpoints)
	}
}

// TestFileStoreTornWriteFallsBack injects a torn newest checkpoint (the
// manifest landed, the data didn't — or rotted afterwards) and checks a
// reopen falls back to the previous manifest entry instead of failing or
// serving garbage.
func TestFileStoreTornWriteFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Apply(fullCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the newest checkpoint file: truncate it mid-content.
	newest := filepath.Join(dir, "ckpt-0000000000000003.bin")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("open with torn newest: %v", err)
	}
	defer r.Close()
	if got := r.TornFallbacks(); got != 1 {
		t.Fatalf("TornFallbacks = %d, want 1", got)
	}
	if got := r.Seq(); got != 2 {
		t.Fatalf("fell back to Seq %d, want 2", got)
	}
	ck, err := latest(r)
	if err != nil || ck == nil || ck.Seq != 2 {
		t.Fatalf("Latest after fallback = %+v, %v; want seq 2", ck, err)
	}
	if got := string(ck.Components["counter"].Handler); got != "state-2" {
		t.Fatalf("fallback handler state = %q, want state-2", got)
	}
	// The fallback is durable: a further reopen sees a clean store.
	r.Close()
	r2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.TornFallbacks(); got != 0 {
		t.Fatalf("second reopen TornFallbacks = %d, want 0", got)
	}
	if got := r2.Seq(); got != 2 {
		t.Fatalf("second reopen Seq = %d, want 2", got)
	}
}

// TestFileStoreCorruptManifestIsAnError: an unreadable manifest is not
// silently treated as an empty store — that would discard recoverable
// state.
func TestFileStoreCorruptManifestIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Apply(fullCheckpoint(1))
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err == nil {
		t.Fatal("OpenFileStore with corrupt manifest succeeded, want error")
	}
}
