package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// chainStore applies one checkpoint per kind ('F' full, 'D' delta) of a
// live Map-backed component to a FileStore in dir, and returns the
// component state after each sequence number.
func chainStore(t testing.TB, dir, kinds string) map[uint64]map[string]int {
	t.Helper()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := &ledgerComp{Table: NewMap[string, int]()}
	states := make(map[uint64]map[string]int)
	for i, k := range kinds {
		seq := uint64(i + 1)
		live.Table.Put(fmt.Sprintf("k%d", i%3), i)
		live.Table.Put(fmt.Sprintf("n%d", i), i)
		ck := ledgerCheckpoint(t, seq, live, k == 'F')
		if ck.Full() != (k == 'F') {
			t.Fatalf("checkpoint %d: full=%v, want kind %c", seq, ck.Full(), k)
		}
		if err := s.Apply(ck); err != nil {
			t.Fatalf("apply %d: %v", seq, err)
		}
		states[seq] = make(map[string]int, live.Table.Len())
		for k, v := range live.Table.data {
			states[seq][k] = v
		}
	}
	return states
}

func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// copyDir copies the regular files of src into a new directory.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// restoreChain restores the ledger component from a store's chain.
func restoreChain(t *testing.T, s *FileStore) map[string]int {
	t.Helper()
	chain, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicaStore()
	for _, ck := range chain {
		if err := r.Apply(ck); err != nil {
			t.Fatal(err)
		}
	}
	got := &ledgerComp{}
	if _, _, err := r.RestoreInto("ledger", got); err != nil {
		t.Fatal(err)
	}
	return got.Table.data
}

// TestFileStoreChainCrashConsistency damages every checkpoint file of a
// retained chain in turn — truncated, bit-flipped, or missing — and checks
// a reopen falls back to the newest restore point whose whole chain is
// intact, restoring exactly the state captured there. It never serves a
// chain with a hole.
func TestFileStoreChainCrashConsistency(t *testing.T) {
	damages := map[string]func(path string) error{
		"truncated": func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		},
		"bitflip": func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		},
		"missing": os.Remove,
	}
	// F1 D2 D3 F4 D5 keeps an older chain (the oldest of the 3 newest
	// restore points is D3, whose base is F1); F1 D2 D3 D4 is one chain.
	for _, kinds := range []string{"FDDFD", "FDDD"} {
		src := filepath.Join(t.TempDir(), "src")
		states := chainStore(t, src, kinds)
		entries := readManifest(t, src).Entries
		if len(entries) != len(kinds) {
			t.Fatalf("%s: retained %d entries, want all %d", kinds, len(entries), len(kinds))
		}
		for victim := range entries {
			for name, damage := range damages {
				t.Run(fmt.Sprintf("%s/seq%d/%s", kinds, entries[victim].Seq, name), func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "ckpts")
					copyDir(t, src, dir)
					if err := damage(filepath.Join(dir, entries[victim].File)); err != nil {
						t.Fatal(err)
					}
					// The expected restore point: the newest entry whose
					// chain back to its full base avoids the victim.
					var tip uint64
					for i := len(entries) - 1; i >= 0 && tip == 0; i-- {
						base := i
						for base > 0 && entries[base].Delta {
							base--
						}
						if victim < base || victim > i {
							tip = entries[i].Seq
						}
					}
					s, err := OpenFileStore(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if s.TornFallbacks() == 0 {
						t.Error("damage went unnoticed: TornFallbacks = 0")
					}
					chain, err := s.Chain()
					if err != nil {
						t.Fatal(err)
					}
					checkChain(t, chain, tip)
					if tip == 0 {
						return
					}
					if got := restoreChain(t, s); !reflect.DeepEqual(got, states[tip]) {
						t.Fatalf("restored %v, want the state at %d: %v", got, tip, states[tip])
					}
					// The fallback is durable and leaves a store that takes
					// new checkpoints: a full one always, a delta on its tip.
					if err := s.Apply(deltaCheckpoint(tip + 1)); err != nil {
						t.Fatalf("delta on the fallen-back tip: %v", err)
					}
					s.Close()
					r, err := OpenFileStore(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					if r.TornFallbacks() != 0 || r.Seq() != tip+1 {
						t.Fatalf("reopen after fallback: TornFallbacks %d, Seq %d; want 0, %d", r.TornFallbacks(), r.Seq(), tip+1)
					}
				})
			}
		}
	}
}

// TestFileStoreDamagedManifest: a manifest that no longer parses is an
// error, never an empty store; one whose entry no longer matches its file
// cuts the chain there.
func TestFileStoreDamagedManifest(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	chainStore(t, src, "FDDD")

	dir := filepath.Join(t.TempDir(), "truncated")
	copyDir(t, src, dir)
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err == nil {
		t.Fatal("OpenFileStore with a truncated manifest succeeded, want error")
	}

	dir = filepath.Join(t.TempDir(), "wrongcrc")
	copyDir(t, src, dir)
	m := readManifest(t, dir)
	m.Entries[2].CRC ^= 1
	data, err = json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chain, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, chain, 2)
}

// TestFileStoreInterruptedApply: a crash inside Apply before the manifest
// rename leaves a checkpoint file (or temp files) the manifest does not
// name. The store ignores them, and the next Apply of that sequence
// number replaces them.
func TestFileStoreInterruptedApply(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	chainStore(t, dir, "FD")
	for name, data := range map[string]string{
		checkpointFile(3):          "half a checkpoint",
		checkpointFile(3) + ".tmp": "torn temp",
		manifestName + ".tmp":      `{"generation":9,"entr`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.TornFallbacks() != 0 || s.Seq() != 2 {
		t.Fatalf("TornFallbacks %d, Seq %d; want 0, 2", s.TornFallbacks(), s.Seq())
	}
	if err := s.Apply(deltaCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	chain, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, chain, 3)
}

// TestFileStoreRetentionKeepsBases applies long runs of chains and checks
// after every Apply that the store holds at least the newest
// retainCheckpoints restore points, every one of them restorable (its full
// base retained), and no unreferenced checkpoint file.
func TestFileStoreRetentionKeepsBases(t *testing.T) {
	for _, every := range []int{1, 2, 4, 10} {
		t.Run(fmt.Sprintf("full-every-%d", every), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpts")
			s, err := OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for seq := uint64(1); seq <= 40; seq++ {
				ck := deltaCheckpoint(seq)
				if int(seq-1)%every == 0 {
					ck = fullCheckpoint(seq)
				}
				if err := s.Apply(ck); err != nil {
					t.Fatal(err)
				}
				entries := readManifest(t, dir).Entries
				if entries[0].Delta {
					t.Fatalf("after %d: oldest retained entry %d is a delta without its base", seq, entries[0].Seq)
				}
				for i := 1; i < len(entries); i++ {
					if entries[i].Delta && entries[i].Seq != entries[i-1].Seq+1 {
						t.Fatalf("after %d: delta %d does not follow %d", seq, entries[i].Seq, entries[i-1].Seq)
					}
				}
				want := min(int(seq), retainCheckpoints)
				if len(entries) < want || entries[len(entries)-want].Seq != seq-uint64(want)+1 {
					t.Fatalf("after %d: retained %d entries, want the newest %d restore points", seq, len(entries), want)
				}
				if most := retainCheckpoints + every - 1; len(entries) > most {
					t.Fatalf("after %d: retained %d entries, more than %d", seq, len(entries), most)
				}
				files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
				if err != nil {
					t.Fatal(err)
				}
				if len(files) != len(entries) {
					t.Fatalf("after %d: %d checkpoint files for %d manifest entries", seq, len(files), len(entries))
				}
			}
		})
	}
}

// FuzzOpenFileStore drives arbitrary manifest bytes over a directory of
// real checkpoint files. Opening may fail, but a store that opens must
// serve a well-formed chain, and its fallback must be durable.
func FuzzOpenFileStore(f *testing.F) {
	src := filepath.Join(f.TempDir(), "src")
	chainStore(f, src, "FDDFD")
	data, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"generation":1,"entries":[]}`))
	f.Add([]byte(`{"entries":[{"seq":2,"file":"ckpt-0000000000000002.bin","size":1,"crc":0,"delta":true}]}`))
	f.Add([]byte(`{"entries":[{"seq":1,"file":"../MANIFEST","size":1,"crc":0}]}`))
	f.Fuzz(func(t *testing.T, manifestBytes []byte) {
		dir := filepath.Join(t.TempDir(), "ckpts")
		copyDir(t, src, dir)
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir)
		if err != nil {
			return
		}
		chain, err := s.Chain()
		if err != nil {
			t.Fatalf("opened store cannot read its chain: %v", err)
		}
		checkChain(t, chain, s.Seq())
		s.Close()
		r, err := OpenFileStore(dir)
		if err != nil {
			t.Fatalf("reopen after a successful open: %v", err)
		}
		defer r.Close()
		if r.TornFallbacks() != 0 || r.Seq() != s.Seq() {
			t.Fatalf("reopen: TornFallbacks %d, Seq %d; want 0, %d", r.TornFallbacks(), r.Seq(), s.Seq())
		}
	})
}

// TestFileStoreClockFloorNotCountedAsCheckpoint: the clock floor rides in
// the manifest but is no checkpoint, so its fsyncs stay out of the
// checkpoint accounting while still surviving a reopen.
func TestFileStoreClockFloorNotCountedAsCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var writes, fsyncs int
	s.SetObserver(func(int64) { writes++ }, func() { fsyncs++ })
	if err := s.SetClockFloor(42); err != nil {
		t.Fatal(err)
	}
	if writes != 0 || fsyncs != 0 {
		t.Fatalf("SetClockFloor counted %d writes, %d fsyncs; want none", writes, fsyncs)
	}
	if err := s.Apply(fullCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if fsyncs == 0 {
		t.Fatal("Apply counted no fsyncs")
	}
	s.Close()
	if s, err = OpenFileStore(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ClockFloor(); got != 42 {
		t.Fatalf("reopened clock floor %v, want 42", got)
	}
}
