package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/vt"
)

// storeCastagnoli guards checkpoint files against torn or bit-rotted
// content: the manifest records each file's CRC32-C, and open-time
// validation falls back past any entry whose bytes no longer match.
var storeCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// retainCheckpoints is how many restore points (manifest entries) a
// FileStore keeps, plus the full checkpoint the oldest of them depends on.
// More than one, so a torn newest write can fall back to a predecessor.
// The engine's full-capture cadence bounds each chain, so this also bounds
// the files kept.
const retainCheckpoints = 3

// manifestName is the atomically rewritten index of a FileStore directory.
const manifestName = "MANIFEST"

// manifestEntry describes one durable checkpoint file.
type manifestEntry struct {
	Seq  uint64 `json:"seq"`
	File string `json:"file"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
	// Delta marks a checkpoint that restores only on top of the entry
	// directly before it (absent: a full checkpoint).
	Delta bool `json:"delta,omitempty"`
}

// manifest is the FileStore's on-disk index: the engine's durable
// generation, the source clock floor, and the retained checkpoints,
// oldest first.
type manifest struct {
	Generation uint64          `json:"generation"`
	ClockFloor vt.Time         `json:"clock_floor,omitempty"`
	Entries    []manifestEntry `json:"entries"`
}

// checkpointFile is the file name of checkpoint seq.
func checkpointFile(seq uint64) string { return fmt.Sprintf("ckpt-%016d.bin", seq) }

// FileStore is a durable Store: each checkpoint is written to its own
// file under dir with a temp-write + fsync + rename discipline, then
// recorded in an atomically rewritten manifest. A crash at any point
// leaves either the old manifest (new checkpoint invisible, predecessor
// intact) or the new one (new checkpoint fully durable).
//
// The manifest holds bounded delta chains: each entry records whether its
// checkpoint is full, and Chain returns the newest full checkpoint plus
// the deltas after it. Open validates every retained file against its
// recorded size and CRC; a torn or corrupted file cuts its chain there,
// and the store falls back to the newest restore point whose whole chain
// is intact — never to a chain with a hole.
//
// The manifest also carries the engine's durable generation — the fencing
// token a cold restart bumps and persists before rejoining, so a zombie
// of the pre-crash incarnation is rejected by peers even across OS
// processes — and the source clock floor (see SetClockFloor).
type FileStore struct {
	mu       sync.Mutex
	dir      string
	man      manifest
	closed   bool
	fellBack int

	onWrite func(bytes int64)
	onFsync func()
}

var _ Store = (*FileStore)(nil)

// OpenFileStore opens (creating if needed) the durable checkpoint store
// rooted at dir and validates every retained checkpoint. An entry is
// restorable when its file is intact and it is either full or the direct
// successor of a restorable entry. The store keeps the newest restorable
// entry and the unbroken run of restorable entries before it; everything
// else is discarded — the torn-write fallback.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store %s: %w", dir, err)
	}
	s := &FileStore{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return nil, fmt.Errorf("checkpoint: decode manifest %s: %w", dir, err)
	}
	entries := s.man.Entries
	restorable := make([]bool, len(entries))
	for i, e := range entries {
		ok := e.File == checkpointFile(e.Seq) && (i == 0 || e.Seq > entries[i-1].Seq)
		if e.Delta {
			ok = ok && i > 0 && restorable[i-1] && e.Seq == entries[i-1].Seq+1
		}
		restorable[i] = ok && s.validate(e)
	}
	last := len(entries) - 1
	for last >= 0 && !restorable[last] {
		last--
	}
	first := last
	for first > 0 && restorable[first-1] {
		first--
	}
	var kept []manifestEntry
	if last >= 0 {
		kept = entries[first : last+1]
	}
	if s.fellBack = len(entries) - len(kept); s.fellBack > 0 {
		s.man.Entries = append([]manifestEntry(nil), kept...)
		if err := s.writeManifestLocked(); err != nil {
			return nil, err
		}
		// Dropped files are unreferenced once the manifest rename landed;
		// remove them best-effort (never one a kept entry still names).
		keep := make(map[string]bool, len(kept))
		for _, e := range kept {
			keep[e.File] = true
		}
		for _, e := range entries {
			if !keep[e.File] && e.File == checkpointFile(e.Seq) {
				_ = os.Remove(filepath.Join(dir, e.File))
			}
		}
	}
	return s, nil
}

// validate checks one manifest entry's file against its recorded size and
// CRC.
func (s *FileStore) validate(e manifestEntry) bool {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil || int64(len(data)) != e.Size {
		return false
	}
	return crc32.Checksum(data, storeCastagnoli) == e.CRC
}

// TornFallbacks reports how many manifest entries the last Open discarded
// as torn or corrupt (0 for a clean store).
func (s *FileStore) TornFallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fellBack
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// SetObserver installs write/fsync accounting hooks (both optional); the
// cluster routes them into the engine's metric registry.
func (s *FileStore) SetObserver(onWrite func(bytes int64), onFsync func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onWrite = onWrite
	s.onFsync = onFsync
}

// Apply implements Store: encode, temp-write, fsync, rename, fsync the
// directory, then durably record the new entry in the manifest. Only
// after the manifest rename is the checkpoint visible to a restart. A
// delta must directly follow the newest entry.
func (s *FileStore) Apply(c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	n := len(s.man.Entries)
	if n > 0 && c.Seq <= s.man.Entries[n-1].Seq {
		return nil // duplicate or stale; idempotent
	}
	delta := !c.Full()
	if delta {
		var last uint64
		if n > 0 {
			last = s.man.Entries[n-1].Seq
		}
		if err := chainFollows(c.Seq, last); err != nil {
			return err
		}
	}
	name := checkpointFile(c.Seq)
	if err := s.writeFileAtomic(name, data, true); err != nil {
		return fmt.Errorf("checkpoint: persist seq %d: %w", c.Seq, err)
	}
	s.man.Entries = append(s.man.Entries, manifestEntry{
		Seq: c.Seq, File: name, Size: int64(len(data)),
		CRC:   crc32.Checksum(data, storeCastagnoli),
		Delta: delta,
	})
	evicted := s.retainLocked()
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	// Old files are unreferenced once the manifest rename landed; their
	// removal needs no durability ceremony.
	for _, e := range evicted {
		_ = os.Remove(filepath.Join(s.dir, e.File))
	}
	if s.onWrite != nil {
		s.onWrite(int64(len(data)))
	}
	return nil
}

// retainLocked drops entries older than the newest retainCheckpoints
// restore points, except the full checkpoint (and deltas) the oldest
// retained one depends on. It returns the dropped entries.
func (s *FileStore) retainLocked() []manifestEntry {
	cut := len(s.man.Entries) - retainCheckpoints
	if cut <= 0 {
		return nil
	}
	for cut > 0 && s.man.Entries[cut].Delta {
		cut--
	}
	evicted := append([]manifestEntry(nil), s.man.Entries[:cut]...)
	s.man.Entries = append([]manifestEntry(nil), s.man.Entries[cut:]...)
	return evicted
}

// Chain implements Store.
func (s *FileStore) Chain() ([]*Checkpoint, error) {
	s.mu.Lock()
	base := len(s.man.Entries) - 1
	for base > 0 && s.man.Entries[base].Delta {
		base--
	}
	var entries []manifestEntry
	if base >= 0 {
		entries = append(entries, s.man.Entries[base:]...)
	}
	s.mu.Unlock()
	out := make([]*Checkpoint, 0, len(entries))
	for _, e := range entries {
		c, err := s.read(e)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// read loads and decodes one checkpoint file, checking its CRC.
func (s *FileStore) read(e manifestEntry) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", e.File, err)
	}
	if crc32.Checksum(data, storeCastagnoli) != e.CRC {
		return nil, fmt.Errorf("checkpoint: %s failed CRC validation", e.File)
	}
	return Decode(data)
}

// Seq implements Store.
func (s *FileStore) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.man.Entries); n > 0 {
		return s.man.Entries[n-1].Seq
	}
	return 0
}

// Generation returns the durable generation recorded in the manifest
// (0 before the first SetGeneration).
func (s *FileStore) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Generation
}

// SetGeneration durably records the engine incarnation's fencing token.
// A cold restart bumps and persists the generation *before* rejoining its
// peers, so the ordering "durable, then visible" holds for fencing the
// same way it does for checkpoints.
func (s *FileStore) SetGeneration(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.man.Generation = gen
	return s.writeManifestLocked()
}

// ClockFloor returns the durable source clock floor (0 before the first
// SetClockFloor).
func (s *FileStore) ClockFloor() vt.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.ClockFloor
}

// SetClockFloor durably records a virtual time at or above every silence
// promise an engine's real-time sources have made or will make before
// raising it again. A cold restart resumes the source clock from the
// floor, so no new input is stamped inside silence the previous
// incarnation already promised.
func (s *FileStore) SetClockFloor(t vt.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if t <= s.man.ClockFloor {
		return nil
	}
	s.man.ClockFloor = t
	// Not a checkpoint: its fsyncs stay out of the checkpoint accounting.
	return s.persistManifestLocked(false)
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// writeManifestLocked atomically replaces the manifest.
func (s *FileStore) writeManifestLocked() error { return s.persistManifestLocked(true) }

// persistManifestLocked atomically replaces the manifest; counted says
// whether its fsyncs reach the fsync observer.
func (s *FileStore) persistManifestLocked(counted bool) error {
	data, err := json.Marshal(&s.man)
	if err != nil {
		return fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	if err := s.writeFileAtomic(manifestName, data, counted); err != nil {
		return fmt.Errorf("checkpoint: persist manifest: %w", err)
	}
	return nil
}

// writeFileAtomic writes name under the store directory with the full
// durability ceremony: temp file, fsync, rename over the target, fsync
// the directory so the rename itself survives power loss. counted says
// whether the fsyncs are reported to the fsync observer.
func (s *FileStore) writeFileAtomic(name string, data []byte, counted bool) error {
	tmpPath := filepath.Join(s.dir, name+".tmp")
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	if counted {
		s.noteFsync()
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		if d.Sync() == nil && counted {
			s.noteFsync()
		}
		d.Close()
	}
	return nil
}

func (s *FileStore) noteFsync() {
	if s.onFsync != nil {
		s.onFsync()
	}
}
