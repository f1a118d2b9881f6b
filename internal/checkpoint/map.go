package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
)

// Map is a checkpoint-aware hash map for large component state: it tracks
// the keys updated since the last checkpoint in an auxiliary set, so the
// engine can ship small deltas instead of the full table (paper §II.F.2).
// It also offers deterministic iteration (SortedKeys), which handler code
// must use instead of ranging over a built-in map when iteration order can
// influence outputs.
//
// Map is not safe for concurrent use; a component's handler runs
// single-threaded, so no synchronization is needed.
type Map[K ordered, V any] struct {
	data  map[K]V
	dirty map[K]bool // keys written or deleted since the last snapshot/delta
	// epoch is set once a full capture or restore exists that the dirty
	// set is relative to; a never-captured map cannot serve a field delta
	// (see CaptureDelta).
	epoch bool
}

// ordered covers the key types Map supports: anything with a total order
// usable by sort (needed for deterministic iteration and encoding).
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~string
}

// NewMap returns an empty incremental map.
func NewMap[K ordered, V any]() *Map[K, V] {
	return &Map[K, V]{
		data:  make(map[K]V),
		dirty: make(map[K]bool),
	}
}

// Get returns the value for key and whether it is present.
func (m *Map[K, V]) Get(key K) (V, bool) {
	v, ok := m.data[key]
	return v, ok
}

// Put stores a value and marks the key dirty.
func (m *Map[K, V]) Put(key K, value V) {
	m.data[key] = value
	m.dirty[key] = true
}

// Delete removes a key and marks it dirty.
func (m *Map[K, V]) Delete(key K) {
	if _, ok := m.data[key]; !ok {
		return
	}
	delete(m.data, key)
	m.dirty[key] = true
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return len(m.data) }

// SortedKeys returns all keys in ascending order — the deterministic
// iteration order components must use.
func (m *Map[K, V]) SortedKeys() []K {
	keys := make([]K, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// DirtyCount returns the number of keys changed since the last capture.
func (m *Map[K, V]) DirtyCount() int { return len(m.dirty) }

// entry is one key's state in an encoded snapshot or delta.
type entry[K ordered, V any] struct {
	Key     K
	Value   V
	Deleted bool
}

// Snapshot implements Snapshotter: it encodes the full table and clears
// the dirty set.
func (m *Map[K, V]) Snapshot() ([]byte, error) {
	entries := make([]entry[K, V], 0, len(m.data))
	for _, k := range m.SortedKeys() {
		entries = append(entries, entry[K, V]{Key: k, Value: m.data[k]})
	}
	data, err := encodeEntries(entries)
	if err != nil {
		return nil, err
	}
	m.startEpoch()
	return data, nil
}

// Restore implements Snapshotter.
func (m *Map[K, V]) Restore(data []byte) error {
	entries, err := decodeEntries[K, V](data)
	if err != nil {
		return err
	}
	m.data = make(map[K]V, len(entries))
	for _, e := range entries {
		if !e.Deleted {
			m.data[e.Key] = e.Value
		}
	}
	m.startEpoch()
	return nil
}

// Delta implements DeltaSnapshotter: it encodes only the dirty keys and
// clears the dirty set. ok is false when nothing has been captured yet
// (callers should take a full Snapshot first); an empty delta is valid.
func (m *Map[K, V]) Delta() ([]byte, bool, error) {
	if !m.epoch {
		return nil, false, nil
	}
	keys := make([]K, 0, len(m.dirty))
	for k := range m.dirty {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	entries := make([]entry[K, V], 0, len(keys))
	for _, k := range keys {
		v, ok := m.data[k]
		entries = append(entries, entry[K, V]{Key: k, Value: v, Deleted: !ok})
	}
	data, err := encodeEntries(entries)
	if err != nil {
		return nil, false, err
	}
	m.dirty = make(map[K]bool)
	return data, true, nil
}

// startEpoch makes the current contents the base of the next delta: a
// full capture holding them has been taken (or they were just restored).
func (m *Map[K, V]) startEpoch() {
	if len(m.dirty) > 0 || m.dirty == nil {
		m.dirty = make(map[K]bool)
	}
	m.epoch = true
}

// ApplyDelta implements DeltaSnapshotter.
func (m *Map[K, V]) ApplyDelta(data []byte) error {
	entries, err := decodeEntries[K, V](data)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Deleted {
			delete(m.data, e.Key)
		} else {
			m.data[e.Key] = e.Value
		}
	}
	return nil
}

// GobEncode lets a Map field inside a gob-auto-captured component struct
// serialize transparently. Unlike Snapshot it does not clear the dirty set
// (encoding must not mutate).
func (m *Map[K, V]) GobEncode() ([]byte, error) {
	entries := make([]entry[K, V], 0, len(m.data))
	for _, k := range m.SortedKeys() {
		entries = append(entries, entry[K, V]{Key: k, Value: m.data[k]})
	}
	return encodeEntries(entries)
}

// GobDecode restores a Map encoded by GobEncode.
func (m *Map[K, V]) GobDecode(data []byte) error {
	return m.Restore(data)
}

var (
	_ Snapshotter      = (*Map[string, int])(nil)
	_ DeltaSnapshotter = (*Map[string, int])(nil)
	_ gob.GobEncoder   = (*Map[string, int])(nil)
	_ gob.GobDecoder   = (*Map[string, int])(nil)
	_ epochTracker     = (*Map[string, int])(nil)
)

func encodeEntries[K ordered, V any](entries []entry[K, V]) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("checkpoint: encode map entries: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeEntries[K ordered, V any](data []byte) ([]entry[K, V], error) {
	var entries []entry[K, V]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("checkpoint: decode map entries: %w", err)
	}
	return entries, nil
}
