package checkpoint

import (
	"errors"
	"sync"
)

// Store is a durable checkpoint backend: it accepts checkpoints the way a
// passive replica does (Apply is engine.Backup-compatible) and can hand
// them back after an arbitrary amount of time — including in a different
// OS process. Like ReplicaStore it takes delta checkpoints: a store keeps
// bounded delta chains, each starting at a full checkpoint (Checkpoint.Full),
// and Chain returns the newest one, which a ReplicaStore restores by
// applying it in order. A delta must directly follow the store's newest
// checkpoint; one that would leave a hole in the chain is rejected, and
// the engine answers with a full capture.
//
// Implementations must be safe for concurrent use.
type Store interface {
	// Apply persists one checkpoint. Stale or duplicate sequence numbers
	// are ignored (idempotent), matching ReplicaStore semantics.
	Apply(c *Checkpoint) error
	// Chain returns the newest restore point: the newest full checkpoint
	// followed by every delta after it, oldest first, or nil when the
	// store is empty.
	Chain() ([]*Checkpoint, error)
	// Seq returns the sequence number of the newest persisted checkpoint
	// (0 when empty).
	Seq() uint64
	// Close releases resources. Applying after Close is an error.
	Close() error
}

// ErrStoreClosed reports operations against a closed Store.
var ErrStoreClosed = errors.New("checkpoint: store closed")

// MemStore is an in-memory Store: the newest chain, kept as encoded bytes
// so Chain hands back isolated copies exactly like a durable backend
// would. It is the conformance reference for FileStore and the
// backend of choice for tests that need Store semantics without a disk.
type MemStore struct {
	mu     sync.Mutex
	seq    uint64
	chain  [][]byte // the newest full checkpoint, then its deltas
	closed bool
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Apply implements Store.
func (m *MemStore) Apply(c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if c.Seq <= m.seq && m.seq != 0 {
		return nil // duplicate or stale; idempotent
	}
	if c.Full() {
		m.chain = [][]byte{data}
	} else {
		if err := chainFollows(c.Seq, m.seq); err != nil {
			return err
		}
		m.chain = append(m.chain, data)
	}
	m.seq = c.Seq
	return nil
}

// Chain implements Store.
func (m *MemStore) Chain() ([]*Checkpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Checkpoint
	for _, data := range m.chain {
		c, err := Decode(data)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Seq implements Store.
func (m *MemStore) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
