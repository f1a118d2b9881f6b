package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/estimator"
	"repro/internal/msg"
	"repro/internal/sched"
	"repro/internal/vt"
)

// HandlerKind discriminates full vs incremental handler-state captures.
type HandlerKind int8

// Handler-state capture kinds.
const (
	HandlerFull HandlerKind = iota + 1
	HandlerDelta
)

// ComponentState is one component's contribution to an engine checkpoint:
// the scheduler's deterministic cursors, the handler's state (full or
// delta), and the calibrated-estimator fault history if any.
type ComponentState struct {
	Sched     sched.State
	Kind      HandlerKind
	Handler   []byte
	Estimator *estimator.State
}

// Checkpoint is one soft checkpoint of an engine: a capture of every
// hosted component, the engine's replay buffers, and a monotonically
// increasing sequence number. Buffers must be captured after the component
// states (they only grow, so a later buffer capture can only contain more
// than the component states reference — extras deduplicate on replay).
type Checkpoint struct {
	Engine string
	Seq    uint64
	// VT is the newest component clock captured in this checkpoint — the
	// virtual time the checkpoint "is at". A rewind to any target VT >= VT
	// can start here and replay at most the inputs logged after it.
	VT         vt.Time
	Components map[string]ComponentState
	Buffers    map[msg.WireID][]msg.Envelope
}

// Full reports whether the checkpoint restores standalone: every component
// carries a full handler capture. Anything else is a delta, which restores
// only on top of the checkpoint directly before it.
func (c *Checkpoint) Full() bool {
	for _, cs := range c.Components {
		if cs.Kind != HandlerFull {
			return false
		}
	}
	return true
}

// chainFollows checks that a delta with sequence number seq may extend a
// chain whose newest checkpoint is last (0: none yet).
func chainFollows(seq, last uint64) error {
	if last == 0 {
		return fmt.Errorf("checkpoint: delta %d with no full checkpoint to extend", seq)
	}
	if seq != last+1 {
		return fmt.Errorf("checkpoint: delta %d does not follow checkpoint %d", seq, last)
	}
	return nil
}

// Encode serializes the checkpoint for transmission to a replica or
// storage on a stable device.
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a checkpoint produced by Encode.
func Decode(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &c, nil
}

// ReplicaStore is the passive replica's checkpoint memory: it holds, per
// component, the latest full handler capture plus any deltas since, along
// with the latest scheduler and estimator state. It performs no
// computation — exactly the paper's passive replica, which "only holds the
// state" (§II.F.2).
//
// ReplicaStore is safe for concurrent use.
type ReplicaStore struct {
	mu      sync.Mutex
	seq     uint64
	comps   map[string]*replicaComp
	buffers map[msg.WireID][]msg.Envelope
}

type replicaComp struct {
	sched  sched.State
	est    *estimator.State
	full   []byte
	deltas [][]byte
	have   bool
}

// NewReplicaStore returns an empty store.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{comps: make(map[string]*replicaComp)}
}

// Apply ingests one checkpoint. Checkpoints must arrive in order (the
// transport between active engine and replica is FIFO); stale or repeated
// sequence numbers are ignored, and a delta arriving before any full
// capture, or after a gap in the sequence, is rejected.
func (r *ReplicaStore) Apply(c *Checkpoint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.Seq <= r.seq && r.seq != 0 {
		return nil // duplicate or stale; idempotent
	}
	if !c.Full() {
		if err := chainFollows(c.Seq, r.seq); err != nil {
			return err
		}
	}
	for name, cs := range c.Components {
		rc, ok := r.comps[name]
		if !ok {
			rc = &replicaComp{}
			r.comps[name] = rc
		}
		switch cs.Kind {
		case HandlerFull:
			rc.full = cs.Handler
			rc.deltas = nil
			rc.have = true
		case HandlerDelta:
			if !rc.have {
				return fmt.Errorf("checkpoint: delta for %q before any full capture", name)
			}
			rc.deltas = append(rc.deltas, cs.Handler)
		default:
			return fmt.Errorf("checkpoint: unknown handler kind %d for %q", cs.Kind, name)
		}
		rc.sched = cs.Sched
		rc.est = cs.Estimator
	}
	r.buffers = c.Buffers
	r.seq = c.Seq
	return nil
}

// Buffers returns the replay buffers of the latest checkpoint.
func (r *ReplicaStore) Buffers() map[msg.WireID][]msg.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[msg.WireID][]msg.Envelope, len(r.buffers))
	for w, buf := range r.buffers {
		out[w] = append([]msg.Envelope(nil), buf...)
	}
	return out
}

// Seq returns the sequence number of the latest applied checkpoint (0 if
// none).
func (r *ReplicaStore) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Components returns the names of components with stored state.
func (r *ReplicaStore) Components() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.comps))
	for name := range r.comps {
		out = append(out, name)
	}
	return out
}

// RestoreInto reinstates the stored state of one component: the handler's
// full capture plus all deltas, in order. It returns the scheduler state
// and estimator state to install, or an error if the component is unknown.
func (r *ReplicaStore) RestoreInto(name string, handler any) (sched.State, *estimator.State, error) {
	r.mu.Lock()
	rc, ok := r.comps[name]
	if !ok {
		r.mu.Unlock()
		return sched.State{}, nil, fmt.Errorf("checkpoint: no stored state for component %q", name)
	}
	full := rc.full
	deltas := make([][]byte, len(rc.deltas))
	copy(deltas, rc.deltas)
	schedState, estState := rc.sched, rc.est
	r.mu.Unlock()

	if err := Reinstate(handler, full); err != nil {
		return sched.State{}, nil, err
	}
	for _, d := range deltas {
		if err := ApplyDelta(handler, d); err != nil {
			return sched.State{}, nil, err
		}
	}
	return schedState, estState, nil
}
