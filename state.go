package tart

import "repro/internal/checkpoint"

// StateMap is a checkpoint-aware map for large component state: it tracks
// dirty keys so engine checkpoints ship small deltas between full
// snapshots (the paper's incremental checkpointing, §II.F.2). Holding one
// in an exported field of a component struct is enough; the rest of the
// struct is still captured transparently. Keep the field's pointer: a
// freshly assigned map makes the next checkpoint a full one. A component
// that implements Snapshotter owns its whole capture, StateMap fields
// included. StateMap also offers deterministic iteration via SortedKeys — which handlers must use instead
// of ranging over a built-in map whenever iteration order can influence
// outputs.
type StateMap[K StateKey, V any] = checkpoint.Map[K, V]

// StateKey constrains StateMap keys to totally ordered types.
type StateKey = interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~string
}

// NewStateMap returns an empty incremental map.
func NewStateMap[K StateKey, V any]() *StateMap[K, V] {
	return checkpoint.NewMap[K, V]()
}

// Snapshotter lets a component take explicit control of its checkpoint
// serialization instead of the default transparent (gob) capture.
type Snapshotter = checkpoint.Snapshotter

// DeltaSnapshotter adds incremental checkpointing to a Snapshotter.
type DeltaSnapshotter = checkpoint.DeltaSnapshotter
