// Package checkpoint implements TART's state capture and soft-checkpoint
// machinery (paper §II.F.2).
//
// Components keep state in ordinary fields — the "transparent" programming
// model. The engine intermittently captures each component's state, pairs
// it with the scheduler's deterministic cursors, and ships the result
// asynchronously to a passive replica. Large structures can opt into
// incremental checkpointing by living in a Map (the paper's "auxiliary
// structure" holding updates since the last checkpoint), held as an
// exported field of an ordinary component struct; only the Map's deltas
// then travel between full snapshots (see CaptureDelta).
package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
)

// Snapshotter lets a component take explicit control of its state capture.
// Components that don't implement it are captured automatically via gob
// over their exported fields (the closest Go equivalent to the paper's
// bytecode augmentation; see Capture).
type Snapshotter interface {
	// Snapshot serializes the component's full state.
	Snapshot() ([]byte, error)
	// Restore reinstates a state produced by Snapshot.
	Restore(data []byte) error
}

// DeltaSnapshotter extends Snapshotter with incremental checkpointing:
// Delta returns only the changes since the previous Snapshot/Delta call.
type DeltaSnapshotter interface {
	Snapshotter
	// Delta serializes the changes since the last Snapshot or Delta. ok is
	// false when a full snapshot is required instead (e.g. first capture).
	Delta() (data []byte, ok bool, err error)
	// ApplyDelta applies a delta to the current state.
	ApplyDelta(data []byte) error
}

// Capture serializes a component's state. Components implementing
// Snapshotter are asked directly; anything else is gob-encoded, which
// captures its exported fields transparently. A transparent capture also
// starts a new delta epoch for the component's delta fields (see
// CaptureDelta): their next Delta is relative to this capture.
func Capture(comp any) ([]byte, error) {
	if s, ok := comp.(Snapshotter); ok {
		data, err := s.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: snapshot: %w", err)
		}
		return data, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(comp); err != nil {
		return nil, fmt.Errorf("checkpoint: auto-capture %T: %w", comp, err)
	}
	if err := startDeltaEpoch(comp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Reinstate restores a component's state captured by Capture. The target
// must be the same concrete type the state was captured from. For the
// transparent (gob) path the target is zeroed first: gob decoding merges
// into existing maps and leaves untouched fields alone, which would leak
// post-checkpoint state into a restore performed on a previously used
// object.
func Reinstate(comp any, data []byte) error {
	if s, ok := comp.(Snapshotter); ok {
		if err := s.Restore(data); err != nil {
			return fmt.Errorf("checkpoint: restore: %w", err)
		}
		return nil
	}
	zeroPointee(comp)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(comp); err != nil {
		return fmt.Errorf("checkpoint: auto-restore %T: %w", comp, err)
	}
	return nil
}

// zeroPointee resets *comp to its zero value when comp is a non-nil
// pointer.
func zeroPointee(comp any) {
	v := reflect.ValueOf(comp)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return
	}
	elem := v.Elem()
	if elem.CanSet() {
		elem.Set(reflect.Zero(elem.Type()))
	}
}

// CaptureDelta serializes only the changes since the last capture, when the
// component supports it. full reports whether the returned data is a full
// snapshot (delta unavailable or unsupported).
//
// A component supports deltas either by implementing DeltaSnapshotter
// itself or transparently: a struct (behind a pointer) with exported,
// non-nil pointer fields that implement DeltaSnapshotter, such as a *Map.
// A Snapshotter owns its whole capture and gets no transparent deltas.
// The transparent delta is the rest of the struct gob-encoded with those fields
// nil, plus each field's own Delta. A delta field must keep its pointer
// within an epoch; assigning a fresh, never-captured Map makes the next
// capture full.
func CaptureDelta(comp any) (data []byte, full bool, err error) {
	if d, ok := comp.(DeltaSnapshotter); ok {
		delta, ok, err := d.Delta()
		if err != nil {
			return nil, false, fmt.Errorf("checkpoint: delta: %w", err)
		}
		if ok {
			return delta, false, nil
		}
	} else if _, explicit := comp.(Snapshotter); !explicit {
		if delta, ok, err := captureFieldDelta(comp); err != nil || ok {
			return delta, false, err
		}
	}
	data, err = Capture(comp)
	return data, true, err
}

// ApplyDelta applies an incremental capture to a component.
func ApplyDelta(comp any, data []byte) error {
	if d, ok := comp.(DeltaSnapshotter); ok {
		if err := d.ApplyDelta(data); err != nil {
			return fmt.Errorf("checkpoint: apply delta: %w", err)
		}
		return nil
	}
	elem, fields := deltaStruct(comp)
	if _, explicit := comp.(Snapshotter); explicit || len(fields) == 0 {
		return fmt.Errorf("checkpoint: %T does not support incremental checkpoints", comp)
	}
	var fd fieldDelta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&fd); err != nil {
		return fmt.Errorf("checkpoint: decode field delta of %T: %w", comp, err)
	}
	// Keep the live field values: the rest of the struct is replaced
	// wholesale (zeroed first, as in Reinstate), the delta fields are
	// updated in place.
	live := make([]reflect.Value, len(fd.Fields))
	for n, f := range fd.Fields {
		if !slices.Contains(fields, f.Index) {
			return fmt.Errorf("checkpoint: field delta of %T names field %d, not a delta field", comp, f.Index)
		}
		v := elem.Field(f.Index)
		if v.IsNil() {
			return fmt.Errorf("checkpoint: field delta of %T for nil field %s", comp, elem.Type().Field(f.Index).Name)
		}
		live[n] = reflect.ValueOf(v.Interface())
	}
	zeroPointee(comp)
	if err := gob.NewDecoder(bytes.NewReader(fd.Rest)).Decode(comp); err != nil {
		return fmt.Errorf("checkpoint: apply field delta of %T: %w", comp, err)
	}
	for n, f := range fd.Fields {
		elem.Field(f.Index).Set(live[n])
		if err := live[n].Interface().(DeltaSnapshotter).ApplyDelta(f.Data); err != nil {
			return fmt.Errorf("checkpoint: apply delta of field %s: %w", elem.Type().Field(f.Index).Name, err)
		}
	}
	return nil
}

// fieldDelta is the transparent incremental capture of a struct component:
// its non-delta state gob-encoded in full (Rest, delta fields nil), plus
// one Delta per non-nil delta field, by field index.
type fieldDelta struct {
	Rest   []byte
	Fields []fieldDeltaEntry
}

type fieldDeltaEntry struct {
	Index int
	Data  []byte
}

// captureFieldDelta takes a transparent delta of comp. ok is false when
// comp has no delta fields, or one of them cannot produce a delta yet;
// the caller then takes a full capture.
func captureFieldDelta(comp any) (data []byte, ok bool, err error) {
	elem, fields := deltaStruct(comp)
	if len(fields) == 0 {
		return nil, false, nil
	}
	rest := reflect.New(elem.Type())
	rest.Elem().Set(elem)
	var fd fieldDelta
	for _, i := range fields {
		f := elem.Field(i)
		if f.IsNil() {
			continue
		}
		delta, ok, err := f.Interface().(DeltaSnapshotter).Delta()
		if err != nil {
			return nil, false, fmt.Errorf("checkpoint: delta of field %s: %w", elem.Type().Field(i).Name, err)
		}
		if !ok {
			// The full capture that follows restarts every field's epoch,
			// including those whose Delta already ran.
			return nil, false, nil
		}
		fd.Fields = append(fd.Fields, fieldDeltaEntry{Index: i, Data: delta})
		rest.Elem().Field(i).Set(reflect.Zero(f.Type()))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rest.Interface()); err != nil {
		return nil, false, fmt.Errorf("checkpoint: auto-capture %T: %w", comp, err)
	}
	fd.Rest = buf.Bytes()
	buf = bytes.Buffer{}
	if err := gob.NewEncoder(&buf).Encode(&fd); err != nil {
		return nil, false, fmt.Errorf("checkpoint: encode field delta of %T: %w", comp, err)
	}
	return buf.Bytes(), true, nil
}

// startDeltaEpoch makes a full transparent capture the base of the next
// field delta: every non-nil delta field forgets the changes the capture
// already holds. A Map just clears its dirty set; any other
// DeltaSnapshotter is re-based through Snapshot, which by contract
// restarts its Delta.
func startDeltaEpoch(comp any) error {
	elem, fields := deltaStruct(comp)
	for _, i := range fields {
		f := elem.Field(i)
		if f.IsNil() {
			continue
		}
		if m, ok := f.Interface().(epochTracker); ok {
			m.startEpoch()
			continue
		}
		if _, err := f.Interface().(DeltaSnapshotter).Snapshot(); err != nil {
			return fmt.Errorf("checkpoint: snapshot of field %s: %w", elem.Type().Field(i).Name, err)
		}
	}
	return nil
}

// epochTracker is implemented by Map: it can make its current contents the
// base of its next Delta without encoding them.
type epochTracker interface {
	startEpoch()
}

var deltaSnapshotterType = reflect.TypeOf((*DeltaSnapshotter)(nil)).Elem()

// deltaStruct returns the struct comp points to and the indexes of its
// delta fields: exported, non-embedded pointer fields whose type
// implements DeltaSnapshotter. Components that are not a pointer to a
// struct, or that gob encodes through their own marshaling methods, have
// none.
func deltaStruct(comp any) (reflect.Value, []int) {
	v := reflect.ValueOf(comp)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return reflect.Value{}, nil
	}
	elem := v.Elem()
	if selfEncoding(v.Type()) {
		return elem, nil
	}
	var fields []int
	for i, t := 0, elem.Type(); i < t.NumField(); i++ {
		f := t.Field(i)
		if f.IsExported() && !f.Anonymous && f.Type.Kind() == reflect.Pointer &&
			f.Type.Implements(deltaSnapshotterType) {
			fields = append(fields, i)
		}
	}
	return elem, fields
}

// selfEncoding reports whether gob encodes values of t through t's own
// marshaling methods rather than field by field.
func selfEncoding(t reflect.Type) bool {
	for _, m := range []reflect.Type{
		reflect.TypeOf((*gob.GobEncoder)(nil)).Elem(),
		reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	} {
		if t.Implements(m) {
			return true
		}
	}
	return false
}
