package skiptrie

import (
	"errors"
	"fmt"

	"skiptrie/internal/shard"
)

// This file is the public face of change-data capture: the epoch-window
// diff between two snapshots of one structure. The work is proportional
// to the number of keys that changed in the window — the epoch journal
// names the candidates — not to the size of the structure, so diffing
// two adjacent snapshots of a million-key map that saw a thousand
// writes costs about a thousand key resolutions.

// DiffKind labels one change event: a key that is (possibly newly)
// present with a value, or a key that was removed.
type DiffKind uint8

const (
	// DiffPut reports a key live at the newer snapshot whose value may
	// have changed in the window (inserted, overwritten, or — across a
	// shard reshape — conservatively re-announced unchanged).
	DiffPut DiffKind = iota + 1
	// DiffDelete reports a key live at the older snapshot and absent at
	// the newer one. Deletes are always exact.
	DiffDelete
)

// String returns the kind's name.
func (k DiffKind) String() string {
	switch k {
	case DiffPut:
		return "put"
	case DiffDelete:
		return "delete"
	default:
		return fmt.Sprintf("DiffKind(%d)", uint8(k))
	}
}

// DiffEvent is one per-key change reported by Snapshot.Diff or a
// Watcher: the key, whether it was put or deleted, and — for puts —
// the value current at the newer end of the window. Val is the zero
// value for deletes.
type DiffEvent[V any] struct {
	Key  uint64
	Kind DiffKind
	Val  V
}

// Errors reported by Snapshot.Diff and the CDC surface built on it.
var (
	// ErrSnapshotMismatch reports a diff between snapshots of different
	// structures.
	ErrSnapshotMismatch = errors.New("skiptrie: diff requires snapshots of the same structure")
	// ErrSnapshotOrder reports a diff whose receiver is not the older
	// snapshot.
	ErrSnapshotOrder = errors.New("skiptrie: diff requires the older snapshot as receiver")
	// ErrSnapshotClosed reports an operation on a closed snapshot.
	ErrSnapshotClosed = errors.New("skiptrie: snapshot is closed")
)

// mapDiffErr translates the engine's diff errors to the public sentinel
// set.
func mapDiffErr(err error) error {
	switch err {
	case shard.ErrSnapMismatch:
		return ErrSnapshotMismatch
	case shard.ErrSnapOrder:
		return ErrSnapshotOrder
	case shard.ErrSnapClosed:
		return ErrSnapshotClosed
	default:
		return err
	}
}

// Diff streams the net per-key changes from this snapshot to the newer
// snapshot of the same structure, calling emit once per changed key in
// ascending key order until emit returns false (which is not an
// error). Both snapshots must still be open; the receiver must be the
// older one (taken earlier on the same Map, or the same Sharded).
//
// The delivery contract:
//
//   - Net effect per window, not history: a key written five times in
//     the window yields one DiffPut with the final value; a key
//     inserted and deleted within the window yields nothing.
//   - Deletes are exact: a DiffDelete key was live at the receiver and
//     is absent at newer.
//   - Puts are at-least-once: every key whose membership or value
//     differs between the two views is emitted, and on a Sharded a key
//     range reshaped by Split or Merge inside the window may
//     additionally re-announce unchanged keys (the reshaped shard's
//     epoch clock is fresh, so value identity cannot be established).
//     On a Map, and on Sharded ranges not reshaped in the window, puts
//     are exact too.
//
// The cost is O(changed keys) — plus, on a Sharded, O(resident keys)
// of any reshaped ranges — not O(structure size). Applying the events
// in order onto a copy of the receiver's view reproduces newer's view.
func (sn *Snapshot[V]) Diff(newer *Snapshot[V], emit func(DiffEvent[V]) bool) error {
	var n uint64
	err := sn.sn.DiffTo(newer.sn, nil, func(key uint64, val V, put bool) bool {
		n++
		if put {
			return emit(DiffEvent[V]{Key: key, Kind: DiffPut, Val: val})
		}
		return emit(DiffEvent[V]{Key: key, Kind: DiffDelete})
	})
	if err == nil {
		sn.m.recordDiff(n)
	}
	return mapDiffErr(err)
}
