package router

import (
	"reflect"
	"testing"
)

// dirty sets every field of f to a non-zero value (by reflection, so a
// field added to Flit later is covered without touching this test).
func dirty(t *testing.T, f *Flit) {
	t.Helper()
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(i + 1))
		case reflect.Uint8, reflect.Uint64:
			fv.SetUint(uint64(i + 1))
		default:
			t.Fatalf("Flit.%s has kind %s; teach dirty about it", v.Type().Field(i).Name, fv.Kind())
		}
		if v.Field(i).IsZero() {
			t.Fatalf("Flit.%s still zero after dirtying", v.Type().Field(i).Name)
		}
	}
}

// TestFlitArenaRecyclesZeroed is what makes a recycled flit
// indistinguishable from a fresh one: whatever a slot held when it was
// freed, Alloc hands it back as Flit{}.
func TestFlitArenaRecyclesZeroed(t *testing.T) {
	a := NewFlitArena()
	id := a.Alloc()
	dirty(t, a.At(id))
	a.Free(id)
	again := a.Alloc()
	if again != id {
		t.Fatalf("LIFO free stack handed out slot %d after freeing %d", again, id)
	}
	if got := *a.At(again); got != (Flit{}) {
		t.Fatalf("recycled slot came back dirty: %+v", got)
	}
}

// TestFlitArenaGrowthKeepsIDs: ids handed out before the slab grows name
// the same flits after it, and Live/Cap account for every slot.
func TestFlitArenaGrowthKeepsIDs(t *testing.T) {
	a := NewFlitArena()
	if a.Live() != 0 || a.Cap() != flitArenaMinBatch {
		t.Fatalf("fresh arena: live %d cap %d, want 0 and %d", a.Live(), a.Cap(), flitArenaMinBatch)
	}
	ids := make([]FlitID, 3*flitArenaMinBatch) // forces two doublings
	seen := make(map[FlitID]bool)
	for i := range ids {
		ids[i] = a.Alloc()
		if seen[ids[i]] {
			t.Fatalf("slot %d handed out twice while live", ids[i])
		}
		seen[ids[i]] = true
		a.At(ids[i]).PacketID = uint64(i) + 1
	}
	if a.Cap() != 4*flitArenaMinBatch {
		t.Fatalf("cap %d after %d allocations, want %d", a.Cap(), len(ids), 4*flitArenaMinBatch)
	}
	if a.Live() != len(ids) {
		t.Fatalf("live %d, want %d", a.Live(), len(ids))
	}
	for i, id := range ids {
		if got := a.At(id).PacketID; got != uint64(i)+1 {
			t.Fatalf("id %d resolves to packet %d after growth, want %d", id, got, i+1)
		}
	}
	for _, id := range ids {
		a.Free(id)
	}
	if a.Live() != 0 || a.Cap() != 4*flitArenaMinBatch {
		t.Fatalf("after freeing everything: live %d cap %d, want 0 and %d", a.Live(), a.Cap(), 4*flitArenaMinBatch)
	}
}
