package server

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestIDSourceDeterministicWhenSeeded(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 10; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("step %d: %q != %q", i, ia, ib)
		}
		if len(ia) != 16 || strings.Trim(ia, "0123456789abcdef") != "" {
			t.Fatalf("ID %q is not 16 hex digits", ia)
		}
	}
	if NewIDSource(42).Next() == NewIDSource(43).Next() {
		t.Fatal("different seeds produced the same first ID")
	}
	// Seed 0 is random: two sources should not collide on their first ID.
	if NewIDSource(0).Next() == NewIDSource(0).Next() {
		t.Fatal("random seeding collided (astronomically unlikely)")
	}
}

func TestSampleID(t *testing.T) {
	src := NewIDSource(7)
	ids := make([]string, 2000)
	for i := range ids {
		ids[i] = src.Next()
	}
	for _, id := range ids {
		if SampleID(id, 1) != true {
			t.Fatal("rate 1 must keep everything")
		}
		if SampleID(id, 0) != false {
			t.Fatal("rate 0 must keep nothing")
		}
		if SampleID(id, 0.3) != SampleID(id, 0.3) {
			t.Fatal("sampling decision not deterministic")
		}
		// Monotone in rate: kept at 0.3 implies kept at 0.8.
		if SampleID(id, 0.3) && !SampleID(id, 0.8) {
			t.Fatal("sampling not monotone in rate")
		}
	}
	kept := 0
	for _, id := range ids {
		if SampleID(id, 0.3) {
			kept++
		}
	}
	if kept < 450 || kept > 750 {
		t.Fatalf("rate 0.3 kept %d of 2000 (want roughly 600)", kept)
	}
	// Non-hex IDs fall back to string hashing, still deterministic.
	if SampleID("not-hex!", 0.5) != SampleID("not-hex!", 0.5) {
		t.Fatal("non-hex sampling not deterministic")
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	var nilRing *Ring
	nilRing.Add(obs.Snapshot{})
	if nilRing.Len() != 0 || nilRing.Cap() != 0 || nilRing.Total() != 0 || nilRing.Snapshots() != nil {
		t.Fatal("nil Ring not inert")
	}
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(obs.Snapshot{ID: string(rune('a' + i))})
	}
	if r.Len() != 4 || r.Cap() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d cap=%d total=%d", r.Len(), r.Cap(), r.Total())
	}
	got := r.Snapshots()
	want := []string{"j", "i", "h", "g"} // newest first
	for i, s := range got {
		if s.ID != want[i] {
			t.Fatalf("snapshot %d = %q, want %q", i, s.ID, want[i])
		}
	}
	if NewRing(0).Cap() != 1 {
		t.Fatal("capacity should clamp to 1")
	}
}
