package fleet

import (
	"testing"

	"repro/internal/simtime"
)

// TestEventOrderTieBreak pins the intrinsic total order: equal-time events
// pop by (lane, seq), independent of push order. The old heap broke ties
// by a global insertion counter, which made the schedule an artifact of
// who pushed first.
func TestEventOrderTieBreak(t *testing.T) {
	q := newSchedQueue(4)
	at := 100 * simtime.Millisecond
	// Push a late lane-0 event first (it takes lane 0's seq 0), then the
	// tie group in descending lane order, then an early lane-2 event.
	// Within the tie group the pops must come back sorted by (lane, seq) —
	// the reverse of insertion order across lanes.
	q.sched(200*simtime.Millisecond, evReady, 0, 0, nil)
	for lane := int32(3); lane >= 0; lane-- {
		q.sched(at, evReady, lane, 0, nil)
		q.sched(at, evArrive, lane, 0, nil)
	}
	q.sched(50*simtime.Millisecond, evReady, 2, 0, nil)

	type key struct {
		t    simtime.PS
		lane int32
		seq  int32
	}
	var got []key
	for !q.empty() {
		ev := q.pop()
		got = append(got, key{ev.t, ev.lane, ev.seq})
	}
	want := []key{
		{50 * simtime.Millisecond, 2, 2},
		{at, 0, 1}, {at, 0, 2},
		{at, 1, 0}, {at, 1, 1},
		{at, 2, 0}, {at, 2, 1},
		{at, 3, 0}, {at, 3, 1},
		{200 * simtime.Millisecond, 0, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEntityStreamIndependence guards the satellite RNG fix: the old
// derivation xor-ed the seed with small multiples of the entity id, which
// correlated neighboring clients' draw sequences. Streams must now differ
// pairwise even for adjacent ids and tiny seeds, and the same (seed, id)
// must reproduce exactly.
func TestEntityStreamIndependence(t *testing.T) {
	draw := func(seed, id uint64) [4]uint64 {
		r := entityStream(seed, id)
		var out [4]uint64
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	if draw(1, 7) != draw(1, 7) {
		t.Fatal("entityStream is not reproducible")
	}
	seen := map[[4]uint64]uint64{}
	for id := uint64(0); id < 1000; id++ {
		d := draw(1, id)
		if prev, dup := seen[d]; dup {
			t.Fatalf("entities %d and %d share a draw sequence", prev, id)
		}
		seen[d] = id
	}
	if draw(1, 3) == draw(2, 3) {
		t.Error("seeds 1 and 2 give entity 3 the same stream")
	}
}
