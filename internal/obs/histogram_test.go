package obs

import (
	"math"
	"testing"
)

// TestBucketIndexMonotone walks value magnitudes and asserts the bucket
// mapping never decreases and every value lands at or below its bucket's
// inclusive upper bound.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range bucketProbe() {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		if ub := bucketUpper(i); v > ub {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, i, ub)
		}
		prev = i
	}
}

// bucketProbe yields a dense-then-exponential sweep of values including
// every power-of-two boundary up to MaxInt64.
func bucketProbe() []int64 {
	var vs []int64
	for v := int64(0); v < 1024; v++ {
		vs = append(vs, v)
	}
	for shift := uint(10); shift < 63; shift++ {
		base := int64(1) << shift
		vs = append(vs, base-1, base, base+1, base+base/2)
	}
	vs = append(vs, math.MaxInt64-1, math.MaxInt64)
	return vs
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..100 exercise both exact low buckets and log buckets.
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("snapshot count/sum/max = %d/%d/%d, want 100/5050/100", s.Count, s.Sum, s.Max)
	}
	// Log bucketing bounds relative quantile error by 1/histSub.
	check := func(name string, got, want int64) {
		t.Helper()
		if got < want || float64(got) > float64(want)*(1+1.0/histSub)+1 {
			t.Errorf("%s = %d, want within [%d, %.0f]", name, got, want, float64(want)*(1+1.0/histSub)+1)
		}
	}
	check("p50", s.P50, 50)
	check("p90", s.P90, 90)
	check("p99", s.P99, 99)
	if s.Mean() != 50 {
		t.Errorf("mean = %d, want 50", s.Mean())
	}

	// Determinism: a second identical histogram snapshots identically.
	h2 := NewHistogram()
	for v := int64(1); v <= 100; v++ {
		h2.Record(v)
	}
	if h2.Snapshot() != s {
		t.Errorf("identical recordings produced different snapshots: %+v vs %+v", h2.Snapshot(), s)
	}
}

func TestHistogramNilAndEdge(t *testing.T) {
	var h *Histogram
	h.Record(42) // must not panic
	if h.Count() != 0 {
		t.Errorf("nil histogram Count = %d", h.Count())
	}
	if s := h.Snapshot(); s != (HistSnapshot{}) {
		t.Errorf("nil histogram Snapshot = %+v, want zero", s)
	}

	var m *Metrics
	if m.Histogram("x") != nil {
		t.Error("nil Metrics.Histogram != nil")
	}
	if m.HistogramNames() != nil {
		t.Error("nil Metrics.HistogramNames != nil")
	}
	if m.HistogramSummary() != "" {
		t.Error("nil Metrics.HistogramSummary not empty")
	}

	e := NewHistogram()
	e.Record(-5) // clamps to 0
	if s := e.Snapshot(); s.Count != 1 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("negative record snapshot = %+v, want count=1 max=0", s)
	}

	big := NewHistogram()
	big.Record(math.MaxInt64)
	if s := big.Snapshot(); s.Max != math.MaxInt64 || s.P50 != math.MaxInt64 {
		t.Errorf("MaxInt64 snapshot = %+v", s)
	}
}

// TestHistogramZeroAlloc pins the hot path: Record never allocates, on a
// nil or an enabled histogram.
func TestHistogramZeroAlloc(t *testing.T) {
	var nilH *Histogram
	if n := testing.AllocsPerRun(200, func() { nilH.Record(123) }); n != 0 {
		t.Errorf("nil Histogram.Record allocates %.1f/op", n)
	}
	h := NewHistogram()
	v := int64(0)
	if n := testing.AllocsPerRun(200, func() { v += 7919; h.Record(v) }); n != 0 {
		t.Errorf("Histogram.Record allocates %.1f/op", n)
	}
}

// TestMetricsHistogramRegistry covers creation-on-first-use and the shared
// instance contract.
func TestMetricsHistogramRegistry(t *testing.T) {
	m := NewMetrics()
	a := m.Histogram("lat.a_ps")
	if a == nil {
		t.Fatal("Histogram returned nil on a live registry")
	}
	if m.Histogram("lat.a_ps") != a {
		t.Error("second Histogram call returned a different instance")
	}
	a.Record(10)
	if got := m.HistogramSnapshot("lat.a_ps").Count; got != 1 {
		t.Errorf("snapshot count = %d, want 1", got)
	}
	if got := m.HistogramSnapshot("absent"); got != (HistSnapshot{}) {
		t.Errorf("absent snapshot = %+v, want zero", got)
	}
	m.Histogram("lat.b_ps")
	names := m.HistogramNames()
	if len(names) != 2 || names[0] != "lat.a_ps" || names[1] != "lat.b_ps" {
		t.Errorf("HistogramNames = %v", names)
	}
}

// TestEventsWraparound is the Events() two-copy regression test: fill past
// capacity, then assert order, Dropped and Reset behaviour.
func TestEventsWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{A0: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.A0 != want {
			t.Errorf("Events[%d].A0 = %d, want %d (oldest-first after wrap)", i, ev.A0, want)
		}
	}
	if d := tr.Dropped(); d != 2 {
		t.Errorf("Dropped = %d, want 2", d)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Errorf("after Reset: len=%d dropped=%d events=%d, want all zero",
			tr.Len(), tr.Dropped(), len(tr.Events()))
	}
	// The ring keeps working after Reset.
	tr.Emit(Event{A0: 9})
	if evs := tr.Events(); len(evs) != 1 || evs[0].A0 != 9 {
		t.Errorf("post-Reset Events = %v", evs)
	}
}
