package telemetry

import (
	"sync"
	"testing"
	"time"
)

func rec(id string) func() *FlightRecord {
	return func() *FlightRecord { return &FlightRecord{TraceID: id} }
}

// countedRecorder returns a recorder whose recorded totals book into a
// fresh registry, so its snapshot's slow_recorded/degraded_recorded move.
func countedRecorder(k, ring int) *FlightRecorder {
	reg := NewRegistry()
	return NewFlightRecorder(k, ring).Feed(reg.Counter("slow"), reg.Counter("degraded"))
}

func TestFlightRecorderKeepsKSlowest(t *testing.T) {
	f := countedRecorder(3, 8)
	durs := []time.Duration{5, 9, 1, 7, 3, 8} // ms
	for i, d := range durs {
		f.Record(d*time.Millisecond, false, rec(string(rune('a'+i))))
	}
	snap := f.Snapshot()
	if len(snap.Slowest) != 3 {
		t.Fatalf("slowest holds %d, want 3", len(snap.Slowest))
	}
	// 9, 8, 7 ms — slowest first.
	want := []int64{9000, 8000, 7000}
	for i, r := range snap.Slowest {
		if r.DurUS != want[i] {
			t.Errorf("slowest[%d] = %dus, want %dus", i, r.DurUS, want[i])
		}
	}
	if len(snap.Degraded) != 0 || snap.DegradedRecorded != 0 {
		t.Errorf("degraded = %d/%d, want none", len(snap.Degraded), snap.DegradedRecorded)
	}
	// 5, 9, 1, 7 and 8 ms entered the slow set; 3 ms arrived under its floor.
	if snap.SlowRecorded != 5 {
		t.Errorf("slow recorded = %d, want 5", snap.SlowRecorded)
	}
}

// Once the slow set fills, requests under the floor must not invoke the
// build callback at all — that laziness is the fast path's zero-alloc
// guarantee.
func TestFlightRecorderLazyBuild(t *testing.T) {
	f := NewFlightRecorder(2, 8)
	f.Record(10*time.Millisecond, false, rec("a"))
	f.Record(20*time.Millisecond, false, rec("b"))
	called := false
	f.Record(time.Millisecond, false, func() *FlightRecord {
		called = true
		return &FlightRecord{}
	})
	if called {
		t.Error("build ran for a fast, non-degraded request")
	}
	// A nil build result is discarded without recording.
	f.Record(time.Hour, false, func() *FlightRecord { return nil })
	if snap := f.Snapshot(); len(snap.Slowest) != 2 {
		t.Errorf("nil build changed the slow set: %d records", len(snap.Slowest))
	}
}

func TestFlightRecorderDegradedRing(t *testing.T) {
	f := countedRecorder(1, 4)
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for i, id := range ids {
		// All fast: only the degraded ring retains them (plus one slow slot).
		f.Record(time.Duration(i+1)*time.Microsecond, true, rec(id))
	}
	snap := f.Snapshot()
	if snap.DegradedRecorded != int64(len(ids)) {
		t.Errorf("recorded = %d, want %d", snap.DegradedRecorded, len(ids))
	}
	if len(snap.Degraded) != 4 {
		t.Fatalf("ring holds %d, want its capacity 4", len(snap.Degraded))
	}
	// Most recent first: f, e, d, c.
	for i, want := range []string{"f", "e", "d", "c"} {
		if snap.Degraded[i].TraceID != want {
			t.Errorf("degraded[%d] = %q, want %q", i, snap.Degraded[i].TraceID, want)
		}
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(time.Second, true, func() *FlightRecord {
		t.Error("nil recorder invoked build")
		return nil
	})
	if snap := f.Snapshot(); snap.K != 0 || snap.RingSize != 0 || snap.Slowest != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
	if f.K() != 0 || f.RingSize() != 0 {
		t.Error("nil accessors not zero")
	}
}

func TestFlightRecorderDefaultsAndRounding(t *testing.T) {
	f := NewFlightRecorder(0, 0)
	if f.K() != DefaultFlightK || f.RingSize() != DefaultFlightRing {
		t.Errorf("defaults = %d/%d", f.K(), f.RingSize())
	}
	if f := NewFlightRecorder(1, 5); f.RingSize() != 8 {
		t.Errorf("ring size = %d, want next power of two 8", f.RingSize())
	}
}

// TestFlightRecorderConcurrent is the obs-check race soak (run with
// -race -count=50): concurrent recorders and snapshotters must never race,
// lose a degraded record, or break the slow set's ordering invariant.
func TestFlightRecorderConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 50
		k         = 4
		ring      = 1024 // outsizes writers*perWriter degraded records
	)
	f := countedRecorder(k, ring)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotters.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := f.Snapshot()
					if len(snap.Slowest) > k {
						t.Errorf("slow set %d > k %d", len(snap.Slowest), k)
						return
					}
					for i := 1; i < len(snap.Slowest); i++ {
						if snap.Slowest[i].DurUS > snap.Slowest[i-1].DurUS {
							t.Error("slow set out of order")
							return
						}
					}
				}
			}
		}()
	}
	var wWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			for i := 0; i < perWriter; i++ {
				id := string(rune('A'+w)) + "-" + string(rune('0'+i%10))
				deg := i%2 == 0
				f.Record(time.Duration(w*perWriter+i)*time.Microsecond, deg,
					func() *FlightRecord { return &FlightRecord{TraceID: id, DegradedCanceled: boolToI64(deg)} })
			}
		}(w)
	}
	wWG.Wait()
	close(stop)
	wg.Wait()

	snap := f.Snapshot()
	wantDegraded := int64(writers * perWriter / 2)
	if snap.DegradedRecorded != wantDegraded {
		t.Errorf("degraded recorded = %d, want %d", snap.DegradedRecorded, wantDegraded)
	}
	if int64(len(snap.Degraded)) != wantDegraded {
		t.Errorf("ring returned %d, want all %d (ring larger than load)", len(snap.Degraded), wantDegraded)
	}
	if len(snap.Slowest) != k {
		t.Errorf("slow set = %d, want full at %d", len(snap.Slowest), k)
	}
	// The k slowest durations overall are deterministic: the top k of
	// 0..writers*perWriter-1 microseconds, regardless of arrival order.
	top := int64(writers*perWriter - 1)
	for i, r := range snap.Slowest {
		if want := top - int64(i); r.DurUS != want {
			t.Errorf("slowest[%d] = %dus, want %dus", i, r.DurUS, want)
		}
	}
}

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
