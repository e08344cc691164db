package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/lock"
)

// TestLevelStatsWeightedHolds checks the accumulator's arithmetic: hold
// samples count with their weight, untimed releases count only as
// releases, and the zero-wait histogram bucket is derived from the exact
// counters.
func TestLevelStatsWeightedHolds(t *testing.T) {
	p := NewTreeProbe()
	s := p.Level(1)
	s0 := p.Snapshot()
	for i := 0; i < 30; i++ {
		s.Acquired(false, 0)
	}
	s.Acquired(false, 5000) // one queued reader
	s.Acquired(true, 0)
	s.Acquired(true, 7000)
	for i := 0; i < 30; i++ {
		switch {
		case i == 0:
			s.Released(false, 400, lock.SamplePeriod) // a drawn period
		case i == 1:
			s.Released(false, 200, 1) // a queued hold
		default:
			s.Released(false, 0, 0) // untimed
		}
	}
	s.Released(false, 250, 1)
	s.Released(true, 1000, 1)
	s.Released(true, 3000, 1)
	time.Sleep(time.Millisecond)
	s1 := p.Snapshot()

	ls := s1.Levels[0]
	if ls.ReleasedR != 31 || ls.AcquiredR != 31 || ls.ReleasedW != 2 {
		t.Fatalf("counts %+v", ls)
	}
	if want := int64(lock.SamplePeriod*400 + 200 + 250); ls.HeldNsR != want {
		t.Errorf("HeldNsR = %d, want %d", ls.HeldNsR, want)
	}
	if want := int64(lock.SamplePeriod + 2); ls.TimedR != want {
		t.Errorf("TimedR = %d, want %d", ls.TimedR, want)
	}
	if ls.WaitHistR[0] != 30 || ls.WaitHistR.N() != 31 || ls.WaitHistW[0] != 1 || ls.WaitHistW.N() != 2 {
		t.Errorf("wait histograms R %v W %v: want 30+1 and 1+1 samples", ls.WaitHistR, ls.WaitHistW)
	}
	r := Rates(s0, s1)[0]
	wantR := float64(lock.SamplePeriod*400+200+250) / float64(lock.SamplePeriod+2) / 1e9
	if math.Abs(r.MeanHoldR-wantR) > 1e-15 {
		t.Errorf("MeanHoldR = %v, want %v", r.MeanHoldR, wantR)
	}
	if r.MeanHoldW != 2000e-9 {
		t.Errorf("MeanHoldW = %v, want 2µs", r.MeanHoldW)
	}
	if r.Acquired != 33 || r.Released != 33 {
		t.Errorf("window acquired %d released %d, want 33/33", r.Acquired, r.Released)
	}
}

// TestSaturatedLockMuREveryWindow saturates one lock with writers and
// readers, the case where busy periods are few and long, and checks that
// every 250 ms window (the governor's default interval) yields a reader
// service rate: once a request queues, reader holds are timed at weight 1
// until the lock idles, which under saturation it almost never does.
func TestSaturatedLockMuREveryWindow(t *testing.T) {
	probe := NewTreeProbe()
	var l lock.FCFSRWMutex
	l.SetProbe(probe.Level(1))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(write bool) {
			defer wg.Done()
			for !stop.Load() {
				if write {
					l.Lock()
					time.Sleep(20 * time.Microsecond)
					l.Unlock()
				} else {
					l.RLock()
					time.Sleep(20 * time.Microsecond)
					l.RUnlock()
				}
			}
		}(g%2 == 0)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	prev := probe.Snapshot()
	for w := 0; w < 4; w++ {
		time.Sleep(250 * time.Millisecond)
		cur := probe.Snapshot()
		rates := Rates(prev, cur)
		prev = cur
		if len(rates) != 1 {
			t.Fatalf("window %d: %d levels", w, len(rates))
		}
		r := rates[0]
		if r.RhoW < 0.5 {
			t.Fatalf("window %d: rho_w %.2f, lock not saturated", w, r.RhoW)
		}
		if r.MuR <= 0 || r.MeanHoldR < 20e-6 {
			t.Errorf("window %d: mu_r %.0f/s, mean reader hold %v s, want a hold of at least 20µs",
				w, r.MuR, r.MeanHoldR)
		}
	}
}
