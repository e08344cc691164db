package lock

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// holdNs is every reader hold's length in the scripted runs below.
const holdNs = 100

// scriptedRound drives one round of exactly scripted lock traffic on the
// fake clock, covering every kind of busy period the sampler
// distinguishes:
//
//	t=0    R1 RLock         idle→busy: the period's draw
//	t=10   R2 RLock
//	t=20   W  Lock          queues behind R1, R2 (they become legacy)
//	t=30   R3 RLock         queues behind W
//	t=100  R1 RUnlock
//	t=110  R2 RUnlock       W granted (wait 90)
//	t=160  W  Unlock        R3 granted (wait 130); W held 50
//	t=260  R3 RUnlock       idle
//	t=300  R4 RLock         a second, never-queued period
//	t=400  R4 RUnlock
//	t=450  TryLock          a writer-only period
//	t=490  Unlock           held 40
//
// Every reader hold lasts holdNs, so any unbiased weighting of any subset
// of timed holds gives a mean hold of exactly holdNs.
func scriptedRound(t *testing.T, l *FCFSRWMutex, c *fakeClock) {
	t.Helper()
	acquired := make(chan struct{})
	release := make(chan struct{})
	released := make(chan struct{})
	waitQueued := func(r, w int64) {
		for {
			if cr, cw := l.Contended(); cr == r && cw == w {
				return
			}
			runtime.Gosched()
		}
	}
	r0, w0 := l.Contended()

	l.RLock() // R1
	c.advance(10)
	l.RLock() // R2
	c.advance(10)
	go func() { // W
		l.Lock()
		acquired <- struct{}{}
		<-release
		l.Unlock()
		released <- struct{}{}
	}()
	waitQueued(r0, w0+1)
	c.advance(10)
	go func() { // R3
		l.RLock()
		acquired <- struct{}{}
		<-release
		l.RUnlock()
		released <- struct{}{}
	}()
	waitQueued(r0+1, w0+1)
	c.advance(70)
	l.RUnlock() // R1
	c.advance(10)
	l.RUnlock() // R2: grants W, which reads the clock before we move it
	<-acquired
	c.advance(50)
	release <- struct{}{} // W unlocks, granting R3
	<-released
	<-acquired
	c.advance(holdNs)
	release <- struct{}{} // R3
	<-released

	c.advance(40)
	l.RLock() // R4
	c.advance(holdNs)
	l.RUnlock()

	c.advance(50)
	if !l.TryLock() {
		t.Fatal("TryLock failed on an idle lock")
	}
	c.advance(40)
	l.Unlock()
	c.advance(1000)
}

// TestSampledProbeExactQuantities checks that sampling the reader hold
// integral leaves every other quantity exact: acquisitions, releases,
// contended counts, queue waits, writer hold time and writer presence
// (ρ_w's numerator) match the scripted values to the nanosecond at the
// default sampling period, and the weighted mean reader hold is exactly
// the scripted hold.
func TestSampledProbeExactQuantities(t *testing.T) {
	c := useFakeClock(t)
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	const rounds = 256 // enough that some draws come up and some do not
	for i := 0; i < rounds; i++ {
		scriptedRound(t, &l, c)
	}

	ws := l.WaitStats()
	exact := []struct {
		name      string
		got, want int64
	}{
		{"acquired R", p.acqR.Load(), 4 * rounds},
		{"acquired W", p.acqW.Load(), 2 * rounds},
		{"released R", p.relR.Load(), 4 * rounds},
		{"released W", p.relW.Load(), 2 * rounds},
		{"contended R", ws.ContendedR, rounds},
		{"contended W", ws.ContendedW, rounds},
		{"wait ns R", p.waitR.Load(), 130 * rounds},
		{"wait ns W", p.waitW.Load(), 90 * rounds},
		{"WaitStats wait ns R", ws.WaitNsR, 130 * rounds},
		{"WaitStats wait ns W", ws.WaitNsW, 90 * rounds},
		{"writer held ns", p.heldW.Load(), (50 + 40) * rounds},
		{"writer timed releases", p.timedW.Load(), 2 * rounds},
		{"writer presence ns", p.present.Load(), (140 + 40) * rounds},
	}
	for _, e := range exact {
		if e.got != e.want {
			t.Errorf("%s = %d, want %d", e.name, e.got, e.want)
		}
	}
	heldR, timedR := p.heldR.Load(), p.timedR.Load()
	// R3 queued, so it is timed every round at weight 1; the rest of the
	// weight comes from drawn periods, SamplePeriod per hold.
	if drawn := timedR - rounds; drawn <= 0 || drawn%SamplePeriod != 0 || drawn >= 3*rounds*SamplePeriod {
		t.Fatalf("timed reader weight %d: want %d queued holds plus a strict subset of the rest at weight %d",
			timedR, rounds, SamplePeriod)
	}
	if heldR != holdNs*timedR {
		t.Errorf("weighted reader hold %d ns over weight %d: mean %.3f ns, want exactly %d",
			heldR, timedR, float64(heldR)/float64(timedR), holdNs)
	}
}

// TestUncontendedReaderReadsNoClock counts clock reads: a reader in a busy
// period that lost the draw reads none, a drawn one reads two (acquire and
// release), and about 1 in SamplePeriod periods is drawn.
func TestUncontendedReaderReadsNoClock(t *testing.T) {
	var reads atomic.Int64
	t.Cleanup(SetClock(func() int64 { return reads.Add(1) }))

	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	reads.Store(0)
	const holds = 16000
	for i := 0; i < holds; i++ {
		l.RLock()
		l.RUnlock()
	}
	timed := p.timedR.Load()
	if timed%SamplePeriod != 0 {
		t.Fatalf("timed weight %d is not a multiple of SamplePeriod", timed)
	}
	drawn := timed / SamplePeriod
	if got := reads.Load(); got != 2*drawn {
		t.Errorf("%d clock reads for %d drawn periods of %d, want %d", got, drawn, holds, 2*drawn)
	}
	// Binomial(16000, 1/16): mean 1000, sd ≈ 31.
	if drawn < 800 || drawn > 1200 {
		t.Errorf("%d of %d periods drawn, want about %d", drawn, holds, holds/SamplePeriod)
	}
	if p.relR.Load() != holds || p.acqR.Load() != holds {
		t.Errorf("acquired %d released %d, want %d each", p.acqR.Load(), p.relR.Load(), holds)
	}
}
