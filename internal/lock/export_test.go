package lock

import (
	"sync/atomic"
	"testing"
)

// timeEveryPeriod times every busy period (sampling period 1) for the
// duration of a test that integrates too few holds for an estimate.
func timeEveryPeriod(t *testing.T) {
	old := samplePeriod
	samplePeriod = 1
	t.Cleanup(func() { samplePeriod = old })
}

// fakeClock replaces the probe's clock with one that moves only when the
// test advances it, so hold, wait and presence times are scripted exactly.
type fakeClock struct{ now atomic.Int64 }

func useFakeClock(t *testing.T) *fakeClock {
	c := &fakeClock{}
	c.now.Store(1_000_000)
	t.Cleanup(SetClock(c.now.Load))
	return c
}

func (c *fakeClock) advance(ns int64) { c.now.Add(ns) }

// SetClock replaces the probe's clock: scripted tests here and the replay
// comparisons in package lock_test run on a virtual clock, so that the
// probe's own clock reads add no time to the holds it measures. Call it
// only while no instrumented lock is in use; it returns a func restoring
// the real clock.
func SetClock(now func() int64) (restore func()) {
	nanotime = now
	return func() { nanotime = monotime }
}
