package lock_test

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
)

// virtualClock is a clock that moves only when a lock holder advances it,
// so a hold's measured length is exactly the work scripted into it and
// the probe's own clock reads add nothing.
type virtualClock struct{ now atomic.Int64 }

// holdWork draws the virtual work of one hold: exponential with mean
// 200 ns, and 1 hold in 200 a 5 µs outlier (a preempted holder), so the
// mean rests partly on rare long holds, as a real one does.
func holdWork() int64 {
	if rand.IntN(200) == 0 {
		return 5_000
	}
	return int64(rand.ExpFloat64()*200) + 1
}

// levelRef is one level's every-hold reference: at quiescence,
// Σ release stamps − Σ grant stamps is the total reader hold time of every
// hold on the level, timed by the lock or not.
type levelRef struct {
	grants, releases, holds, presence atomic.Int64
}

// nodeRef is the probe of one node's lock: it forwards to the level's
// LevelStats, advances the virtual clock by each hold's work as the hold
// begins, and stamps reader holds for the level's reference. A queued
// reader is granted when the writer ahead of it releases, which may be
// well before it wakes, so its grant stamp is that release's time.
type nodeRef struct {
	*metrics.LevelStats
	ref   *levelRef
	clock *virtualClock

	mu         sync.Mutex
	writerHeld bool  // a writer acquired and has not yet reported its release
	lastWRel   int64 // virtual time of the last writer release
}

func (p *nodeRef) Acquired(write bool, waitNs int64) {
	work := holdWork()
	start := p.clock.now.Add(work) - work
	p.mu.Lock()
	switch {
	case write:
		p.writerHeld = true
	case waitNs > 0 && !p.writerHeld:
		p.ref.grants.Add(p.lastWRel)
	default:
		p.ref.grants.Add(start)
	}
	p.mu.Unlock()
	p.LevelStats.Acquired(write, waitNs)
}

func (p *nodeRef) Released(write bool, heldNs, weight int64) {
	now := p.clock.now.Load()
	if write {
		p.mu.Lock()
		p.writerHeld, p.lastWRel = false, now
		p.mu.Unlock()
	} else {
		p.ref.releases.Add(now)
		p.ref.holds.Add(1)
	}
	p.LevelStats.Released(write, heldNs, weight)
}

func (p *nodeRef) WriterPresence(ns int64) {
	p.ref.presence.Add(ns)
	p.LevelStats.WriterPresence(ns)
}

// replay runs an op mix on a bulk-loaded tree instrumented with nodeRefs
// on a virtual clock and checks that the sampled mean reader hold is
// within tol of the every-hold value at every level, or at the root only.
// It returns the root's writer presence as a fraction of virtual time.
func replay(t *testing.T, alg cbtree.Algorithm, rows, workers, ops int, getShare float64, rootOnly bool, tol float64) (rootRhoW float64) {
	keys := make([]int64, rows)
	vals := make([]uint64, rows)
	for i := range keys {
		keys[i] = int64(i) * 2
		vals[i] = uint64(i)
	}
	tr, err := cbtree.BulkLoad(64, alg, keys, vals, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	clock := &virtualClock{}
	defer lock.SetClock(clock.now.Load)()
	probe := metrics.NewTreeProbe()
	refs := make([]*levelRef, metrics.MaxLevels+1)
	for lv := range refs {
		refs[lv] = &levelRef{}
	}
	tr.Instrument(func(level int) lock.Probe {
		return &nodeRef{LevelStats: probe.Level(level), ref: refs[level], clock: clock}
	})

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := int64(r.IntN(2 * rows))
				switch u := r.Float64(); {
				case u < getShare:
					tr.Search(k)
				case u < getShare+(1-getShare)*0.8:
					tr.Insert(k, 1)
				default:
					tr.Delete(k)
				}
			}
		}(rand.New(rand.NewPCG(uint64(g)+1, 7)))
	}
	wg.Wait()

	height := tr.Height()
	for _, ls := range probe.Snapshot().Levels {
		ref := refs[ls.Level]
		if ref.holds.Load() == 0 || ls.Level > height {
			continue
		}
		every := float64(ref.releases.Load()-ref.grants.Load()) / float64(ref.holds.Load())
		sampled := float64(ls.HeldNsR) / float64(ls.TimedR)
		t.Logf("level %d: mean reader hold sampled %.1f ns, every hold %.1f ns (%+.2f%%) over %d holds, reader weight %d",
			ls.Level, sampled, every, 100*(sampled/every-1), ref.holds.Load(), ls.TimedR)
		if (!rootOnly || ls.Level == height) && math.Abs(sampled/every-1) > tol {
			t.Errorf("level %d: sampled mean reader hold %.1f ns is not within %.0f%% of the every-hold %.1f ns",
				ls.Level, sampled, 100*tol, every)
		}
	}
	return float64(refs[height].presence.Load()) / float64(clock.now.Load())
}

// TestSampledHoldMemReadMix replays the serving benchmark's mem-read mix
// (95% gets, 4% puts, 1% deletes, uniform keys) on a link-type tree.
// Hardly a busy period queues, so the estimate rests on the
// 1-in-SamplePeriod draws.
func TestSampledHoldMemReadMix(t *testing.T) {
	replay(t, cbtree.LinkType, 100_000, 1, 200_000, 0.95, false, 0.10)
}

// TestSampledHoldContendedLockCoupling runs a write-heavy lock-coupling
// mix (10% gets) on three workers whose writers keep the root's ρ_w near
// .95, so nearly every root reader hold is timed through the queued path
// at weight 1. The bound applies at the root. Below it, more holds fall
// in unqueued periods, and a hold there also carries whatever the other
// workers add to the shared clock meanwhile: thousands of ops when the
// holder is preempted. One such hold, timed at weight SamplePeriod or
// missed, moved these 24k-hold estimates by 10–15% at level 2 and up to
// 30% at the leaves on a loaded host; the logged figures show it.
// TestSampledHoldMemReadMix, one worker, bounds every level.
func TestSampledHoldContendedLockCoupling(t *testing.T) {
	rho := replay(t, cbtree.LockCoupling, 20_000, 3, 80_000, 0.1, true, 0.10)
	t.Logf("root rho_w %.2f", rho)
	if rho < 0.5 {
		t.Fatalf("root rho_w %.2f: the run is not contended enough to test the queued path", rho)
	}
}
