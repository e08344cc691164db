package lock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFCFSPropertyGrantOrder is a randomized property test of strict FCFS
// granting under mixed reader/writer contention: for any two queued
// requests where at least one is a writer, the earlier arrival must be
// granted first. (Two readers may be granted as one batch, so their
// relative order is unconstrained.) In particular, a reader that queues
// behind a writer must never overtake it. With a probe attached, every
// reader hold is also timed at weight 1: each one acquired after a queue
// formed in its busy period. Run it under -race: the CI race matrix
// includes this package.
func TestFCFSPropertyGrantOrder(t *testing.T) {
	const (
		seeds    = 25
		requests = 12
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l FCFSRWMutex
		p := &weightProbe{}
		l.SetProbe(p)
		l.Lock() // blocker: every request below must queue

		classes := make([]bool, requests) // true = writer
		var grantMu sync.Mutex
		grants := make([]int, 0, requests)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			write := rng.Intn(2) == 0
			classes[i] = write
			wg.Add(1)
			go func(i int, write bool) {
				defer wg.Done()
				if write {
					l.Lock()
				} else {
					l.RLock()
				}
				grantMu.Lock()
				grants = append(grants, i)
				grantMu.Unlock()
				if write {
					l.Unlock()
				} else {
					l.RUnlock()
				}
			}(i, write)
			// Arrival order is the queue order: wait until request i is
			// actually queued before launching request i+1.
			for {
				r, w := l.Contended()
				if r+w == int64(i+1) {
					break
				}
				runtime.Gosched()
			}
		}

		l.Unlock() // release the blocker; the queue drains in FCFS order
		wg.Wait()

		if len(grants) != requests {
			t.Fatalf("seed %d: %d grants for %d requests", seed, len(grants), requests)
		}
		if rel := p.relR.Load(); p.ones.Load() != rel || p.timedR.Load() != rel {
			t.Fatalf("seed %d: %d reader releases, %d timed at weight 1 (total weight %d); want all",
				seed, rel, p.ones.Load(), p.timedR.Load())
		}
		pos := make([]int, requests)
		for gpos, i := range grants {
			pos[i] = gpos
		}
		for i := 0; i < requests; i++ {
			for j := i + 1; j < requests; j++ {
				if (classes[i] || classes[j]) && pos[i] > pos[j] {
					t.Fatalf("seed %d: request %d (%s) arrived before %d (%s) but was granted later (order %v, classes %v)",
						seed, i, class(classes[i]), j, class(classes[j]), grants, classes)
				}
			}
		}
	}
}

func class(write bool) string {
	if write {
		return "writer"
	}
	return "reader"
}

// weightProbe is a countProbe that also classifies reader releases by
// weight.
type weightProbe struct {
	countProbe
	untimed, ones, drawn, other atomic.Int64
}

func (p *weightProbe) Released(write bool, heldNs, weight int64) {
	if !write {
		switch weight {
		case 0:
			p.untimed.Add(1)
		case 1:
			p.ones.Add(1)
		case SamplePeriod:
			p.drawn.Add(1)
		default:
			p.other.Add(1)
		}
	}
	p.countProbe.Released(write, heldNs, weight)
}

// TestFCFSPropertyProbeExact is a randomized property test of the
// sampled probe under mixed contention: goroutines issue random RLock,
// Lock and TryLock holds of random length. Whatever the schedule and
// whichever busy periods are drawn, acquisition, release and queue-wait
// totals match the mutex's own WaitStats exactly, every reader release
// carries weight 0, 1 or SamplePeriod, and at least every queued reader
// hold is timed at weight 1.
func TestFCFSPropertyProbeExact(t *testing.T) {
	const (
		seeds   = 10
		workers = 4
		ops     = 300
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		var l FCFSRWMutex
		p := &weightProbe{}
		l.SetProbe(p)
		var reads, writes atomic.Int64 // holds taken
		var wg sync.WaitGroup
		for g := uint64(0); g < workers; g++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					switch k := rng.Intn(10); {
					case k < 6:
						l.RLock()
						reads.Add(1)
						spin(rng.Intn(4))
						l.RUnlock()
					case k < 9:
						l.Lock()
						writes.Add(1)
						spin(rng.Intn(4))
						l.Unlock()
					default:
						if l.TryLock() {
							writes.Add(1)
							spin(rng.Intn(4))
							l.Unlock()
						}
					}
				}
			}(rand.New(rand.NewSource(int64(seed*workers + g))))
		}
		wg.Wait()

		ws := l.WaitStats()
		checks := []struct {
			name      string
			got, want int64
		}{
			{"acquired R", ws.AcquiredR, reads.Load()},
			{"acquired W", ws.AcquiredW, writes.Load()},
			{"probe acquired R", p.acqR.Load(), ws.AcquiredR},
			{"probe acquired W", p.acqW.Load(), ws.AcquiredW},
			{"released R", p.relR.Load(), ws.AcquiredR},
			{"released W", p.relW.Load(), ws.AcquiredW},
			{"probe wait ns R", p.waitR.Load(), ws.WaitNsR},
			{"probe wait ns W", p.waitW.Load(), ws.WaitNsW},
			{"timed writer releases", p.timedW.Load(), ws.AcquiredW},
			{"reader releases by weight", p.untimed.Load() + p.ones.Load() + p.drawn.Load(), p.relR.Load()},
			{"odd reader weights", p.other.Load(), 0},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("seed %d: %s = %d, want %d", seed, c.name, c.got, c.want)
			}
		}
		if p.ones.Load() < ws.ContendedR {
			t.Errorf("seed %d: %d reader holds timed at weight 1, fewer than %d queued ones",
				seed, p.ones.Load(), ws.ContendedR)
		}
		if p.heldW.Load() <= 0 || p.present.Load() < p.heldW.Load() {
			t.Errorf("seed %d: writer presence %d ns does not cover writer holds %d ns",
				seed, p.present.Load(), p.heldW.Load())
		}
	}
}

// spin burns a little CPU inside a hold, yielding so holds overlap.
func spin(n int) {
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}
