package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
)

// nextSample blocks until every shard has published a sample whose
// whole window began after the call: the first sample published after
// the call may have been captured before it, the one after that cannot.
func nextSample(t *testing.T, s *Server) {
	t.Helper()
	if !awaitSamples(s) {
		t.Fatal("a shard published no telemetry sample within 10s")
	}
}

func awaitSamples(s *Server) bool {
	for i := 0; i < 2; i++ {
		for _, w := range samples(s) {
			select {
			case <-w.next:
			case <-time.After(10 * time.Second):
				return false
			}
		}
	}
	return true
}

// samples returns every shard's current sample.
func samples(s *Server) []*window {
	out := make([]*window, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.gov.last.Load()
	}
	return out
}

// superseded reports whether any of ws has been replaced by a newer
// sample.
func superseded(ws []*window) bool {
	for _, w := range ws {
		select {
		case <-w.next:
			return true
		default:
		}
	}
	return false
}

// loadUntilSampled drives pipelined puts and gets through the server
// until every shard has published a sample covering traffic only, then
// stops, so the counters stay put while the test reads.
func loadUntilSampled(t *testing.T, s *Server, addr string) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sampled := make(chan bool, 1)
	go func() { sampled <- awaitSamples(s) }()
	for k := int64(0); ; {
		select {
		case ok := <-sampled:
			if !ok {
				t.Fatal("a shard published no telemetry sample within 10s")
			}
			return
		default:
		}
		for i := 0; i < 64; i++ {
			k++
			c.Send(Request{Op: OpPut, Key: k * 7919, Val: uint64(k)})
			c.Send(Request{Op: OpGet, Key: k})
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// windowed is the part of /metrics that describes the last sample.
type windowed struct {
	WindowS, OpsPerSec float64
	Latency            latencyLine
	Saturation         saturationLine
	Levels             []levelLine
}

func windowedOf(sn shardSnapshot) windowed {
	return windowed{sn.WindowS, sn.OpsPerSec, sn.latencyLine, sn.saturationLine, sn.Levels}
}

func decodeMetrics(t *testing.T, url string) metricsReport {
	t.Helper()
	m, err := fetchMetrics(url)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fetchMetrics(url string) (metricsReport, error) {
	var m metricsReport
	res, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer res.Body.Close()
	return m, json.NewDecoder(res.Body).Decode(&m)
}

func fetchText(url string) (string, error) {
	res, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return string(b), err
}

// TestConcurrentReadersSeeOneSample: two readers of /metrics and
// /debug/model racing between the same two samples get identical
// windowed fields and identical model output, merged and per shard.
// Before the shared sampler each read reset its own window, so two
// scrapers shortened each other's intervals.
func TestConcurrentReadersSeeOneSample(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{
		Algorithm: cbtree.LockCoupling, Capacity: 8, Shards: 2, Prefill: 2000,
		Governor: GovernorConfig{Interval: 100 * time.Millisecond},
	})
	defer shutdown()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for attempt := 0; attempt < 10; attempt++ {
		loadUntilSampled(t, s, addr)
		ws := samples(s)
		var reports [2]metricsReport
		var models [2]string
		var errs [4]error
		var wg sync.WaitGroup
		for r := range reports {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports[r], errs[2*r] = fetchMetrics(hs.URL)
				models[r], errs[2*r+1] = fetchText(hs.URL + "/debug/model")
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if superseded(ws) {
			continue // a sample landed mid-read; the readers may differ
		}
		a, b := reports[0], reports[1]
		if a.OpsPerSec <= 0 || len(a.Levels) == 0 {
			t.Fatalf("sample after load shows no traffic: ops_per_sec=%v levels=%d", a.OpsPerSec, len(a.Levels))
		}
		if !reflect.DeepEqual(windowedOf(a.shardSnapshot), windowedOf(b.shardSnapshot)) {
			t.Errorf("merged windowed fields differ between concurrent readers:\n%+v\n%+v",
				windowedOf(a.shardSnapshot), windowedOf(b.shardSnapshot))
		}
		for i := range a.ShardBlocks {
			if !reflect.DeepEqual(windowedOf(a.ShardBlocks[i].shardSnapshot), windowedOf(b.ShardBlocks[i].shardSnapshot)) {
				t.Errorf("shard %d windowed fields differ between concurrent readers", i)
			}
		}
		if models[0] != models[1] {
			t.Errorf("/debug/model differs between concurrent readers:\n%s\n---\n%s", models[0], models[1])
		}
		return
	}
	t.Fatal("every attempt had a sample land mid-read")
}

// TestReadsLeaveSampleUnchanged: any number of telemetry reads leave
// every shard's stored sample, and the windowed fields /metrics
// reports, exactly as they were.
func TestReadsLeaveSampleUnchanged(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{
		Algorithm: cbtree.LinkType, Capacity: 8, Shards: 2, Prefill: 2000,
		Governor: GovernorConfig{Interval: time.Second},
	})
	defer shutdown()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for attempt := 0; attempt < 10; attempt++ {
		loadUntilSampled(t, s, addr)
		ws := samples(s)
		before := make([]window, len(ws))
		for i, w := range ws {
			before[i] = *w
		}
		first := decodeMetrics(t, hs.URL)
		for i := 0; i < 10; i++ {
			for _, ep := range []string{"/metrics", "/metrics?format=json", "/debug/model", "/healthz"} {
				httpGet(t, hs.URL+ep)
			}
		}
		last := decodeMetrics(t, hs.URL)
		if superseded(ws) {
			continue
		}
		for i, w := range samples(s) {
			if w != ws[i] || !reflect.DeepEqual(*w, before[i]) {
				t.Errorf("shard %d: reads changed the stored sample", i)
			}
		}
		if !reflect.DeepEqual(windowedOf(first.shardSnapshot), windowedOf(last.shardSnapshot)) {
			t.Errorf("windowed fields changed across reads:\n%+v\n%+v",
				windowedOf(first.shardSnapshot), windowedOf(last.shardSnapshot))
		}
		return
	}
	t.Fatal("every attempt had a sample land mid-read")
}

// TestGovernorRhoIsSampledRootRho: on one shard, the ρ_w the governor
// acted on is the measured root ρ_w /metrics reports for the same
// sample.
func TestGovernorRhoIsSampledRootRho(t *testing.T) {
	// Lock-coupling writers W-lock the root on every descent, so the
	// sampled root ρ_w is nonzero under a write-heavy load.
	s, addr, shutdown := startServer(t, Config{
		Algorithm: cbtree.LockCoupling, Capacity: 8, Prefill: 2000,
		Governor: GovernorConfig{Interval: 100 * time.Millisecond, Rho: 2, ExitRho: 1.5},
	})
	defer shutdown()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for attempt := 0; attempt < 10; attempt++ {
		loadUntilSampled(t, s, addr)
		ws := samples(s)
		m := decodeMetrics(t, hs.URL)
		if superseded(ws) {
			continue
		}
		var root *levelLine
		for i := range m.Levels {
			if m.Levels[i].Root {
				root = &m.Levels[i]
			}
		}
		if root == nil || root.RhoW <= 0 {
			t.Fatalf("no busy root level in the sample: %+v", m.Levels)
		}
		if m.GovernorRhoW != root.RhoW || root.RhoW != ws[0].rootRhoW() {
			t.Errorf("governor_rho_w=%v, /metrics root rho_w=%v, sample root rho_w=%v: want all equal",
				m.GovernorRhoW, root.RhoW, ws[0].rootRhoW())
		}
		return
	}
	t.Fatal("every attempt had a sample land mid-read")
}

// TestSamplerRunsWithGovernorDisabled: turning the governor off stops
// shedding, not telemetry.
func TestSamplerRunsWithGovernorDisabled(t *testing.T) {
	s, _, shutdown := startServer(t, Config{
		Algorithm: cbtree.LinkType,
		Governor:  GovernorConfig{Disabled: true, Interval: 10 * time.Millisecond},
	})
	defer shutdown()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	nextSample(t, s)
	m := decodeMetrics(t, hs.URL)
	if m.Governor != "disabled" {
		t.Errorf("governor = %q, want disabled", m.Governor)
	}
	if m.WindowS <= 0 {
		t.Errorf("window_s = %v after a sample, want > 0", m.WindowS)
	}
}
