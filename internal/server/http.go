package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strconv"
	"strings"
	"time"

	"btreeperf/internal/core"
	"btreeperf/internal/metrics"
	"btreeperf/internal/shape"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

// SaturationRho is the paper's §6 saturation threshold: the rules of
// thumb define the effective maximum arrival rate λ_{ρ=.5} as the load at
// which the root's writer utilization ρ_w reaches one half. A measured or
// model root ρ_w at or past this value means the tree is at its effective
// maximum throughput for the chosen algorithm and node size. Sharding
// multiplies the ceiling, not the threshold: each shard's root saturates
// independently at this same value.
const SaturationRho = 0.5

// rootRho returns the measured and model ρ_w at the root level, and
// whether either crosses the saturation threshold.
func rootRho(points []metrics.ModelPoint, height int) (measured, model float64, saturated bool) {
	for _, p := range points {
		if p.Level != height {
			continue
		}
		measured = p.RhoW
		if p.Evaluated {
			model = p.Sol.RhoW
		}
	}
	saturated = measured >= SaturationRho || model >= SaturationRho
	return measured, model, saturated
}

// Handler returns the HTTP mux serving /metrics, /debug/model, and
// /healthz.
func (s *Server) Handler() http.Handler { return s.handler(false) }

// HandlerWithProfiling is Handler plus net/http/pprof mounted under
// /debug/pprof/, exposing the CPU, heap, goroutine, mutex, and block
// profiles on the telemetry listener. Mutex and block profiles are empty
// unless the process also sets runtime.SetMutexProfileFraction and
// runtime.SetBlockProfileRate (btserved's -pprof-mutex-frac and
// -pprof-block-rate flags).
func (s *Server) HandlerWithProfiling() http.Handler { return s.handler(true) }

func (s *Server) handler(profiled bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.guarded(s.handleMetrics))
	mux.HandleFunc("/debug/model", s.guarded(s.handleModel))
	mux.HandleFunc("/healthz", s.guarded(s.handleHealthz))
	mux.HandleFunc("/promote", s.guarded(s.handlePromote))
	if profiled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// guarded wraps a telemetry handler in the server's lifecycle lock: the
// scrape holds the read side for its full duration, so Server.Close (the
// write side) cannot close an engine out from under a handler mid-scrape,
// and scrapes arriving after Close answer 503 without touching any
// engine.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.lifeMu.RLock()
		defer s.lifeMu.RUnlock()
		if s.closed {
			http.Error(w, "server closed", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// handleHealthz reports the server's health: "ok" and "degraded" answer
// 200; "overloaded" (any shard's governor shedding) and "poisoned" (any
// shard's storage engine fail-stopped after an I/O error) answer 503 so
// load balancers stop routing traffic. A poisoned engine never recovers
// in-process — the report stays 503 until the operator restarts the
// server, which re-runs recovery from the last durable state. One bad
// shard is enough to fail aggregate health: clients cannot steer keys
// away from it, so the node as a whole cannot honor its contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.Governor()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var poisoned []int
	for i, sh := range s.shards {
		if sh.eng.Poisoned() != nil {
			poisoned = append(poisoned, i)
		}
	}
	if len(poisoned) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "poisoned")
		for _, i := range poisoned {
			sh := s.shards[i]
			perr := sh.eng.Poisoned()
			if len(s.shards) > 1 {
				fmt.Fprintf(w, "shard=%d engine=%s error=%q commit_fails=%d unavail=%d\n",
					i, sh.eng.Kind(), perr, sh.commitFails.Load(), sh.unavail.Load())
			} else {
				fmt.Fprintf(w, "engine=%s error=%q commit_fails=%d unavail=%d\n",
					sh.eng.Kind(), perr, sh.commitFails.Load(), sh.unavail.Load())
			}
		}
		return
	}
	if g.State == GovOverloaded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, g.State)
	fmt.Fprintf(w, "root_rho_w=%.4f threshold=%.2f exit=%.2f shed_overload=%d shed_busy=%d conn_rejects=%d\n",
		g.RootRhoW, g.Rho, g.ExitRho, g.ShedOverload, g.ShedBusy, g.ConnRejects)
	if rs := s.replicationStats(); rs != nil {
		seqs := make([]int64, len(s.shards))
		for i := range s.shards {
			seqs[i] = s.shardSeq(i)
		}
		fmt.Fprintf(w, "replication role=%s seqs=%v lag_seqs=%d\n", rs.Role, seqs, rs.LagSeqs)
	} else if se, ok := s.shards[0].eng.(seqEngine); ok && se.Journal() != nil {
		// Unreplicated but journal-backed: still report the durable seqs —
		// the committed bound a future follower would resume from.
		seqs := make([]int64, len(s.shards))
		for i := range s.shards {
			seqs[i] = s.shardSeq(i)
		}
		fmt.Fprintf(w, "seqs durable=%v\n", seqs)
	}
	if len(s.shards) > 1 {
		for i, sh := range s.shards {
			gs := sh.gov.Status()
			fmt.Fprintf(w, "shard=%d state=%s rho_w=%.4f shed_overload=%d shed_busy=%d\n",
				i, gs.State, gs.RootRhoW, gs.ShedOverload, gs.ShedBusy)
		}
	}
}

// metricsReport is /metrics: rendered as JSON with ?format=json, else as
// text through writeText. On a multi-shard server the embedded snapshot
// is the merged view (mergeSnapshots) and ShardBlocks carries each
// shard's own snapshot; a single-shard server reports its one shard at
// the top level, with no shard blocks.
type metricsReport struct {
	serverLine `text:"btserved"`
	shardSnapshot

	// Replication is present only on a leader or follower.
	Replication *replicationJSON `json:"replication,omitempty" text:"replication"`

	ShardBlocks []shardBlock `json:"shard_blocks,omitempty" text:"-"`
}

// shardBlock is one shard's snapshot on a multi-shard /metrics.
type shardBlock struct {
	Shard int `json:"shard"`
	shardSnapshot
}

type serverLine struct {
	UptimeS       float64 `json:"uptime_s"`
	Algorithm     string  `json:"algorithm"`
	Capacity      int     `json:"capacity"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	Conns         int64   `json:"connections"`
	ConnRejects   int64   `json:"conn_rejects"`
	ReadTimeouts  int64   `json:"read_timeouts"`
	WriteTimeouts int64   `json:"write_timeouts"`
}

// shardSnapshot is one shard's telemetry as a read sees it: cumulative
// counters as of the read, and the window of the shard's last sample
// with the queueing model evaluated at it. Each embedded struct is one
// text line and flattens into the JSON object.
type shardSnapshot struct {
	treeLine       `text:"tree"`
	opsLine        `text:"ops"`
	latencyLine    `text:"op_latency_us"`
	queryLine      `text:"query"`
	engineLine     `text:"engine"`
	checkpointLine `text:"checkpoint"`
	seqLine        `text:"seqs"`
	governorLine   `text:"governor"`
	saturationLine `text:"saturation"`

	Levels []levelLine `json:"levels"`

	win    *window              // the sample the windowed fields describe
	points []metrics.ModelPoint // the model evaluated at win
}

type treeLine struct {
	Keys      int   `json:"keys"`
	Height    int   `json:"height"`
	Splits    int64 `json:"splits"`
	Restarts  int64 `json:"restarts"`
	Crossings int64 `json:"crossings"`

	// OLC latch-free read telemetry; zero under the locking algorithms.
	ReadRestarts  int64 `json:"read_restarts"`
	ReadFallbacks int64 `json:"read_fallbacks"`
}

type opsLine struct {
	WindowS   float64 `json:"window_s"`    // the last sample's interval
	OpsPerSec float64 `json:"ops_per_sec"` // over the last sample
	Gets      int64   `json:"gets"`
	Puts      int64   `json:"puts"`
	Dels      int64   `json:"dels"`
	BadReqs   int64   `json:"bad_requests"`
}

// latencyLine is the per-op tree service time over the last sample.
type latencyLine struct {
	OpMeanUs float64 `json:"op_mean_us"`
	OpP50Us  float64 `json:"op_p50_us"`
	OpP99Us  float64 `json:"op_p99_us"`
}

// queryLine is query traffic: pages served (a scan of k pages counts
// k), entries returned on those pages, and — when the server runs the
// secondary index — lookup pages, lookup entries, and the index's size.
type queryLine struct {
	Scans      int64 `json:"scan_pages"`
	ScanKeys   int64 `json:"scan_keys"`
	Seeks      int64 `json:"seeks"`
	Lookups    int64 `json:"lookup_pages"`
	LookupKeys int64 `json:"lookup_keys"`
	Indexed    bool  `json:"indexed"`
	IndexKeys  int64 `json:"index_keys"`
}

type engineLine struct {
	Engine        string `json:"engine"` // mem | disk
	Poisoned      bool   `json:"poisoned"`
	Recovered     int64  `json:"recovered_ops"`
	OplogAppended int64  `json:"oplog_appended"`
	OplogSynced   int64  `json:"oplog_synced"`
	OplogBytes    int64  `json:"oplog_bytes"`
	Fsyncs        int64  `json:"group_commit_fsyncs"`
	Checkpoints   int64  `json:"checkpoints"`
	CheckpointLag int64  `json:"checkpoint_lag"`
	CkptFails     int64  `json:"ckpt_fails"`
	CommitFails   int64  `json:"commit_fails"`
	Unavail       int64  `json:"unavail"`
}

// checkpointLine is the checkpoint install pause and the in-flight
// walk's progress.
type checkpointLine struct {
	CkptPauseLastUs float64 `json:"ckpt_pause_last_us"`
	CkptPauseMaxUs  float64 `json:"ckpt_pause_max_us"`
	CkptChunksDone  int64   `json:"ckpt_chunks_done"`
	CkptChunksTotal int64   `json:"ckpt_chunks_total"`
}

// seqLine is the global sequence positions and the oplog-segment
// retention held for lagging followers.
type seqLine struct {
	SeqAppended   int64 `json:"seq_appended"`
	SeqDurable    int64 `json:"seq_durable"`
	SeqLowest     int64 `json:"seq_lowest"`
	RetainedSegs  int64 `json:"retained_segments"`
	RetainedBytes int64 `json:"retained_bytes"`

	// Seq is the replication sequence: applied on a follower, durable on
	// a journal-backed leader, zero otherwise.
	Seq int64 `json:"seq"`
}

type governorLine struct {
	Governor      string  `json:"governor"` // ok | degraded | overloaded | disabled
	GovernorRhoW  float64 `json:"governor_rho_w"`
	GovernorRho   float64 `json:"governor_threshold"`
	GovernorExit  float64 `json:"governor_exit"`
	GovernorFlips int64   `json:"governor_transitions"`
	ShedOverload  int64   `json:"shed_overload"`
	ShedBusy      int64   `json:"shed_busy"`
}

func govLine(g GovStatus) governorLine {
	name := g.State.String()
	if g.Disabled {
		name = "disabled"
	}
	return governorLine{
		Governor:      name,
		GovernorRhoW:  g.RootRhoW,
		GovernorRho:   g.Rho,
		GovernorExit:  g.ExitRho,
		GovernorFlips: g.Transitions,
		ShedOverload:  g.ShedOverload,
		ShedBusy:      g.ShedBusy,
	}
}

// saturationLine is the root ρ_w of the last sample, measured and as
// the model predicts it.
type saturationLine struct {
	RootRhoW  float64 `json:"root_rho_w"`
	ModelRhoW float64 `json:"model_rho_w"`
	Saturated bool    `json:"saturated"`
}

// snapshot reads one shard's telemetry. It evaluates the model at the
// shard's last sample and writes no shared state.
func (s *Server) snapshot(sh *shard) shardSnapshot {
	w := sh.gov.last.Load()
	es := sh.eng.Stats()
	sn := shardSnapshot{win: w, points: metrics.EvaluateAll(w.Rates)}
	sn.treeLine = treeLine{
		Keys: sh.eng.Len(), Height: sh.eng.Height(),
		Splits: es.Splits, Restarts: es.Restarts, Crossings: es.Crossings,
		ReadRestarts: es.ReadRestarts, ReadFallbacks: es.ReadFallbacks,
	}
	sn.opsLine = opsLine{
		WindowS: w.Dt, OpsPerSec: w.OpRate,
		Gets: sh.gets.Load(), Puts: sh.puts.Load(), Dels: sh.dels.Load(), BadReqs: sh.opBad.Load(),
	}
	sn.latencyLine = latencyOf(w.ObsMeanNs, w.OpHist)
	sn.queryLine = queryLine{
		Scans: sh.scans.Load(), ScanKeys: sh.scanKeys.Load(), Seeks: sh.seeks.Load(),
		Lookups: sh.lookups.Load(), LookupKeys: sh.lookupKeys.Load(), Indexed: sh.idx != nil,
	}
	if sh.idx != nil {
		sn.IndexKeys = int64(sh.idx.Len())
	}
	sn.engineLine = engineLine{
		Engine: sh.eng.Kind(), Poisoned: sh.eng.Poisoned() != nil, Recovered: es.Recovered,
		OplogAppended: es.Appended, OplogSynced: es.Synced, OplogBytes: es.OplogBytes,
		Fsyncs: es.Fsyncs, Checkpoints: es.Checkpoints, CheckpointLag: es.CheckpointLag,
		CkptFails: es.CheckpointFails, CommitFails: sh.commitFails.Load(), Unavail: sh.unavail.Load(),
	}
	sn.checkpointLine = checkpointLine{
		CkptPauseLastUs: float64(es.CkptPauseLastNs) / 1e3, CkptPauseMaxUs: float64(es.CkptPauseMaxNs) / 1e3,
		CkptChunksDone: es.CkptChunksDone, CkptChunksTotal: es.CkptChunksTotal,
	}
	sn.seqLine = seqLine{
		SeqAppended: es.SeqAppended, SeqDurable: es.SeqDurable, SeqLowest: es.SeqLowest,
		RetainedSegs: es.RetainedSegs, RetainedBytes: es.RetainedBytes, Seq: s.shardSeq(sh.id),
	}
	sn.governorLine = govLine(sh.gov.Status())
	sn.RootRhoW, sn.ModelRhoW, sn.Saturated = rootRho(sn.points, w.Height)
	sn.Levels = levelLines(sn.points, w.Height)
	return sn
}

func (s *Server) snapshots() []shardSnapshot {
	out := make([]shardSnapshot, len(s.shards))
	for i, sh := range s.shards {
		out[i] = s.snapshot(sh)
	}
	return out
}

func latencyOf(meanNs float64, h metrics.HistSnapshot) latencyLine {
	return latencyLine{
		OpMeanUs: meanNs / 1e3,
		OpP50Us:  float64(h.Quantile(0.5)) / 1e3,
		OpP99Us:  float64(h.Quantile(0.99)) / 1e3,
	}
}

// mergeSnapshots folds per-shard snapshots into the merged view: counts,
// sizes and rates sum; height, window, checkpoint pauses and ρ_w take
// the max; latencies come from the bucket-merged op histograms and
// levels merge by depth. The merged root_rho_w is the hotter of measured
// and model — saturation anywhere is saturation. The governor line is
// the caller's (Server.Governor merges the governors).
func mergeSnapshots(shs []shardSnapshot) shardSnapshot {
	var m shardSnapshot
	var hist metrics.HistSnapshot
	var ops int64
	var opNs float64
	m.Engine = shs[0].Engine
	for _, sn := range shs {
		m.Keys += sn.Keys
		m.Height = max(m.Height, sn.Height)
		m.Splits += sn.Splits
		m.Restarts += sn.Restarts
		m.Crossings += sn.Crossings
		m.ReadRestarts += sn.ReadRestarts
		m.ReadFallbacks += sn.ReadFallbacks

		m.WindowS = max(m.WindowS, sn.WindowS)
		m.OpsPerSec += sn.OpsPerSec
		m.Gets += sn.Gets
		m.Puts += sn.Puts
		m.Dels += sn.Dels
		m.BadReqs += sn.BadReqs
		hist = hist.Add(sn.win.OpHist)
		ops += sn.win.Ops
		opNs += sn.win.ObsMeanNs * float64(sn.win.Ops)

		m.Scans += sn.Scans
		m.ScanKeys += sn.ScanKeys
		m.Seeks += sn.Seeks
		m.Lookups += sn.Lookups
		m.LookupKeys += sn.LookupKeys
		m.Indexed = m.Indexed || sn.Indexed
		m.IndexKeys += sn.IndexKeys

		m.Poisoned = m.Poisoned || sn.Poisoned
		m.Recovered += sn.Recovered
		m.OplogAppended += sn.OplogAppended
		m.OplogSynced += sn.OplogSynced
		m.OplogBytes += sn.OplogBytes
		m.Fsyncs += sn.Fsyncs
		m.Checkpoints += sn.Checkpoints
		m.CheckpointLag += sn.CheckpointLag
		m.CkptFails += sn.CkptFails
		m.CommitFails += sn.CommitFails
		m.Unavail += sn.Unavail

		m.CkptPauseLastUs = max(m.CkptPauseLastUs, sn.CkptPauseLastUs)
		m.CkptPauseMaxUs = max(m.CkptPauseMaxUs, sn.CkptPauseMaxUs)
		m.CkptChunksDone += sn.CkptChunksDone
		m.CkptChunksTotal += sn.CkptChunksTotal

		m.SeqAppended += sn.SeqAppended
		m.SeqDurable += sn.SeqDurable
		m.SeqLowest += sn.SeqLowest
		m.RetainedSegs += sn.RetainedSegs
		m.RetainedBytes += sn.RetainedBytes
		m.Seq += sn.Seq

		m.RootRhoW = max(m.RootRhoW, sn.RootRhoW, sn.ModelRhoW)
		m.ModelRhoW = max(m.ModelRhoW, sn.ModelRhoW)
		m.Saturated = m.Saturated || sn.Saturated
	}
	meanNs := 0.0
	if ops > 0 {
		meanNs = opNs / float64(ops)
	}
	m.latencyLine = latencyOf(meanNs, hist)
	m.Levels = mergeLevels(shs)
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shs := s.snapshots()
	eng0 := s.shards[0].eng
	gov := s.Governor()
	out := metricsReport{
		serverLine: serverLine{
			UptimeS:       time.Since(s.start).Seconds(),
			Algorithm:     eng0.Algorithm(),
			Capacity:      eng0.Cap(),
			Shards:        len(s.shards),
			Workers:       s.cfg.Workers,
			Conns:         s.connsNow.Load(),
			ConnRejects:   gov.ConnRejects,
			ReadTimeouts:  s.readTimeouts.Load(),
			WriteTimeouts: s.writeTimeouts.Load(),
		},
		shardSnapshot: mergeSnapshots(shs),
		Replication:   s.replicationStats(),
	}
	out.BadReqs += s.badReqs.Load()
	out.governorLine = govLine(gov)
	if len(shs) > 1 {
		for i, sn := range shs {
			out.ShardBlocks = append(out.ShardBlocks, shardBlock{Shard: i, shardSnapshot: sn})
		}
	}

	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeText(w, "", reflect.ValueOf(out))
	for _, b := range out.ShardBlocks {
		writeText(w, fmt.Sprintf("shard=%d", b.Shard), reflect.ValueOf(b.shardSnapshot))
	}
	if out.Saturated {
		fmt.Fprintf(w, "WARNING: root writer utilization rho_w >= %.2f — the tree is past the paper's effective maximum arrival rate (§6, rules of thumb 1–4)\n", SaturationRho)
	}
}

// writeText renders a telemetry struct as lines of key=value pairs keyed
// by JSON name. The struct's scalar fields form one line led by name;
// then, in field order, each embedded struct tagged text:"x" and each
// non-nil struct pointer tagged text:"x" is written led by "name x", an
// untagged embedded struct continues under name, and a struct slice
// writes each element under "name x" (or name when untagged). Fields
// tagged text:"-" and empty omitempty fields are skipped.
func writeText(w io.Writer, name string, v reflect.Value) {
	line := []string{name}
	var nested []func()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		tag := f.Tag.Get("text")
		if tag == "-" || (!f.Anonymous && !f.IsExported()) {
			continue
		}
		child := strings.TrimSpace(name + " " + tag)
		key, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous:
			nested = append(nested, func() { writeText(w, child, fv) })
		case fv.Kind() == reflect.Pointer:
			if !fv.IsNil() {
				nested = append(nested, func() { writeText(w, child, fv.Elem()) })
			}
		case fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Struct:
			nested = append(nested, func() {
				for j := 0; j < fv.Len(); j++ {
					writeText(w, child, fv.Index(j))
				}
			})
		case opts == "omitempty" && (fv.IsZero() || (fv.Kind() == reflect.Slice && fv.Len() == 0)):
		default:
			line = append(line, key+"="+textValue(fv))
		}
	}
	if len(line) > 1 {
		fmt.Fprintln(w, strings.TrimSpace(strings.Join(line, " ")))
	}
	for _, fn := range nested {
		fn()
	}
}

func textValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'f', 4, 64)
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = textValue(v.Index(i))
		}
		return strings.Join(parts, ",")
	default:
		return fmt.Sprint(v.Interface())
	}
}

// replicationJSON is the /metrics replication block: role-common
// refusal counters plus the active role's stream telemetry
// (Server.replicationStats).
type replicationJSON struct {
	Role        string `json:"role"` // leader | follower
	Epoch       uint64 `json:"epoch"`
	Acks        int    `json:"acks"`         // configured semi-sync requirement
	AckTimeouts int64  `json:"ack_timeouts"` // batches that missed the barrier
	NotLeader   int64  `json:"not_leader"`   // mutations refused on a follower
	Lagging     int64  `json:"lagging"`      // getseqs refused past the bound

	// Leader side.
	OpsShipped   int64                 `json:"ops_shipped,omitempty"`
	BytesShipped int64                 `json:"bytes_shipped,omitempty"`
	AcksRecv     int64                 `json:"acks_received,omitempty"`
	Snapshots    int64                 `json:"snapshots,omitempty"`
	Evictions    int64                 `json:"evictions,omitempty"`
	Followers    []replicationFollower `json:"followers,omitempty" text:"follower"`

	// Follower side.
	Applied    []int64 `json:"applied,omitempty"` // per shard
	Heads      []int64 `json:"heads,omitempty"`   // leader durable head per shard
	LagSeqs    int64   `json:"lag_seqs,omitempty"`
	OpsApplied int64   `json:"ops_applied,omitempty"`
	Reconnects int64   `json:"reconnects,omitempty"`
	Connected  bool    `json:"connected,omitempty"`
}

// replicationFollower is one follower's position as the leader sees it.
type replicationFollower struct {
	ID        uint64  `json:"id"`
	Addr      string  `json:"addr"`
	Connected bool    `json:"connected"`
	Acked     []int64 `json:"acked"` // per shard
	LagSeqs   int64   `json:"lag_seqs"`
	LagBytes  int64   `json:"lag_bytes"`
}

type levelLine struct {
	Level     int     `json:"level"`
	Root      bool    `json:"root"`
	LambdaR   float64 `json:"lambda_r"`
	LambdaW   float64 `json:"lambda_w"`
	MuR       float64 `json:"mu_r"`
	MuW       float64 `json:"mu_w"`
	HoldRUs   float64 `json:"hold_r_us"`
	HoldWUs   float64 `json:"hold_w_us"`
	WaitRUs   float64 `json:"wait_r_us"`
	WaitWUs   float64 `json:"wait_w_us"`
	WaitWP99  float64 `json:"wait_w_p99_us"`
	RhoW      float64 `json:"rho_w"`
	ModelRhoW float64 `json:"model_rho_w"`
	Stable    bool    `json:"model_stable"`

	// OLC latch-free read telemetry for this level over the window.
	ReadRestarts  int64   `json:"read_restarts"`
	ReadFallbacks int64   `json:"read_fallbacks"`
	RestartRate   float64 `json:"restart_rate"`
	FallbackRate  float64 `json:"fallback_rate"`
}

func us(sec float64) float64 { return sec * 1e6 }

// levelLines converts one shard's model points, marking the shard's root.
func levelLines(points []metrics.ModelPoint, height int) []levelLine {
	var out []levelLine
	for _, p := range points {
		lj := levelLine{
			Level:    p.Level,
			Root:     p.Level == height,
			LambdaR:  p.LambdaR,
			LambdaW:  p.LambdaW,
			MuR:      p.MuR,
			MuW:      p.MuW,
			HoldRUs:  us(p.MeanHoldR),
			HoldWUs:  us(p.MeanHoldW),
			WaitRUs:  us(p.MeanWaitR),
			WaitWUs:  us(p.MeanWaitW),
			WaitWP99: float64(p.WaitHistW.Quantile(0.99)) / 1e3,
			RhoW:     p.RhoW,

			ReadRestarts:  p.ReadRestarts,
			ReadFallbacks: p.ReadFallbacks,
			RestartRate:   p.RestartRate,
			FallbackRate:  p.FallbackRate,
		}
		if p.Evaluated {
			lj.ModelRhoW = p.Sol.RhoW
			lj.Stable = p.Sol.Stable
		}
		out = append(out, lj)
	}
	return out
}

// mergeLevels folds every shard's model points into one per-level view:
// arrival rates sum (total offered load at that depth across shards),
// service rates and holds are arrival-weighted means, and both measured
// and model ρ_w take the max over shards — the merged gauge answers "is
// any root at this depth saturated", which is what sharding makes the
// operative question. Stable is the conjunction over evaluated shards.
func mergeLevels(shs []shardSnapshot) []levelLine {
	maxH := 0
	for _, sn := range shs {
		for _, p := range sn.points {
			if p.Level > maxH {
				maxH = p.Level
			}
		}
	}
	var out []levelLine
	for lvl := 1; lvl <= maxH; lvl++ {
		m := levelLine{Level: lvl, Stable: true}
		var wsum, muR, muW, holdR, holdW, waitR, waitW float64
		var hist metrics.HistSnapshot
		found, anyEval := false, false
		for _, sn := range shs {
			for _, p := range sn.points {
				if p.Level != lvl {
					continue
				}
				found = true
				wgt := p.LambdaR + p.LambdaW
				if wgt <= 0 {
					wgt = 1
				}
				wsum += wgt
				m.LambdaR += p.LambdaR
				m.LambdaW += p.LambdaW
				muR += wgt * p.MuR
				muW += wgt * p.MuW
				holdR += wgt * us(p.MeanHoldR)
				holdW += wgt * us(p.MeanHoldW)
				waitR += wgt * us(p.MeanWaitR)
				waitW += wgt * us(p.MeanWaitW)
				hist = hist.Add(p.WaitHistW)
				m.ReadRestarts += p.ReadRestarts
				m.ReadFallbacks += p.ReadFallbacks
				m.RestartRate += p.RestartRate
				m.FallbackRate += p.FallbackRate
				if p.RhoW > m.RhoW {
					m.RhoW = p.RhoW
				}
				m.Root = m.Root || p.Level == sn.win.Height
				if p.Evaluated {
					anyEval = true
					if p.Sol.RhoW > m.ModelRhoW {
						m.ModelRhoW = p.Sol.RhoW
					}
					m.Stable = m.Stable && p.Sol.Stable
				}
			}
		}
		if !found {
			continue
		}
		if wsum > 0 {
			m.MuR = muR / wsum
			m.MuW = muW / wsum
			m.HoldRUs = holdR / wsum
			m.HoldWUs = holdW / wsum
			m.WaitRUs = waitR / wsum
			m.WaitWUs = waitW / wsum
		}
		m.WaitWP99 = float64(hist.Quantile(0.99)) / 1e3
		if !anyEval {
			m.Stable = false
		}
		out = append(out, m)
	}
	return out
}

// handlePromote flips a follower into a leader (POST only). It answers
// 409 on a server that is not currently following — promotion of a
// leader or an unreplicated server is always an operator error — and
// 500 when the installed hook fails partway (the server may be left
// leaderless; the operator retries or restarts).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	epoch, err := s.Promote()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNotFollower) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "promoted epoch=%d\n", epoch)
}

// modelSection renders one shard's predicted-vs-measured table.
func modelSection(w http.ResponseWriter, sn shardSnapshot) {
	tb := table.New("per-level FCFS R/W queues (leaf=1 .. root)",
		"level", "λ_r/s", "λ_w/s", "μ_r/s", "μ_w/s",
		"ρ_w meas", "ρ_w model", "T_a µs", "W_w meas µs", "W_w pred µs", "stable")
	for _, p := range sn.points {
		row := []string{
			fmt.Sprintf("%d", p.Level),
			table.F(p.LambdaR), table.F(p.LambdaW),
			table.F(p.MuR), table.F(p.MuW),
			table.F(p.RhoW),
		}
		if p.Evaluated {
			row = append(row,
				table.F(p.Sol.RhoW),
				table.F(us(p.Sol.TA)),
				table.F(us(p.MeanWaitW)),
				table.F(us(p.PredWaitW)),
				fmt.Sprintf("%v", p.Sol.Stable))
		} else {
			row = append(row, "-", "-", table.F(us(p.MeanWaitW)), "-", "-")
		}
		tb.AddRow(row...)
	}
	tb.Render(w)

	predNs := metrics.PredictedResponse(sn.points, sn.win.OpRate) * 1e9
	fmt.Fprintf(w, "\nresponse time: observed mean %.1f µs, model predicted %.1f µs",
		sn.win.ObsMeanNs/1e3, predNs/1e3)
	if sn.win.ObsMeanNs > 0 && predNs > 0 {
		ratio := predNs / sn.win.ObsMeanNs
		fmt.Fprintf(w, " (pred/obs = %.2f)", ratio)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "root rho_w: measured %.4f, model %.4f, threshold %.2f\n", sn.RootRhoW, sn.ModelRhoW, SaturationRho)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	shs := s.snapshots()
	alg := s.shards[0].eng.Algorithm()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	if len(shs) == 1 {
		sn := shs[0]
		fmt.Fprintf(w, "qmodel evaluated at measured parameters (window %.2fs, %d ops, %.0f ops/s, algorithm %s)\n\n",
			sn.win.Dt, sn.win.Ops, sn.win.OpRate, alg)
		modelSection(w, sn)
		if sn.Saturated {
			fmt.Fprintf(w, "WARNING: SATURATED — root writer utilization ρ_w >= %.2f, the paper's effective maximum arrival rate λ_{ρ=.5} (§6, rules of thumb 1–4). Raise node capacity (Optimistic/Link-type) or shard.\n", SaturationRho)
		} else {
			fmt.Fprintf(w, "root below the λ_{ρ=.5} saturation threshold\n")
		}
		s.saturationForecast(w)
		return
	}

	// Multi-shard: the model is a per-tree model, so each shard gets its
	// own evaluation at its own measured parameters, followed by the
	// aggregate verdict.
	var totOps int64
	var totRate float64
	saturatedShards := 0
	for _, sn := range shs {
		totOps += sn.win.Ops
		totRate += sn.win.OpRate
		if sn.Saturated {
			saturatedShards++
		}
	}
	fmt.Fprintf(w, "qmodel evaluated per shard at measured parameters (%d shards, %d ops, %.0f ops/s aggregate, algorithm %s)\n",
		len(shs), totOps, totRate, alg)
	for i, sn := range shs {
		fmt.Fprintf(w, "\n--- shard %d (window %.2fs, %d ops, %.0f ops/s) ---\n\n",
			i, sn.win.Dt, sn.win.Ops, sn.win.OpRate)
		modelSection(w, sn)
		if sn.Saturated {
			fmt.Fprintf(w, "shard %d SATURATED: root ρ_w >= %.2f\n", i, SaturationRho)
		} else {
			fmt.Fprintf(w, "shard %d below the λ_{ρ=.5} saturation threshold\n", i)
		}
	}
	fmt.Fprintf(w, "\naggregate: %d/%d shards saturated\n", saturatedShards, len(shs))
	if saturatedShards == len(shs) {
		fmt.Fprintf(w, "WARNING: SATURATED — every shard's root is past λ_{ρ=.5} (§6, rules of thumb 1–4). Raise node capacity (Optimistic/Link-type) or add shards.\n")
	} else if saturatedShards > 0 {
		fmt.Fprintf(w, "WARNING: partial saturation — the hottest shard's root is past λ_{ρ=.5}; the hash router cannot steer keys away from it\n")
	}
	s.saturationForecast(w)
}

// saturationForecast prints the framework's predicted effective maximum
// arrival rate λ_{ρ=.5} for each analyzable algorithm — NLC, OD, Link and
// the fourth, OLC — at the live tree's shape and measured operation mix.
// This is the §6 planning view behind the "raise capacity or shard"
// advice: it shows what ceiling each protocol choice would buy at this
// tree size. OLC's ceiling matches Link-type's (its writers are
// Link-type writers; its readers never occupy a queue), so the line
// quantifies how far the weaker protocols fall short rather than ranking
// OLC above Link here — OLC's advantage is response time below the
// ceiling, visible in the per-level wait columns above.
func (s *Server) saturationForecast(w io.Writer) {
	eng := s.shards[0].eng
	keys := 0
	var gets, puts, dels int64
	for _, sh := range s.shards {
		keys += sh.eng.Len()
		gets += sh.gets.Load()
		puts += sh.puts.Load()
		dels += sh.dels.Load()
	}
	tot := gets + puts + dels
	if tot == 0 || keys <= eng.Cap() {
		return // no traffic or a root-only tree: nothing to forecast
	}
	mix := workload.Mix{
		QS: float64(gets) / float64(tot),
		QI: float64(puts) / float64(tot),
		QD: float64(dels) / float64(tot),
	}
	// The shape model describes a tree grown by its workload; it needs a
	// growing mix. A read-only or shrinking window still gets a forecast,
	// pinned at the paper's canonical mix.
	if mix.QI <= mix.QD {
		mix = workload.PaperMix
	}
	shp, err := shape.New(keys, eng.Cap(), mix.QI, mix.QD)
	if err != nil {
		return
	}
	costs := core.PaperCosts(1)
	costs.MemLevels = shp.Height // the serving tree is memory-resident
	m := core.Model{Shape: shp, Costs: costs}
	fmt.Fprintf(w, "\npredicted λ_{ρ=.5} per algorithm at this tree (%d keys, cap %d, mix qs=%.2f qi=%.2f qd=%.2f; model time units):\n",
		keys, eng.Cap(), mix.QS, mix.QI, mix.QD)
	for _, alg := range []core.Algorithm{core.NLC, core.OD, core.Link, core.OLC} {
		leff, err := core.EffectiveMaxThroughput(alg, m, core.Workload{Mix: mix}, SaturationRho, 1e-3)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-4s λ_eff = %s\n", alg, table.F(leff))
	}
}
