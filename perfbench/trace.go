package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"orchestra"
	"orchestra/internal/updates"
)

// Tracing is the benchmark's own: spans around its calls into each layer,
// kept in memory and written out when the run ends. A round or request is
// a root span, each exported call a child, each call the store wrapper sees
// a grandchild. At each round boundary the registry's exchange_drain spans
// are folded in under the reconcile they ran in, and the registry's counter
// deltas are recorded. Every method is a no-op on a nil *tracePass, which
// is what untraced passes use.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Peer   string `json:"peer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	loop   bool
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

type histDelta struct{ count, sum int64 }

// tracePass holds one traced pass: its spans and everything the per-layer
// metrics are computed from. The loop fields only count inside the
// measured loops, not at set-up or in restarts.
type tracePass struct {
	t0          time.Time
	spans       []span
	open        []int
	roundDeltas []map[string]int64

	inLoop   bool
	sys      *orchestra.System
	prev     *orchestra.MetricsSnapshot
	lastSpan uint64
	recSpans []int

	counters        map[string]int64
	hists           map[string]histDelta
	eval            orchestra.EvalCounters
	checkpointBytes int64

	qstats                                orchestra.EvalStats
	queries, rounds                       int
	accepted, rejected, deferred, applied int
	replayTxns, loadMs                    []float64
	reconUs, applyUs                      []float64
	storePublishUs, storeSinceUs          []float64
	storeCalls, sinceCalls, sinceTxns     int
	mem0                                  runtime.MemStats
	alloc, gcs                            uint64
	calls0, calls                         int
}

func newTracePass() *tracePass {
	return &tracePass{t0: time.Now(), counters: map[string]int64{}, hists: map[string]histDelta{}}
}

func (tp *tracePass) now() int64 { return time.Since(tp.t0).Nanoseconds() }

// spanID is the id the next begin will return.
func (tp *tracePass) spanID() int {
	if tp == nil {
		return 0
	}
	return len(tp.spans) + 1
}

func (tp *tracePass) begin(name, layer, peer string) int {
	if tp == nil {
		return 0
	}
	parent := 0
	if len(tp.open) > 0 {
		parent = tp.open[len(tp.open)-1]
	}
	tp.spans = append(tp.spans, span{ID: len(tp.spans) + 1, Parent: parent, Name: name, Layer: layer, Peer: peer, Start: tp.now(), loop: tp.inLoop})
	tp.open = append(tp.open, len(tp.spans))
	return len(tp.spans)
}

func (tp *tracePass) end(id int) {
	if tp == nil || id == 0 {
		return
	}
	tp.spans[id-1].End = tp.now()
	tp.open = tp.open[:len(tp.open)-1]
}

// aside takes what follows out of the measured loop until the returned
// function runs: restarts are not part of any round.
func (tp *tracePass) aside() func() {
	if tp == nil {
		return func() {}
	}
	was := tp.inLoop
	tp.inLoop = false
	return func() { tp.inLoop = was }
}

func (tp *tracePass) queried() {
	if tp != nil && tp.inLoop {
		tp.queries++
	}
}

func (tp *tracePass) reconciled(id int, rep *orchestra.ReconcileReport) {
	if tp == nil || !tp.inLoop {
		return
	}
	tp.recSpans = append(tp.recSpans, id)
	tp.accepted += len(rep.Accepted)
	tp.rejected += len(rep.Rejected)
	tp.deferred += len(rep.Deferred)
	tp.applied += rep.AppliedUpdates
}

// recovered reads the recovery counters of a System opened on a crash image.
func (tp *tracePass) recovered(sys *orchestra.System) {
	if tp == nil {
		return
	}
	h := sys.Metrics().Histograms
	r, l := h["recovery_replay_txns"], h["recovery_load_ns"]
	tp.replayTxns = append(tp.replayTxns, float64(r.Sum))
	tp.loadMs = append(tp.loadMs, float64(l.Sum)/1e6)
}

// replayed records how many transactions a restarted store replica read
// back from its log, which no registry counts.
func (tp *tracePass) replayed(n int) {
	if tp != nil {
		tp.replayTxns = append(tp.replayTxns, float64(n))
	}
}

func (tp *tracePass) loopStart(e *episode) {
	if tp == nil {
		return
	}
	tp.inLoop, tp.sys, tp.prev = true, e.sys, e.sys.Metrics()
	for _, s := range tp.prev.Spans {
		tp.lastSpan = max(tp.lastSpan, s.ID)
	}
	tp.calls0 = e.b.attempted
	runtime.ReadMemStats(&tp.mem0)
}

func (tp *tracePass) loopEnd(e *episode) {
	if tp == nil {
		return
	}
	tp.fold(false)
	tp.inLoop = false
	tp.checkpointBytes = tp.prev.Gauges["checkpoint_bytes"]
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tp.alloc += m.TotalAlloc - tp.mem0.TotalAlloc
	tp.gcs += uint64(m.NumGC - tp.mem0.NumGC)
	tp.calls += e.b.attempted - tp.calls0
	if e.shadow != nil {
		live, err := digestPeer(e.byName[e.shadow.name])
		if err != nil || live != e.shadow.digest() {
			e.b.problem("shadow %s rows differ from the live peer (%v)", e.shadow.name, err)
		}
	}
}

func (tp *tracePass) roundEnd(e *episode) {
	if tp == nil || !tp.inLoop {
		return
	}
	tp.rounds++
	tp.fold(true)
}

// fold takes a registry snapshot, attaches the exchange_drain spans recorded
// since the last one to the reconcile spans that contain them, and adds the
// counter and histogram deltas.
func (tp *tracePass) fold(keep bool) {
	cur := tp.sys.Metrics()
	for _, rs := range cur.Spans {
		if rs.ID <= tp.lastSpan {
			continue
		}
		tp.lastSpan = rs.ID
		if rs.Name != "exchange_drain" {
			continue
		}
		start := rs.Start - tp.t0.UnixNano()
		for _, id := range tp.recSpans {
			p := tp.spans[id-1]
			if p.Peer == rs.Peer && p.Start <= start && start <= p.End {
				tp.spans = append(tp.spans, span{ID: len(tp.spans) + 1, Parent: id, Name: "exchange_drain", Layer: "exchange",
					Peer: rs.Peer, Start: start, End: start + rs.DurationNs, loop: true})
				break
			}
		}
	}
	tp.recSpans = tp.recSpans[:0]
	delta := map[string]int64{}
	for k, v := range cur.Counters {
		if d := v - tp.prev.Counters[k]; d != 0 {
			delta[k] = d
			tp.counters[k] += d
		}
	}
	for k, h := range cur.Histograms {
		p := tp.prev.Histograms[k]
		if h.Count != p.Count {
			d := tp.hists[k]
			tp.hists[k] = histDelta{d.count + h.Count - p.Count, d.sum + h.Sum - p.Sum}
		}
	}
	e0, e1 := tp.prev.Eval, cur.Eval
	tp.eval.Probes += e1.Probes - e0.Probes
	tp.eval.PushdownProbes += e1.PushdownProbes - e0.PushdownProbes
	tp.eval.Emitted += e1.Emitted - e0.Emitted
	tp.eval.Rounds += e1.Rounds - e0.Rounds
	tp.eval.WorkersUsed += e1.WorkersUsed - e0.WorkersUsed
	if keep {
		tp.roundDeltas = append(tp.roundDeltas, delta)
	}
	tp.prev = cur
}

// tracedStore is the p2p wrapper handed to WithStore in traced passes: it
// times every store call as a grandchild span and captures the published
// transactions the shadow replays.
type tracedStore struct {
	inner    orchestra.Store
	tp       *tracePass
	captured []*updates.Transaction
	top      uint64
}

func (s *tracedStore) timed(name string, into *[]float64, f func()) {
	id := s.tp.begin(name, "p2p", "")
	start := time.Now()
	f()
	if s.tp.inLoop {
		s.tp.storeCalls++
		if into != nil {
			*into = append(*into, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	s.tp.end(id)
}

func (s *tracedStore) Publish(txns []*updates.Transaction) (epoch uint64, err error) {
	s.timed("Store.Publish", &s.tp.storePublishUs, func() { epoch, err = s.inner.Publish(txns) })
	return epoch, err
}

func (s *tracedStore) Since(since uint64) (txns []*updates.Transaction, epoch uint64, err error) {
	s.timed("Store.Since", &s.tp.storeSinceUs, func() { txns, epoch, err = s.inner.Since(since) })
	if s.tp.inLoop {
		s.tp.sinceCalls++
		s.tp.sinceTxns += len(txns)
	}
	for _, t := range txns {
		if t.Epoch > s.top {
			s.captured = append(s.captured, t)
		}
	}
	if len(txns) > 0 {
		s.top = max(s.top, txns[len(txns)-1].Epoch)
	}
	return txns, epoch, err
}

func (s *tracedStore) Epoch() (epoch uint64, err error) {
	s.timed("Store.Epoch", nil, func() { epoch, err = s.inner.Epoch() })
	return epoch, err
}

var layerNames = []string{"core", "p2p", "exchange", "datalog", "recon", "storage", "lsm"}

// report computes the per-layer metrics, prints the per-layer table, and
// writes the spans and per-round counter deltas out.
func (tp *tracePass) report(b *bench, plain, s *samples, m map[string]metric, out io.Writer) {
	ms, us := 1e3, 1e6
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	children := map[int]float64{}
	for _, sp := range tp.spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.dur()
		}
	}
	self := map[string]float64{}
	count := map[string]int{}
	var reconOther, drains []float64
	var recTotal, creteRec, creteCovered float64
	publishes := 0
	for _, sp := range tp.spans {
		if !sp.loop {
			continue
		}
		self[sp.Layer] += sp.dur() - children[sp.ID]
		count[sp.Layer]++
		switch sp.Name {
		case "Peer.Publish":
			publishes++
		case "Peer.Reconcile":
			reconOther = append(reconOther, (sp.dur()-children[sp.ID])/1e6)
			drain := 0.0
			for _, c := range tp.spans[sp.ID:] {
				if c.Parent == sp.ID && c.Name == "exchange_drain" {
					drain += c.dur()
				}
			}
			drains = append(drains, drain/1e6)
			recTotal += sp.dur() / 1e6
			if sp.Peer == "crete" {
				creteRec += sp.dur()
				creteCovered += children[sp.ID]
			}
		}
	}
	rounds := float64(max(tp.rounds, 1))
	published := float64(s.published)

	set("core.publish_ms", median(s.publish)*ms, "ms")
	set("core.reconcile_ms", median(s.reconcile)*ms, "ms")
	set("core.commit_us", median(s.commit)*us, "us")
	set("core.query_us", median(s.quiet)*us, "us")
	set("core.query_after_write_us", median(s.afterWrite)*us, "us")
	for _, p := range []string{"alaska", "beijing", "crete", "dresden"} {
		set("core.recover_ms."+p, median(s.recover[p])*ms, "ms")
	}
	set("core.reconcile_other_ms", median(reconOther), "ms")
	ck := tp.hists["core_checkpoint_ns"]
	set("core.checkpoint_ms", ratio(float64(ck.sum), float64(ck.count))/1e6, "ms")
	set("core.checkpoint_bytes", float64(tp.checkpointBytes), "bytes")
	set("core.recovery_replay_txns", median(tp.replayTxns), "count")
	set("core.recovery_load_ms", median(tp.loadMs), "ms")

	calls, sinceTxns := float64(tp.storeCalls), ratio(float64(tp.sinceTxns), float64(tp.sinceCalls))
	if tp.storeCalls == 0 { // durable: no wrapper, so the archive's own counters
		calls = float64(tp.counters["p2p_publish_batches_total"] + tp.counters["p2p_since_scans_total"])
		sinceTxns = ratio(float64(tp.counters["p2p_since_txns_total"]), float64(tp.counters["p2p_since_scans_total"]))
	}
	set("p2p.publish_us", median(tp.storePublishUs), "us")
	set("p2p.since_us", median(tp.storeSinceUs), "us")
	set("p2p.calls_per_round", calls/rounds, "count")
	set("p2p.since_txns", sinceTxns, "count")

	batch := tp.hists["exchange_applyall_batch_txns"]
	set("exchange.translations_per_txn", ratio(float64(batch.sum), published), "count")
	set("exchange.drain_ms", median(drains), "ms")
	set("exchange.drain_share", ratio(sum(drains), recTotal), "ratio")
	set("exchange.window_txns", ratio(float64(batch.sum), float64(batch.count)), "count")

	ev := tp.eval
	set("datalog.rounds_per_txn", ratio(float64(ev.Rounds), published), "count")
	set("datalog.probes_per_txn", ratio(float64(ev.Probes), published), "count")
	set("datalog.emitted_per_txn", ratio(float64(ev.Emitted), published), "count")
	set("datalog.pushdown_rate", ratio(float64(ev.PushdownProbes), float64(ev.Probes)), "ratio")
	set("datalog.workers_per_round", ratio(float64(ev.WorkersUsed), float64(ev.Rounds)), "count")
	set("datalog.probes_per_query", ratio(float64(tp.qstats.Probes.Load()), float64(tp.queries)), "count")
	set("datalog.emitted_per_query", ratio(float64(tp.qstats.Emitted.Load()), float64(tp.queries)), "count")

	set("recon.accepted", float64(tp.accepted)/rounds, "count")
	set("recon.rejected", float64(tp.rejected)/rounds, "count")
	set("recon.deferred", float64(tp.deferred)/rounds, "count")
	set("storage.applied_updates_per_txn", ratio(float64(tp.applied), float64(tp.accepted)), "count")
	set("recon.reconcile_us", median(tp.reconUs), "us")
	set("storage.apply_us", median(tp.applyUs), "us")

	fsync := tp.hists["lsm_wal_fsync_ns"]
	set("lsm.wal_fsyncs_per_publish", ratio(float64(fsync.count), float64(publishes)), "count")
	set("lsm.wal_fsync_us", ratio(float64(fsync.sum), float64(fsync.count))/1e3, "us")
	set("lsm.write_amp", ratio(float64(tp.counters["lsm_wal_bytes_total"]+tp.counters["lsm_compaction_bytes_total"]),
		float64(tp.counters["p2p_published_bytes_total"])), "ratio")
	set("lsm.compactions", float64(tp.counters["lsm_compaction_total"])/rounds, "count")
	set("lsm.compaction_bytes", float64(tp.counters["lsm_compaction_bytes_total"])/rounds, "bytes")

	set("go.alloc_bytes_per_op", ratio(float64(tp.alloc), float64(tp.calls)), "bytes")
	set("go.gc_cycles", float64(tp.gcs), "count")
	set("error_rate", ratio(float64(b.failed), float64(b.attempted)), "ratio")

	// Layer self time per round: spans the benchmark timed, with the WAL
	// fsyncs the registry timed moved from core (which calls them) to lsm.
	self["lsm"] = float64(fsync.sum)
	self["core"] -= float64(fsync.sum)
	count["lsm"] = int(fsync.count)
	count["datalog"] = int(ev.Rounds)
	for _, l := range layerNames {
		if l != "datalog" {
			set(l+".self_ms", self[l]/1e6/rounds, "ms")
		}
	}
	// Share of crete's reconcile time the timed layers account for: store
	// fetch and exchange drains inside it, plus the shadow's trust and
	// instance-write time for the same transactions.
	shadow := (sum(tp.reconUs) + sum(tp.applyUs)) * 1e3
	set("trace.reconcile_accounted_share", ratio(creteCovered+shadow, creteRec), "ratio")
	set("trace.overhead_round_ms", (median(s.round)-median(plain.round))*ms, "ms")
	set("trace.overhead_query_us", (median(s.query)-median(plain.query))*us, "us")

	fmt.Fprintf(out, "per-layer self time and counts, %s seed %d, %d traced rounds, %d queries\n", b.wl, b.seed, tp.rounds, tp.queries)
	fmt.Fprintf(out, "%-9s %14s %14s\n", "layer", "self ms/round", "spans/round")
	for _, l := range layerNames {
		fmt.Fprintf(out, "%-9s %14.3f %14.2f\n", l, self[l]/1e6/rounds, float64(count[l])/rounds)
	}
	fmt.Fprintf(out, "datalog time is inside exchange's drains; its column counts fixpoint rounds.\n")
	fmt.Fprintf(out, "layers account for %.1f%% of crete's reconcile time; tracing overhead %+.3f ms per round, %+.1f us per query\n",
		100*m["trace.reconcile_accounted_share"].Value, m["trace.overhead_round_ms"].Value, m["trace.overhead_query_us"].Value)
	if err := tp.write(filepath.Join(filepath.Dir(b.workdir), fmt.Sprintf("trace-%s-%d.json", b.wl, b.seed))); err != nil {
		b.problem("write trace: %v", err)
	}
}

func (tp *tracePass) write(path string) error {
	data, err := json.Marshal(struct {
		Spans       []span             `json:"spans"`
		RoundDeltas []map[string]int64 `json:"round_counter_deltas"`
	}{tp.spans, tp.roundDeltas})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
