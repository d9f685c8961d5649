package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"orchestra"
)

// bench is one benchmark run: the generated inputs, the expected results of
// the reference replay, and the error and problem tallies every pass adds to.
type bench struct {
	wl      string
	prof    profile
	seed    uint64
	workdir string
	perturb string
	sch     *orchestra.Schema
	peers   []string // open peers, in name order
	// reconcilers are the peers that reconcile each round: every peer on
	// the exchange workloads, only the subscriber crete on query-mix, where
	// alaska is the only publisher and has nothing to receive.
	reconcilers []string
	ex          *exchangeScript
	qm          *queryScript
	ref         *expected

	attempted, failed int
	problems          []string
	episodes          int
}

// samples collects one pass's measurements; times are in seconds.
type samples struct {
	setup, round, publish, reconcile, restart, commit []float64
	// query holds every query in the order run; afterWrite and quiet split
	// them by whether the peer's instance changed since its last query.
	query, afterWrite, quiet []float64
	disk, heap               []float64
	recover                  map[string][]float64
	published, episodes      int
	loop                     float64
}

var ctx = context.Background()

func newBench(wl string, prof profile, seed uint64, workdir, perturb string) (*bench, error) {
	sch, err := figure2()
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, prof: prof, seed: seed, workdir: workdir, perturb: perturb, sch: sch}
	if wl == "query-mix" {
		b.peers, b.reconcilers = []string{"alaska", "crete"}, []string{"crete"}
		b.qm = genQueryMix(seed, prof)
	} else {
		b.peers = []string{"alaska", "beijing", "crete", "dresden"}
		b.reconcilers = b.peers
		b.ex = genExchange(seed, prof)
	}
	return b, nil
}

// expect returns a digest a restart or recovery must reproduce; the
// "recovery" perturbation corrupts it, to show the check can fail.
func (b *bench) expect(digest string) string {
	if b.perturb == "recovery" {
		return digest + "-perturbed"
	}
	return digest
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// execute runs the reference replay and the measured passes and returns the
// result: the end-to-end metrics of one untraced pass, or with traced the
// per-layer metrics of a traced pass, run after an untraced pass of the same
// length so that the tracing overhead can be reported.
func (b *bench) execute(d time.Duration, traced bool, out io.Writer) *result {
	res := &result{Metrics: map[string]metric{}}
	if b.ex != nil {
		if err := b.reference(); err != nil {
			b.problem("reference replay: %v", err)
		}
	}
	if len(b.problems) == 0 {
		if !traced {
			s := b.pass(d, maxLoop, nil)
			endToEnd(s, res.Metrics)
			fmt.Fprintf(out, "samples: %d episodes, %d rounds, %d publishes, %d reconciles, %d queries, %d commits, %d restarts\n",
				s.episodes, len(s.round), len(s.publish), len(s.reconcile), len(s.query), len(s.commit), len(s.restart))
		} else {
			plain := b.pass(d/2, maxLoop/2, nil)
			tp := newTracePass()
			s := b.pass(d/2, maxLoop/2, tp)
			tp.report(b, plain, s, res.Metrics, out)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = len(b.problems) == 0 && b.failed == 0
	return res
}

// pass runs whole episodes until d has passed and every percentile has the
// samples it needs, or limit has passed.
func (b *bench) pass(d, limit time.Duration, tp *tracePass) *samples {
	s := &samples{recover: map[string][]float64{}}
	start := time.Now()
	for {
		var err error
		if b.ex != nil {
			err = b.exchangeEpisode(s, tp)
		} else {
			err = b.queryEpisode(s, tp)
		}
		if err != nil {
			b.problem("%s episode: %v", b.wl, err)
		}
		if len(b.problems) > 0 {
			return s
		}
		s.episodes++
		el := time.Since(start)
		if el >= limit || (el >= d && b.enough(s, tp != nil)) {
			return s
		}
	}
}

func (b *bench) enough(s *samples, traced bool) bool {
	p := b.prof
	if s.episodes < p.minEpisodes {
		return false
	}
	return traced || (len(s.round) >= p.minRounds && len(s.publish) >= p.minPublishes && len(s.query) >= p.minQueries)
}

// endToEnd turns a pass's samples into the end-to-end metrics.
func endToEnd(s *samples, m map[string]metric) {
	ms, us := 1e3, 1e6
	m["setup_s"] = metric{median(s.setup), "s"}
	m["round_ms_p50"] = metric{median(s.round) * ms, "ms"}
	m["round_ms_p90"] = metric{blockPercentile(s.round, 0.90) * ms, "ms"}
	m["txn_per_s"] = metric{ratio(float64(s.published), s.loop), "1/s"}
	m["publish_ms_p50"] = metric{median(s.publish) * ms, "ms"}
	m["publish_ms_p95"] = metric{blockPercentile(s.publish, 0.95) * ms, "ms"}
	m["reconcile_ms_p50"] = metric{median(s.reconcile) * ms, "ms"}
	m["restart_ms"] = metric{median(s.restart) * ms, "ms"}
	m["disk_bytes_per_txn"] = metric{median(s.disk), "bytes"}
	m["query_us_p50"] = metric{median(s.query) * us, "us"}
	m["query_us_p99"] = metric{blockPercentile(s.query, 0.99) * us, "us"}
	m["query_per_s"] = metric{ratio(float64(len(s.query)), s.loop), "1/s"}
	m["commit_us_p50"] = metric{median(s.commit) * us, "us"}
	m["heap_live_mb"] = metric{median(s.heap), "MB"}
}
