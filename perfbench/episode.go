package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"orchestra"
	"orchestra/internal/p2p"
	"orchestra/internal/updates"
)

// episode is one confederation from set-up to close. Every pass repeats
// episodes of the same generated script, so each sample is drawn from the
// same history length however fast the machine is.
type episode struct {
	b      *bench
	s      *samples
	tp     *tracePass // nil when untraced
	sys    *orchestra.System
	peers  []*orchestra.Peer
	byName map[string]*orchestra.Peer
	dir    string
	mem    *p2p.MemoryStore // the store replica's archive
	srv    *orchestra.StoreServer
	local  *localReplica // query-mix: the replica the peers share in process
	store  *tracedStore
	shadow *shadow
	// wrote marks peers whose instance changed since their last query.
	wrote map[string]bool
	// outcomes lists every reconcile and resolve result, in order, as
	// "peer accepted/rejected/deferred".
	outcomes  []string
	published int
	queries   int
	n         int
	// measuring is set during the measured loop: set-up's bulk commits,
	// publishes and reconciles are not samples of the loop's operations.
	measuring bool
	// shadowed queues the shadow's replay of the reconciles and resolves
	// since the last flush, so that it runs outside any timed span.
	shadowed []shadowStep
}

type shadowStep struct {
	rep     *orchestra.ReconcileReport
	winner  orchestra.TxnID
	resolve bool
}

// flushShadow replays the queued steps on the shadow.
func (e *episode) flushShadow() error {
	steps := e.shadowed
	e.shadowed = nil
	for _, st := range steps {
		var err error
		if st.resolve {
			err = e.shadow.resolve(st.winner, st.rep)
		} else {
			err = e.shadow.replay(e.store.captured, st.rep)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *episode) measure(into *[]float64, d time.Duration) {
	if e.measuring {
		*into = append(*into, d.Seconds())
	}
}

// call times one exported call and counts it toward error_rate; in a traced
// pass it is a child span of the open root.
func (e *episode) call(name, peer string, f func() error) (time.Duration, error) {
	id := e.tp.begin(name, "core", peer)
	start := time.Now()
	err := f()
	d := time.Since(start)
	e.tp.end(id)
	e.b.attempted++
	if err != nil {
		e.b.failed++
		return d, fmt.Errorf("%s at %s: %w", name, peer, err)
	}
	return d, nil
}

// open sets up a confederation: durable workloads on the LSM tier,
// curation on an in-memory update store replica served over loopback TCP,
// query-mix on an in-memory replica in process, and the reference on the
// in-process store with sequential evaluation and a whole-backlog reconcile
// window.
func (b *bench) open(s *samples, tp *tracePass, reference bool) (*episode, error) {
	b.episodes++
	e := &episode{b: b, s: s, tp: tp, byName: map[string]*orchestra.Peer{}, wrote: map[string]bool{}, n: b.episodes}
	e.dir = filepath.Join(b.workdir, fmt.Sprintf("ep%d", e.n))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	var opts []orchestra.Option
	switch {
	case reference:
		opts = []orchestra.Option{orchestra.WithParallelism(1), orchestra.WithReconcileWindow(-1)}
	case b.prof.durable:
		opts = []orchestra.Option{orchestra.WithDurableDir(filepath.Join(e.dir, "db"))}
	default:
		var err error
		var st orchestra.Store
		e.mem = orchestra.NewMemoryStore()
		if b.qm != nil {
			e.local = &localReplica{mem: e.mem}
			st = e.local
		} else {
			if e.srv, err = orchestra.NewStoreServer(e.mem, "127.0.0.1:0"); err != nil {
				e.close()
				return nil, err
			}
			st = orchestra.DialStore(e.srv.Addr())
		}
		if tp != nil {
			e.store = &tracedStore{inner: st, tp: tp}
			st = e.store
			if e.shadow, err = newShadow("crete", tp); err != nil {
				e.close()
				return nil, err
			}
		}
		opts = []orchestra.Option{orchestra.WithStore(st)}
	}
	_, err := e.call("Open", "", func() (err error) {
		e.sys, err = orchestra.Open(b.sch, opts...)
		return err
	})
	if err != nil {
		e.close()
		return nil, err
	}
	for _, name := range b.peers {
		var p *orchestra.Peer
		if _, err := e.call("System.Peer", name, func() (err error) {
			p, err = e.sys.Peer(name)
			return err
		}); err != nil {
			e.close()
			return nil, err
		}
		e.peers = append(e.peers, p)
		e.byName[name] = p
	}
	return e, nil
}

func (e *episode) close() {
	if e.sys != nil {
		if err := e.sys.Close(); err != nil {
			e.b.problem("close: %v", err)
		}
	}
	if e.srv != nil {
		e.srv.Close()
	}
	os.RemoveAll(e.dir)
}

func (e *episode) commit(peer string, t txn) error {
	tx := e.byName[peer].Begin()
	for _, u := range t {
		switch u.op {
		case orchestra.OpInsert:
			tx.Insert(u.rel, u.new)
		case orchestra.OpDelete:
			tx.Delete(u.rel, u.old)
		default:
			tx.Modify(u.rel, u.old, u.new)
		}
	}
	d, err := e.call("Txn.Commit", peer, func() error {
		_, err := tx.Commit()
		return err
	})
	e.measure(&e.s.commit, d)
	e.wrote[peer] = true
	return err
}

func (e *episode) publish(peer string) error {
	n := 0
	d, err := e.call("Peer.Publish", peer, func() (err error) {
		_, n, err = e.byName[peer].PublishAll(ctx)
		return err
	})
	e.measure(&e.s.publish, d)
	e.published += n
	return err
}

func (e *episode) publishAll(pubs []publication) error {
	for _, pub := range pubs {
		for _, t := range pub.txns {
			if err := e.commit(pub.peer, t); err != nil {
				return err
			}
		}
		if err := e.publish(pub.peer); err != nil {
			return err
		}
	}
	return nil
}

// reconcileAll reconciles every reconciling peer in name order and settles
// any deferral at once with Peer.Resolve, alaska's transactions winning
// first.
func (e *episode) reconcileAll() error {
	for _, name := range e.b.reconcilers {
		p := e.byName[name]
		var rep *orchestra.ReconcileReport
		id := e.tp.spanID()
		d, err := e.call("Peer.Reconcile", p.Name(), func() (err error) {
			rep, err = p.Reconcile(ctx)
			return err
		})
		if err != nil {
			return err
		}
		e.measure(&e.s.reconcile, d)
		e.tp.reconciled(id, rep)
		e.record(p, rep)
		if e.shadow != nil && p.Name() == e.shadow.name {
			e.shadowed = append(e.shadowed, shadowStep{rep: rep})
		}
		deferred := append([]orchestra.TxnID(nil), rep.Deferred...)
		sort.SliceStable(deferred, func(i, j int) bool {
			return deferred[i].Peer == "alaska" && deferred[j].Peer != "alaska"
		})
		for _, w := range deferred {
			if p.Status(w) != orchestra.StatusDeferred {
				continue
			}
			if _, err := e.call("Peer.Resolve", p.Name(), func() (err error) {
				rep, err = p.Resolve(ctx, w)
				return err
			}); err != nil {
				return err
			}
			e.record(p, rep)
			if e.shadow != nil && p.Name() == e.shadow.name {
				e.shadowed = append(e.shadowed, shadowStep{rep: rep, winner: w, resolve: true})
			}
		}
	}
	return nil
}

func (e *episode) record(p *orchestra.Peer, rep *orchestra.ReconcileReport) {
	e.outcomes = append(e.outcomes, fmt.Sprintf("%s %d/%d/%d", p.Name(), len(rep.Accepted), len(rep.Rejected), len(rep.Deferred)))
	if rep.AppliedUpdates > 0 {
		e.wrote[p.Name()] = true
	}
}

// round publishes the bursts and reconciles everywhere, timed as one round.
func (e *episode) round(pubs []publication) error {
	root := e.tp.begin("round", "bench", "")
	start := time.Now()
	err := e.publishAll(pubs)
	if err == nil {
		err = e.reconcileAll()
	}
	e.s.round = append(e.s.round, time.Since(start).Seconds())
	e.tp.end(root)
	if err == nil {
		err = e.flushShadow()
	}
	e.tp.roundEnd(e)
	return err
}

func (e *episode) queryFor(q query) (*orchestra.Peer, *orchestra.Query) {
	if q.kind == opsLookup {
		p := e.byName["crete"]
		return p, p.Query(ctx, "OPS", orchestra.Bind(orchestra.String(q.org)), orchestra.Bind(orchestra.String(q.prot)), orchestra.Free("seq"))
	}
	p := e.byName["alaska"]
	args := []orchestra.QueryTerm{orchestra.Free("org"), orchestra.Free("prot"), orchestra.Free("seq")}
	if q.kind == viewLookup {
		args[0], args[1] = orchestra.Bind(orchestra.String(q.org)), orchestra.Bind(orchestra.String(q.prot))
	}
	return p, p.Query(ctx, "v", args...).Rule("v", []string{"org", "prot", "seq"},
		orchestra.Atom("O", orchestra.Free("org"), orchestra.Free("oid")),
		orchestra.Atom("P", orchestra.Free("prot"), orchestra.Free("pid")),
		orchestra.Atom("S", orchestra.Free("oid"), orchestra.Free("pid"), orchestra.Free("seq")))
}

// query runs one generated query, checks its answer count, and re-runs a
// sample of queries with FullFixpoint, whose answers must be the same.
func (e *episode) query(q query) error {
	p, qq := e.queryFor(q)
	if e.tp != nil {
		qq.Stats(&e.tp.qstats)
	}
	var answers []orchestra.Answer
	root := e.tp.begin("request", "bench", "")
	d, err := e.call("Peer.Query", p.Name(), func() (err error) {
		answers, err = qq.All()
		return err
	})
	e.tp.end(root)
	if err != nil {
		return err
	}
	e.s.query = append(e.s.query, d.Seconds())
	if e.wrote[p.Name()] {
		e.s.afterWrite = append(e.s.afterWrite, d.Seconds())
		e.wrote[p.Name()] = false
	} else {
		e.s.quiet = append(e.s.quiet, d.Seconds())
	}
	e.tp.queried()
	want := q.want
	if e.b.perturb == "count" {
		want++
	}
	if len(answers) != want {
		e.b.problem("query %v %s/%s at %s: %d answers, generator expects %d", q.kind, q.org, q.prot, p.Name(), len(answers), want)
	}
	if e.queries++; e.queries%e.b.prof.sampleEvery != 0 {
		return nil
	}
	_, full := e.queryFor(q)
	var ref []orchestra.Answer
	if _, err := e.call("Peer.Query", p.Name(), func() (err error) {
		ref, err = full.FullFixpoint().Stats(&orchestra.EvalStats{}).All()
		return err
	}); err != nil {
		return err
	}
	if a, r := answerText(answers), answerText(ref); a != r {
		e.b.problem("query %v %s/%s at %s: goal-directed answers differ from FullFixpoint:\n%s\nvs\n%s", q.kind, q.org, q.prot, p.Name(), a, r)
	}
	return nil
}

func answerText(as []orchestra.Answer) string {
	s := ""
	for _, a := range as {
		s += fmt.Sprintf("%v %v\n", a.Tuple, a.Prov)
	}
	return s
}

// endLoop records what a pass reports once per episode: the live heap after
// GC, and the archive's bytes per published transaction — on disk for the
// durable tier, in the store's encoding for the in-memory replica.
func (e *episode) endLoop() error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.s.heap = append(e.s.heap, float64(ms.HeapAlloc)/1e6)
	var n int64
	var err error
	if e.mem != nil {
		_, n, err = archive(e.mem)
	} else {
		n, err = diskBytes(filepath.Join(e.dir, "db"))
	}
	if err != nil {
		return err
	}
	e.s.disk = append(e.s.disk, float64(n)/float64(e.published))
	return nil
}

// restartStore restarts the update store replica the peers share. The
// replica stops (on curation, its server closes); it comes back empty and
// catches up by anti-entropy from a replica that kept the archive (the
// stopped replica's store stands in for it), and then serves the peers'
// next requests — on curation from the same address. It must hold exactly
// the transactions it held before. In-memory peers cannot restart without
// losing their local instances, so on these workloads the store replica is
// the node that restarts. The restart is timed from the empty replica's
// start until it serves again.
func (e *episode) restartStore() error {
	before, _, err := archive(e.mem)
	if err != nil {
		return err
	}
	defer e.tp.aside()()
	root := e.tp.begin("restart", "bench", "")
	defer e.tp.end(root)
	var addr string
	if e.srv != nil {
		addr = e.srv.Addr()
		if _, err := e.call("StoreServer.Close", "", e.srv.Close); err != nil {
			return err
		}
		e.srv = nil
	}
	start := time.Now()
	fresh := orchestra.NewMemoryStore()
	if _, err := e.call("AntiEntropy", "", func() error {
		orchestra.AntiEntropy(fresh, e.mem)
		return nil
	}); err != nil {
		return err
	}
	if e.local != nil {
		e.local.mem = fresh
	} else if _, err := e.call("NewStoreServer", "", func() (err error) {
		e.srv, err = orchestra.NewStoreServer(fresh, addr)
		return err
	}); err != nil {
		return err
	}
	e.s.restart = append(e.s.restart, time.Since(start).Seconds())
	e.mem = fresh
	e.tp.replayed(fresh.Len())
	after, _, err := archive(fresh)
	if err != nil {
		return err
	}
	if after != e.b.expect(before) {
		e.b.problem("restarted store replica differs from the replica before the restart")
	}
	return nil
}

// localReplica is the update store replica the query-mix peers share in
// process. A restart swaps in the fresh replica that caught up.
type localReplica struct{ mem *p2p.MemoryStore }

func (r *localReplica) Publish(txns []*updates.Transaction) (uint64, error) {
	return r.mem.Publish(txns)
}

func (r *localReplica) Since(since uint64) ([]*updates.Transaction, uint64, error) {
	return r.mem.Since(since)
}

func (r *localReplica) Epoch() (uint64, error) { return r.mem.Epoch() }

// archive digests a store's epoch and transactions and sums the bytes of
// their encoding, the form the store's wire protocol and log use.
func archive(st orchestra.Store) (string, int64, error) {
	txns, epoch, err := st.Since(0)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", epoch)
	var n int64
	for _, t := range txns {
		data, err := json.Marshal(orchestra.EncodeTxn(t))
		if err != nil {
			return "", 0, err
		}
		h.Write(data)
		n += int64(len(data))
	}
	return sumHex(h), n, nil
}

// crashImage copies the durable directory as a crash would leave it, opens
// a second System on the copy and recovers every peer; each recovered peer
// must equal the live one.
func (e *episode) crashImage() error {
	defer e.tp.aside()()
	root := e.tp.begin("restart", "bench", "")
	defer e.tp.end(root)
	img := filepath.Join(e.dir, "image")
	defer os.RemoveAll(img)
	if err := copyDir(filepath.Join(e.dir, "db"), img); err != nil {
		return err
	}
	start := time.Now()
	var sys *orchestra.System
	if _, err := e.call("Open", "", func() (err error) {
		sys, err = orchestra.Open(e.b.sch, orchestra.WithDurableDir(img))
		return err
	}); err != nil {
		return err
	}
	defer sys.Close()
	var recovered []*orchestra.Peer
	for _, name := range e.b.peers {
		t := time.Now()
		var p *orchestra.Peer
		if _, err := e.call("System.Peer", name, func() (err error) {
			p, err = sys.Peer(name)
			return err
		}); err != nil {
			return err
		}
		e.s.recover[name] = append(e.s.recover[name], time.Since(t).Seconds())
		recovered = append(recovered, p)
	}
	e.s.restart = append(e.s.restart, time.Since(start).Seconds())
	e.tp.recovered(sys)
	for i, p := range recovered {
		got, err := digestPeer(p)
		if err != nil {
			return err
		}
		want, err := digestPeer(e.peers[i])
		if err != nil {
			return err
		}
		if got != e.b.expect(want) {
			e.b.problem("recovered %s differs from the live peer at the crash image", p.Name())
		}
	}
	return nil
}

// exchangeEpisode runs one curation or durable episode.
func (b *bench) exchangeEpisode(s *samples, tp *tracePass) error {
	start := time.Now()
	e, err := b.open(s, tp, false)
	if err != nil {
		return err
	}
	defer e.close()
	if err := e.publishAll(b.ex.fill); err != nil {
		return err
	}
	if err := e.reconcileAll(); err != nil {
		return err
	}
	if err := e.flushShadow(); err != nil {
		return err
	}
	s.setup = append(s.setup, time.Since(start).Seconds())
	base := e.published
	tp.loopStart(e)
	e.measuring = true
	loop := time.Now()
	var paused time.Duration
	for _, rd := range b.ex.rounds {
		if err := e.round(rd.pubs); err != nil {
			return err
		}
		for _, q := range rd.queries {
			if err := e.query(q); err != nil {
				return err
			}
		}
		if rd.restart {
			t := time.Now()
			restart := e.restartStore
			if b.prof.durable {
				restart = e.crashImage
			}
			if err := restart(); err != nil {
				return err
			}
			paused += time.Since(t)
		}
	}
	s.loop += (time.Since(loop) - paused).Seconds()
	s.published += e.published - base
	e.measuring = false
	tp.loopEnd(e)
	if err := e.endLoop(); err != nil {
		return err
	}
	return b.ref.check(e)
}

// queryEpisode runs one query-mix episode.
func (b *bench) queryEpisode(s *samples, tp *tracePass) error {
	start := time.Now()
	e, err := b.open(s, tp, false)
	if err != nil {
		return err
	}
	defer e.close()
	for _, t := range b.qm.base {
		if err := e.commit("alaska", t); err != nil {
			return err
		}
	}
	if err := e.publish("alaska"); err != nil {
		return err
	}
	if err := e.reconcileAll(); err != nil {
		return err
	}
	if err := e.flushShadow(); err != nil {
		return err
	}
	s.setup = append(s.setup, time.Since(start).Seconds())
	base := e.published
	tp.loopStart(e)
	e.measuring = true
	loop := time.Now()
	rounds := 0
	var paused time.Duration
	for _, st := range b.qm.steps {
		switch st.kind {
		case stepQuery:
			err = e.query(st.q)
		case stepCommit:
			root := tp.begin("request", "bench", "")
			err = e.commit("alaska", st.commit)
			tp.end(root)
		case stepRound:
			if err = e.round([]publication{{peer: "alaska"}}); err == nil {
				if rounds++; rounds%b.prof.restartEvery == 0 {
					t := time.Now()
					err = e.restartStore()
					paused += time.Since(t)
				}
			}
		}
		if err != nil {
			return err
		}
	}
	s.loop += (time.Since(loop) - paused).Seconds()
	s.published += e.published - base
	e.measuring = false
	tp.loopEnd(e)
	return e.endLoop()
}

func diskBytes(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
