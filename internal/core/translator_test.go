package core

// Tests for the shared Translator: peers that read one translation log must
// behave exactly like peers that each translate the whole history
// themselves, whenever they open, however they interleave, and across a
// crash that finds the System's engine snapshot newer than a peer's
// checkpoint.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// fig2Policies are the trust policies of the scenario tests: three peers
// trust everyone equally (so conflicting publishes defer), crete ranks
// beijing over dresden and distrusts the rest.
func fig2Policies() map[string]*recon.Policy {
	return map[string]*recon.Policy{
		workload.Alaska:  recon.TrustAll(1),
		workload.Beijing: recon.TrustAll(1),
		workload.Dresden: recon.TrustAll(1),
		workload.Crete: {Conditions: []recon.Condition{
			recon.FromPeer(workload.Beijing, 2),
			recon.FromPeer(workload.Dresden, 1),
		}, Default: recon.Distrusted},
	}
}

var fig2Names = []string{workload.Alaska, workload.Beijing, workload.Crete, workload.Dresden}

// world is one Figure 2 confederation over its own store, with the ids of
// every committed transaction.
type world struct {
	sys   *System
	store *p2p.MemoryStore
	peers map[string]*Peer
	ids   []updates.TxnID
}

// newWorld opens the four Figure 2 peers, sharing one translator or each
// with a translator of its own.
func newWorld(t *testing.T, shared bool) *world {
	t.Helper()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	w := &world{sys: sys, store: p2p.NewMemoryStore(), peers: map[string]*Peer{}}
	for name, policy := range fig2Policies() {
		var p *Peer
		if shared {
			p, err = NewPeer(name, sys, w.store, policy)
		} else {
			var tr *Translator
			if tr, err = NewTranslator(sys, w.store, exchange.Config{}, nil); err == nil {
				p, err = NewPeerWith(name, policy, tr)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		w.peers[name] = p
	}
	return w
}

func (w *world) commit(t *testing.T, peer string, build func(*Txn)) {
	t.Helper()
	tx := w.peers[peer].NewTransaction()
	build(tx)
	w.ids = append(w.ids, commit(t, tx).ID)
	publish(t, w.peers[peer])
}

func logLen(tr *Translator) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.log)
}

// requireSamePeer compares two peers' rows, provenance, epochs and the
// status of every transaction in ids.
func requireSamePeer(t *testing.T, label string, a, b *Peer, ids []updates.TxnID) {
	t.Helper()
	requireEqualWithProvenance(t, label, a.sys.Schema(a.name), a.Instance(), b.Instance())
	if a.Epoch() != b.Epoch() {
		t.Errorf("%s: epoch %d vs %d", label, a.Epoch(), b.Epoch())
	}
	for _, id := range ids {
		if sa, sb := a.Status(id), b.Status(id); sa != sb {
			t.Errorf("%s: status of %v: %v vs %v", label, id, sa, sb)
		}
	}
}

// TestSharedTranslatorMatchesPerPeerEngines drives the same history —
// inserts, a conflict that defers, Resolve, a modify that cascades into a
// rejection, a delete and a multi-transaction burst — through peers
// sharing one translator and through peers that each own one. Every report,
// row, provenance polynomial and status must agree.
func TestSharedTranslatorMatchesPerPeerEngines(t *testing.T) {
	ctx := context.Background()
	worlds := []*world{newWorld(t, true), newWorld(t, false)}
	reconcileAll := func(order []string) {
		t.Helper()
		for _, name := range order {
			var reps []*ReconcileReport
			for _, w := range worlds {
				reps = append(reps, reconcile(t, w.peers[name]))
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Fatalf("%s: shared report %+v, per-peer report %+v", name, reps[0], reps[1])
			}
		}
	}
	step := func(peer string, build func(*Txn)) {
		t.Helper()
		for _, w := range worlds {
			w.commit(t, peer, build)
		}
	}

	step(workload.Alaska, func(tx *Txn) {
		tx.Insert("O", workload.OTuple("mouse", 1)).
			Insert("P", workload.PTuple("p53", 10)).
			Insert("S", workload.STuple(1, 10, "AAAA"))
	})
	step(workload.Beijing, func(tx *Txn) {
		tx.Insert("O", workload.OTuple("fly", 3)).
			Insert("P", workload.PTuple("tnf", 30)).
			Insert("S", workload.STuple(3, 30, "XXXX"))
	})
	step(workload.Alaska, func(tx *Txn) {
		tx.Insert("O", workload.OTuple("fly", 3)).
			Insert("P", workload.PTuple("tnf", 30)).
			Insert("S", workload.STuple(3, 30, "YYYY"))
	})
	reconcileAll(fig2Names)
	winner := worlds[0].ids[1] // beijing's side of the conflict
	if got := worlds[0].peers[workload.Dresden].Status(winner); got != recon.StatusDeferred {
		t.Fatalf("setup: dresden holds beijing's insert as %v, want deferred", got)
	}
	var resolved []*ReconcileReport
	for _, w := range worlds {
		rep, err := w.peers[workload.Dresden].Resolve(ctx, winner)
		if err != nil {
			t.Fatal(err)
		}
		resolved = append(resolved, rep)
	}
	if !reflect.DeepEqual(resolved[0], resolved[1]) {
		t.Fatalf("resolve: shared %+v, per-peer %+v", resolved[0], resolved[1])
	}
	step(workload.Beijing, func(tx *Txn) {
		tx.Modify("S", workload.STuple(3, 30, "XXXX"), workload.STuple(3, 30, "QQQQ"))
	})
	step(workload.Dresden, func(tx *Txn) {
		tx.Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT"))
	})
	step(workload.Alaska, func(tx *Txn) {
		tx.Delete("S", workload.STuple(1, 10, "AAAA"))
	})
	reconcileAll([]string{workload.Dresden, workload.Crete, workload.Beijing, workload.Alaska})
	for _, w := range worlds {
		for i := 0; i < 5; i++ {
			tx := w.peers[workload.Alaska].NewTransaction().
				Insert("O", workload.OTuple(fmt.Sprintf("org%d", i), int64(100+i))).
				Insert("P", workload.PTuple(fmt.Sprintf("prot%d", i), int64(100+i))).
				Insert("S", workload.STuple(int64(100+i), int64(100+i), "ACGT"))
			w.ids = append(w.ids, commit(t, tx).ID)
		}
		publish(t, w.peers[workload.Alaska])
	}
	reconcileAll(fig2Names)

	for _, name := range fig2Names {
		requireSamePeer(t, name, worlds[0].peers[name], worlds[1].peers[name], worlds[0].ids)
	}
}

// TestLateOpeningPeerMatchesEarlyPeer: crete opens on a translator whose
// log has already been trimmed past its (empty) history, so its first
// reconcile rebuilds the translation from epoch 0. It must end equal to a
// crete that reconciled every round from the start on its own translator.
func TestLateOpeningPeerMatchesEarlyPeer(t *testing.T) {
	w := newWorld(t, true)
	tr, err := NewTranslator(w.sys, w.store, exchange.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	early, err := NewPeerWith(workload.Crete, fig2Policies()[workload.Crete], tr)
	if err != nil {
		t.Fatal(err)
	}
	round := func(i int) {
		w.commit(t, workload.Beijing, func(tx *Txn) {
			tx.Insert("O", workload.OTuple(fmt.Sprintf("b%d", i), int64(i))).
				Insert("P", workload.PTuple(fmt.Sprintf("bp%d", i), int64(i))).
				Insert("S", workload.STuple(int64(i), int64(i), "ACGT"))
		})
		w.commit(t, workload.Dresden, func(tx *Txn) {
			tx.Insert("OPS", workload.OPSTuple(fmt.Sprintf("d%d", i), "p", "TTTT"))
		})
		for _, name := range []string{workload.Alaska, workload.Beijing, workload.Dresden} {
			reconcile(t, w.peers[name])
		}
		reconcile(t, early)
	}
	for i := 0; i < 3; i++ {
		round(i)
	}
	shared := w.peers[workload.Alaska].tr
	if shared.start == 0 {
		t.Fatal("setup: the shared log was never trimmed")
	}
	late, err := NewPeer(workload.Crete, w.sys, w.store, fig2Policies()[workload.Crete])
	if err != nil {
		t.Fatal(err)
	}
	if late.tr != shared {
		t.Fatal("NewPeer over the same System and store opened a second translator")
	}
	rep := reconcile(t, late)
	if rep.Fetched != len(w.ids) {
		t.Errorf("late crete fetched %d, want the whole history (%d)", rep.Fetched, len(w.ids))
	}
	for i := 3; i < 5; i++ {
		round(i)
		reconcile(t, late)
	}
	requireSamePeer(t, "late vs early crete", late, early, w.ids)
}

// TestLogTrimmedPastIdlePeer: a peer that never reconciles holds no cursor,
// so the log keeps only the latest translations however long it idles; a
// peer that reconciled once and then idles holds the log at its cursor
// until it catches up.
func TestLogTrimmedPastIdlePeer(t *testing.T) {
	w := newWorld(t, true)
	tr := w.peers[workload.Crete].tr
	publishOne := func(i int) {
		w.commit(t, workload.Alaska, func(tx *Txn) {
			tx.Insert("O", workload.OTuple(fmt.Sprintf("o%d", i), int64(i)))
		})
	}
	for i := 0; i < 4; i++ {
		publishOne(i)
		reconcile(t, w.peers[workload.Crete])
		if n := logLen(tr); n != 1 {
			t.Fatalf("round %d: log holds %d entries with only crete reconciling, want 1", i, n)
		}
	}
	reconcile(t, w.peers[workload.Dresden])
	for i := 4; i < 7; i++ {
		publishOne(i)
		reconcile(t, w.peers[workload.Crete])
		if n, want := logLen(tr), i-3; n != want {
			t.Fatalf("round %d: log holds %d entries behind idle dresden, want %d", i, n, want)
		}
	}
	if rep := reconcile(t, w.peers[workload.Dresden]); rep.Fetched != 3 {
		t.Errorf("dresden fetched %d, want 3", rep.Fetched)
	}
	publishOne(7)
	reconcile(t, w.peers[workload.Crete])
	if n := logLen(tr); n != 1 {
		t.Errorf("log holds %d entries after every cursor caught up, want 1", n)
	}
}

// TestConcurrentReconcileSharedTranslator: three peers reconcile from their
// own goroutines while alaska publishes. Whatever the interleaving, each
// ends equal to the same peer reconciling the whole history once in a
// sequential reference world. Run under -race.
func TestConcurrentReconcileSharedTranslator(t *testing.T) {
	const batches = 12
	live, ref := newWorld(t, true), newWorld(t, true)
	entry := func(w *world, i int) {
		w.commit(t, workload.Alaska, func(tx *Txn) {
			tx.Insert("O", workload.OTuple(fmt.Sprintf("org%d", i), int64(i))).
				Insert("P", workload.PTuple(fmt.Sprintf("prot%d", i), int64(i))).
				Insert("S", workload.STuple(int64(i), int64(i), "ACGT"))
		})
	}
	readers := []string{workload.Beijing, workload.Crete, workload.Dresden}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(readers))
	for _, name := range readers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := p.Reconcile(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}(live.peers[name])
	}
	for i := 0; i < batches; i++ {
		entry(live, i)
		entry(ref, i)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, name := range readers {
		reconcile(t, live.peers[name])
		reconcile(t, ref.peers[name])
		requireSamePeer(t, name, live.peers[name], ref.peers[name], live.ids)
	}
}

// TestRecoverWhenSnapshotIsNewerThanCheckpoint: the System's "e/" snapshot
// is written at a later epoch than three peers' checkpoints, so their
// recovery cannot start from it. Every peer must still come back equal to
// the live one.
func TestRecoverWhenSnapshotIsNewerThanCheckpoint(t *testing.T) {
	src := t.TempDir()
	db, ds := openDurableTier(t, src)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]*Peer{}
	for name, policy := range fig2Policies() {
		if live[name], err = NewPeer(name, sys, ds, policy); err != nil {
			t.Fatal(err)
		}
	}
	var ids []updates.TxnID
	step := func(peer string, tx *Txn) {
		ids = append(ids, commit(t, tx).ID)
		publish(t, live[peer])
	}
	reconcileAll := func() {
		for _, name := range fig2Names {
			reconcile(t, live[name])
		}
	}
	step(workload.Alaska, live[workload.Alaska].NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	step(workload.Beijing, live[workload.Beijing].NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "XXXX")))
	reconcileAll()
	for _, name := range fig2Names {
		checkpoint(t, live[name], db)
	}
	ckEpoch := live[workload.Dresden].Epoch()

	step(workload.Dresden, live[workload.Dresden].NewTransaction().
		Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	step(workload.Alaska, live[workload.Alaska].NewTransaction().
		Modify("S", workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "CCCC")))
	reconcileAll()
	checkpoint(t, live[workload.Alaska], db)
	step(workload.Beijing, live[workload.Beijing].NewTransaction().
		Delete("S", workload.STuple(3, 30, "XXXX")))
	reconcileAll()

	_, watermark, ok, err := EngineSnapshotStats(db)
	if err != nil || !ok {
		t.Fatalf("engine snapshot: ok=%v err=%v", ok, err)
	}
	if watermark <= ckEpoch {
		t.Fatalf("setup: snapshot watermark %d, want past the checkpoint epoch %d", watermark, ckEpoch)
	}

	// Crash: copy the directory with the database still open.
	dst := t.TempDir()
	copyDirFiles(t, src, dst)
	db2, ds2 := openDurableTier(t, dst)
	defer db2.Close()
	sys2, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTranslator(sys2, ds2, exchange.Config{}, db2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fig2Names {
		p, err := RecoverPeerWith(context.Background(), name, fig2Policies()[name], tr)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePeer(t, "recovered "+name, p, live[name], ids)
		if p.nextSeq != live[name].nextSeq {
			t.Errorf("recovered %s: next seq %d, live %d", name, p.nextSeq, live[name].nextSeq)
		}
	}
}
