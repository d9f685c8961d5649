package core

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

// TestReconcileWindowEquivalence drains the same publication burst through
// peers configured with every ReconcileWindow shape — per-transaction
// windows, a small fixed window, adaptive, and the whole backlog at once —
// and checks they all converge to the identical instance. This is the
// windowed counterpart of the batched==sequential property: ApplyAll over
// consecutive sub-batches must equal one batched call.
func TestReconcileWindowEquivalence(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	alaska, err := NewPeer(workload.Alaska, sys, store, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	// One multi-epoch burst: several published transactions across the
	// mapped relations, so windows of size 1 and 2 genuinely split it.
	for i := int64(0); i < 7; i++ {
		commit(t, alaska.NewTransaction().
			Insert("O", workload.OTuple(fmt.Sprintf("org%d", i), i)).
			Insert("P", workload.PTuple(fmt.Sprintf("prot%d", i), 100+i)).
			Insert("S", workload.STuple(i, 100+i, "ACGT")))
		publish(t, alaska)
	}

	windows := []int{1, 2, 0, -1}
	receivers := make([]*Peer, len(windows))
	for i, win := range windows {
		tr, err := NewTranslator(sys, store, exchange.Config{ReconcileWindow: win}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeerWith(workload.Beijing, recon.TrustAll(1), tr)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Reconcile(context.Background())
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		if rep.Fetched != 7 || len(rep.Accepted) != 7 {
			t.Fatalf("window %d: fetched %d accepted %d, want 7/7", win, rep.Fetched, len(rep.Accepted))
		}
		receivers[i] = p
	}
	for i := 1; i < len(receivers); i++ {
		if !receivers[0].Instance().Equal(receivers[i].Instance()) {
			t.Errorf("window %d instance (size %d) differs from window %d (size %d)",
				windows[i], receivers[i].Instance().Size(),
				windows[0], receivers[0].Instance().Size())
		}
	}
	if n := len(instRows(receivers[0], "O")); n != 7 {
		t.Errorf("O has %d tuples, want 7", n)
	}
}

// TestReconcileWindowAcrossRounds checks a fixed tiny window keeps working
// over multiple Reconcile rounds with interleaved publishes (the window
// state persists on the translator between rounds).
func TestReconcileWindowAcrossRounds(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	alaska, err := NewPeer(workload.Alaska, sys, store, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTranslator(sys, store, exchange.Config{ReconcileWindow: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	beijing, err := NewPeerWith(workload.Beijing, recon.TrustAll(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 3; i++ {
			commit(t, alaska.NewTransaction().
				Insert("O", workload.OTuple(fmt.Sprintf("r%d-o%d", round, i), int64(round)*10+i)))
			publish(t, alaska)
		}
		rep := reconcile(t, beijing)
		if rep.Fetched != 3 || len(rep.Accepted) != 3 {
			t.Fatalf("round %d: fetched %d accepted %d, want 3/3", round, rep.Fetched, len(rep.Accepted))
		}
	}
	if n := len(instRows(beijing, "O")); n != 9 {
		t.Errorf("O has %d tuples after 3 rounds, want 9", n)
	}
}
