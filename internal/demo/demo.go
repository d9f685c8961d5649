// Package demo drives the paper's Section 4 demonstration scenarios over
// the Figure 2 CDSS programmatically, writing a transcript of each step.
// It backs cmd/orchestra-demo and the scenario regression tests.
package demo

import (
	"context"
	"fmt"
	"io"

	"orchestra/internal/core"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

// NewFigure2 builds a fresh Figure 2 confederation on the given store with
// the paper's trust relationships: Alaska, Beijing and Dresden trust all
// other participants equally; Crete trusts only Beijing and Dresden, and
// prefers Beijing in the event of a conflict.
func NewFigure2(store p2p.Store) (map[string]*core.Peer, error) {
	sys, err := core.NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		return nil, err
	}
	policies := map[string]*recon.Policy{
		workload.Alaska:  recon.TrustAll(1),
		workload.Beijing: recon.TrustAll(1),
		workload.Dresden: recon.TrustAll(1),
		workload.Crete: {Conditions: []recon.Condition{
			recon.FromPeer(workload.Beijing, 2),
			recon.FromPeer(workload.Dresden, 1),
		}, Default: recon.Distrusted},
	}
	peers := map[string]*core.Peer{}
	for name, pol := range policies {
		p, err := core.NewPeer(name, sys, store, pol)
		if err != nil {
			return nil, err
		}
		peers[name] = p
	}
	return peers, nil
}

// Scenarios returns the number of demonstration scenarios.
func Scenarios() int { return 5 }

// Run executes demonstration scenario n (1-based) on a fresh CDSS, writing
// a transcript to w.
func Run(w io.Writer, n int) error {
	switch n {
	case 1:
		return scenario1(w)
	case 2:
		return scenario2(w)
	case 3:
		return scenario3(w)
	case 4:
		return scenario4(w)
	case 5:
		return scenario5(w)
	default:
		return fmt.Errorf("demo: no scenario %d (have 1..%d)", n, Scenarios())
	}
}

func dump(w io.Writer, p *core.Peer) {
	fmt.Fprintf(w, "  state of %s:\n", p.Name())
	empty := true
	for _, rel := range p.Instance().Schema().Relations() {
		rows, _ := p.Instance().Rows(rel.Name)
		for _, r := range rows {
			fmt.Fprintf(w, "    %s%s\n", rel.Name, r.Tuple)
			empty = false
		}
	}
	if empty {
		fmt.Fprintln(w, "    (empty)")
	}
}

func scenario1(w io.Writer) error {
	peers, err := NewFigure2(p2p.NewMemoryStore())
	if err != nil {
		return err
	}
	alaska, dresden := peers[workload.Alaska], peers[workload.Dresden]
	fmt.Fprintln(w, "Alaska inserts O(mouse,1), P(p53,10), S(1,10,ACGT); publishes.")
	if _, err := alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")).Commit(); err != nil {
		return err
	}
	if _, err := alaska.Publish(context.Background()); err != nil {
		return err
	}
	if _, err := dresden.Reconcile(context.Background()); err != nil {
		return err
	}
	fmt.Fprintln(w, "Dresden reconciles; the Σ1 tuples arrive joined into OPS.")
	dump(w, dresden)
	fmt.Fprintln(w, "Dresden inserts OPS(fly,myc,GGGG); Alaska receives it split into O,P,S.")
	if _, err := dresden.NewTransaction().
		Insert("OPS", workload.OPSTuple("fly", "myc", "GGGG")).Commit(); err != nil {
		return err
	}
	if _, err := dresden.Publish(context.Background()); err != nil {
		return err
	}
	if _, err := alaska.Reconcile(context.Background()); err != nil {
		return err
	}
	dump(w, alaska)
	return nil
}

func scenario2(w io.Writer) error {
	peers, err := NewFigure2(p2p.NewMemoryStore())
	if err != nil {
		return err
	}
	beijing, crete, dresden := peers[workload.Beijing], peers[workload.Crete], peers[workload.Dresden]
	fmt.Fprintln(w, "Beijing and Dresden publish conflicting sequence data for (mouse,p53).")
	if _, err := beijing.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")).Commit(); err != nil {
		return err
	}
	if _, err := beijing.Publish(context.Background()); err != nil {
		return err
	}
	dTxn, err := dresden.NewTransaction().
		Insert("OPS", workload.OPSTuple("mouse", "p53", "CCCC")).Commit()
	if err != nil {
		return err
	}
	if _, err := dresden.Publish(context.Background()); err != nil {
		return err
	}
	r, err := crete.Reconcile(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Crete (prefers Beijing) reconciles: accepted=%v rejected=%v\n",
		r.Accepted, r.Rejected)
	dump(w, crete)
	fmt.Fprintln(w, "Dresden publishes a follow-up depending on its rejected update.")
	if _, err := dresden.NewTransaction().
		Modify("OPS", workload.OPSTuple("mouse", "p53", "CCCC"),
			workload.OPSTuple("mouse", "p53", "TTTT")).Commit(); err != nil {
		return err
	}
	if _, err := dresden.Publish(context.Background()); err != nil {
		return err
	}
	r, err = crete.Reconcile(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Crete rejects the dependent follow-up too: rejected=%v (dresden:1 is %s)\n",
		r.Rejected, crete.Status(dTxn.ID))
	return nil
}

func scenario3(w io.Writer) error {
	peers, err := NewFigure2(p2p.NewMemoryStore())
	if err != nil {
		return err
	}
	alaska, beijing, crete := peers[workload.Alaska], peers[workload.Beijing], peers[workload.Crete]
	fmt.Fprintln(w, "Alaska publishes several data points in one transaction.")
	aTxn, err := alaska.NewTransaction().
		Insert("O", workload.OTuple("rat", 2)).
		Insert("P", workload.PTuple("ins", 20)).
		Insert("S", workload.STuple(2, 20, "AAAA")).Commit()
	if err != nil {
		return err
	}
	if _, err := alaska.Publish(context.Background()); err != nil {
		return err
	}
	if _, err := crete.Reconcile(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(w, "Crete does not trust Alaska: alaska:1 is %s.\n", crete.Status(aTxn.ID))
	fmt.Fprintln(w, "Beijing reconciles and publishes a modification of one tuple.")
	if _, err := beijing.Reconcile(context.Background()); err != nil {
		return err
	}
	bTxn, err := beijing.NewTransaction().
		Modify("S", workload.STuple(2, 20, "AAAA"), workload.STuple(2, 20, "TTTT")).Commit()
	if err != nil {
		return err
	}
	if _, err := beijing.Publish(context.Background()); err != nil {
		return err
	}
	if _, err := crete.Reconcile(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(w, "Crete accepts Beijing's txn AND the untrusted antecedent: alaska:1=%s beijing:1=%s\n",
		crete.Status(aTxn.ID), crete.Status(bTxn.ID))
	dump(w, crete)
	return nil
}

func scenario4(w io.Writer) error {
	peers, err := NewFigure2(p2p.NewMemoryStore())
	if err != nil {
		return err
	}
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	crete, dresden := peers[workload.Crete], peers[workload.Dresden]
	fmt.Fprintln(w, "Beijing and Alaska publish conflicting updates.")
	bTxn, err := beijing.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "XXXX")).Commit()
	if err != nil {
		return err
	}
	if _, err := beijing.Publish(context.Background()); err != nil {
		return err
	}
	aTxn, err := alaska.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "YYYY")).Commit()
	if err != nil {
		return err
	}
	if _, err := alaska.Publish(context.Background()); err != nil {
		return err
	}
	r, err := dresden.Reconcile(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Dresden (trusts both equally) defers both: %v\n", r.Deferred)
	fmt.Fprintln(w, "Crete accepts Beijing's and publishes a modification of it.")
	if _, err := crete.Reconcile(context.Background()); err != nil {
		return err
	}
	cTxn, err := crete.NewTransaction().
		Modify("OPS", workload.OPSTuple("fly", "tnf", "XXXX"),
			workload.OPSTuple("fly", "tnf", "ZZZZ")).Commit()
	if err != nil {
		return err
	}
	if _, err := crete.Publish(context.Background()); err != nil {
		return err
	}
	r, err = dresden.Reconcile(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Dresden defers Crete's dependent update: %v\n", r.Deferred)
	fmt.Fprintln(w, "Dresden's administrator resolves the conflict in favor of Beijing.")
	rr, err := dresden.Resolve(context.Background(), bTxn.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Resolution: accepted=%v rejected=%v\n", rr.Accepted, rr.Rejected)
	fmt.Fprintf(w, "Final statuses at Dresden: beijing:1=%s alaska:1=%s crete:1=%s\n",
		dresden.Status(bTxn.ID), dresden.Status(aTxn.ID), dresden.Status(cTxn.ID))
	dump(w, dresden)
	return nil
}

func scenario5(w io.Writer) error {
	srv1, err := p2p.NewServer(p2p.NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv2, err := p2p.NewServer(p2p.NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv2.Close()
	mkStore := func() p2p.Store {
		return p2p.NewReplicatedStore(p2p.NewClient(srv1.Addr()), p2p.NewClient(srv2.Addr()))
	}
	peersB, err := NewFigure2(mkStore())
	if err != nil {
		srv1.Close()
		return err
	}
	// Alaska uses its own replicated-store handle, as it would in a real
	// deployment.
	peersA, err := NewFigure2(mkStore())
	if err != nil {
		srv1.Close()
		return err
	}
	beijing, alaska := peersB[workload.Beijing], peersA[workload.Alaska]
	fmt.Fprintf(w, "Update store replicas at %s and %s.\n", srv1.Addr(), srv2.Addr())
	fmt.Fprintln(w, "Beijing publishes a number of updates...")
	if _, err := beijing.NewTransaction().
		Insert("O", workload.OTuple("worm", 4)).
		Insert("P", workload.PTuple("dmd", 40)).
		Insert("S", workload.STuple(4, 40, "CAGT")).Commit(); err != nil {
		srv1.Close()
		return err
	}
	if _, err := beijing.Publish(context.Background()); err != nil {
		srv1.Close()
		return err
	}
	fmt.Fprintln(w, "...and goes offline (replica 1 goes down with it).")
	srv1.Close()
	r, err := alaska.Reconcile(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Alaska reconciles from the surviving replica: accepted=%v\n", r.Accepted)
	dump(w, alaska)
	return nil
}
