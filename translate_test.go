package orchestra_test

import (
	"context"
	"fmt"
	"testing"

	"orchestra"
)

// figure2Text is the paper's Figure 2 confederation: alaska and beijing
// share one schema, crete and dresden another, and the join/split mappings
// relate the two.
const figure2Text = `
peer alaska {
    relation O(org string, oid int) key(oid)
    relation P(prot string, pid int) key(pid)
    relation S(oid int, pid int, seq string) key(oid, pid)
}
peer beijing like alaska
peer crete {
    relation OPS(org string, prot string, seq string) key(org, prot)
}
peer dresden like crete

mapping identity M_AB alaska beijing
mapping identity M_BA beijing alaska
mapping identity M_CD crete dresden
mapping identity M_DC dresden crete
mapping M_AC = crete.OPS(org, prot, seq) :-
    alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
mapping M_CA = alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq) :-
    crete.OPS(org, prot, seq).
`

// TestReconcileAllTranslatesEachTransactionOnce: four open peers reconcile
// N published transactions, and the System's translator feeds each of them
// through the exchange engine exactly once — the group-commit batch sizes
// sum to N, not 4N.
func TestReconcileAllTranslatesEachTransactionOnce(t *testing.T) {
	ctx := context.Background()
	sch, err := orchestra.ParseSchemaString(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := orchestra.Open(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	peers := map[string]*orchestra.Peer{}
	for _, name := range []string{"alaska", "beijing", "crete", "dresden"} {
		if peers[name], err = sys.Peer(name); err != nil {
			t.Fatal(err)
		}
	}
	const n = 9
	for i := 0; i < n; i++ {
		var tx *orchestra.Txn
		if i%3 == 2 {
			tx = peers["dresden"].Begin().Insert("OPS", orchestra.NewTuple(
				orchestra.String(fmt.Sprintf("org%d", i)), orchestra.String("p"), orchestra.String("ACGT")))
		} else {
			id := orchestra.Int(int64(i))
			tx = peers["alaska"].Begin().
				Insert("O", orchestra.NewTuple(orchestra.String(fmt.Sprintf("org%d", i)), id)).
				Insert("P", orchestra.NewTuple(orchestra.String(fmt.Sprintf("prot%d", i)), id)).
				Insert("S", orchestra.NewTuple(id, id, orchestra.String("TTTT")))
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"alaska", "dresden"} {
		if _, err := peers[name].Publish(ctx); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := sys.ReconcileAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range reports {
		if rep.Fetched != n {
			t.Errorf("%s fetched %d, want %d", name, rep.Fetched, n)
		}
	}
	rows, err := peers["crete"].Rows("OPS")
	if err != nil || len(rows) != n {
		t.Fatalf("crete OPS holds %d rows (%v), want %d", len(rows), err, n)
	}
	batch := sys.Metrics().Histograms["exchange_applyall_batch_txns"]
	if batch.Sum != n {
		t.Errorf("exchange_applyall_batch_txns sums to %d over %d drains, want %d (one translation per transaction)",
			batch.Sum, batch.Count, n)
	}
}
