package exchange

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// unionFingerprint renders the engine's union database — predicates, tuples,
// and provenance strings — so any state divergence shows as a diff.
func unionFingerprint(e *Engine) string {
	var b strings.Builder
	db := e.UnionDB()
	for _, pred := range db.Preds() {
		b.WriteString(pred)
		b.WriteString(":\n")
		for _, f := range db.Rel(pred).Facts() {
			fmt.Fprintf(&b, "  %v @ %s\n", f.Tuple, f.Prov)
		}
	}
	return b.String()
}

// applyHistory drives a mixed workload: cross-peer inserts that derive
// joined tuples, a modify, and a delete — exercising base tokens, dead
// tokens, and the token-occurrence index.
func applyHistory(t *testing.T, e *Engine) []*Result {
	t.Helper()
	var results []*Result
	txns := []*updates.Transaction{
		txn(workload.Alaska, 1,
			updates.Insert("O", workload.OTuple("mouse", 1)),
			updates.Insert("P", workload.PTuple("p53", 10)),
			updates.Insert("S", workload.STuple(1, 10, "ACGT"))),
		txn(workload.Beijing, 1,
			updates.Insert("S", workload.STuple(1, 10, "TTTT"))),
		txn(workload.Alaska, 2,
			updates.Modify("S", workload.STuple(1, 10, "ACGT"), workload.STuple(1, 10, "GGGG"))),
		txn(workload.Beijing, 2,
			updates.Delete("S", workload.STuple(1, 10, "TTTT"))),
	}
	for _, tx := range txns {
		res, err := e.Apply(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// TestEngineStateRoundTrip pins that SaveState→LoadState reproduces the
// engine exactly: same union database (tuples AND provenance), same applied
// set, and identical behavior on subsequent transactions — including
// deletions, which depend on the restored base tokens, dead set, and token
// occurrences.
func TestEngineStateRoundTrip(t *testing.T) {
	live := fig2Engine(t)
	applyHistory(t, live)
	blob, err := live.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	restored := fig2Engine(t)
	if err := restored.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	if want, got := unionFingerprint(live), unionFingerprint(restored); want != got {
		t.Fatalf("restored union DB differs:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	for _, id := range []updates.TxnID{{Peer: workload.Alaska, Seq: 1}, {Peer: workload.Alaska, Seq: 2},
		{Peer: workload.Beijing, Seq: 1}, {Peer: workload.Beijing, Seq: 2}} {
		if !restored.Applied(id) {
			t.Fatalf("restored engine lost applied txn %s", id)
		}
	}
	if restored.Applied(updates.TxnID{Peer: workload.Crete, Seq: 1}) {
		t.Fatal("restored engine invented an applied txn")
	}

	// Both engines must now translate the same future identically — a
	// delete of a base tuple (kills restored base tokens) and a fresh
	// insert joining against restored state.
	future := []*updates.Transaction{
		txn(workload.Alaska, 3, updates.Delete("O", workload.OTuple("mouse", 1))),
		txn(workload.Beijing, 3, updates.Insert("O", workload.OTuple("rat", 2))),
	}
	for _, tx := range future {
		cp := *tx
		wantRes, err := live.Apply(context.Background(), &cp)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := restored.Apply(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(describeResult(wantRes), describeResult(gotRes)) {
			t.Fatalf("txn %s diverged:\nlive: %v\nrestored: %v", tx.ID, describeResult(wantRes), describeResult(gotRes))
		}
	}
	if want, got := unionFingerprint(live), unionFingerprint(restored); want != got {
		t.Fatalf("union DBs diverged after post-restore traffic:\nlive:\n%s\nrestored:\n%s", want, got)
	}
}

// describeResult renders a Result deterministically (updates with
// provenance strings plus extra deps) for comparison.
func describeResult(r *Result) map[string][]string {
	out := map[string][]string{}
	for peer, ups := range r.PerPeer {
		for _, u := range ups {
			out[peer] = append(out[peer], fmt.Sprintf("%s @ %s", u, u.Prov))
		}
		for _, id := range r.ExtraDeps[peer] {
			out[peer] = append(out[peer], "dep:"+id.String())
		}
	}
	return out
}

func TestEngineStateRejectsCorruptBlobs(t *testing.T) {
	e := fig2Engine(t)
	applyHistory(t, e)
	blob, err := e.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := fig2Engine(t)
	if err := fresh.LoadState([]byte("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, cut := range []int{5, len(blob) / 2, len(blob) - 1} {
		if err := fresh.LoadState(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := fresh.LoadState(append(append([]byte(nil), blob...), 1)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Forged list lengths, one per count after the union database: each
	// must fail fast instead of sizing an allocation from the count.
	emptyDB, err := datalog.EncodeDB(datalog.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	prefix := binary.AppendUvarint([]byte(stateMagic), uint64(len(emptyDB)))
	prefix = append(prefix, emptyDB...)
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, c := range []struct {
		name string
		body []byte // after the union database
	}{
		{"occurrences", huge},
		{"dead tokens", append([]byte{0}, huge...)},
		{"base keys", append([]byte{0, 0}, huge...)},
		{"base tokens", append([]byte{0, 0, 1, 1, 'k'}, huge...)},
		{"applied", append([]byte{0, 0, 0}, huge...)},
	} {
		if err := fresh.LoadState(append(append([]byte(nil), prefix...), c.body...)); err == nil {
			t.Errorf("huge %s count accepted", c.name)
		}
	}
	// A failed load leaves the engine usable and empty.
	if fresh.Applied(updates.TxnID{Peer: workload.Alaska, Seq: 1}) {
		t.Fatal("failed LoadState mutated the engine")
	}
	if err := fresh.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	if stats, err := StatState(blob); err != nil || stats.Facts == 0 || stats.Preds == 0 {
		t.Fatalf("StatState = %+v, %v", stats, err)
	}
}
