package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeProvRejectsCorrupt: every malformed checkpoint provenance value
// fails with the truncation error instead of panicking or sizing an arena
// from a count the input chose.
func TestDecodeProvRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"huge monomial count", uvarints(1 << 62)},
		{"huge variable count", uvarints(1, 1, 1<<62)},
		{"monomial count past input", uvarints(3, 1, 0)},
		{"variable name past input", uvarints(1, 1, 1, 9)},
		{"missing power", append(uvarints(1, 1, 1, 1), 'x')},
		{"power overflows int", append(append(uvarints(1, 1, 1, 1), 'x'), uvarints(math.MaxUint64)...)},
		{"bad varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeProv(c.data); err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("decodeProv(%x) = %v, want a truncation error", c.data, err)
			}
		})
	}
	if _, err := decodeProv(append(uvarints(0), 7)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestProvCodecRoundTrip(t *testing.T) {
	x, y := provenance.NewVar("x"), provenance.NewVar("y")
	for _, p := range []provenance.Poly{
		provenance.Zero(),
		provenance.One(),
		x,
		x.Mul(x).Add(y).Add(provenance.One()),
		x.Mul(y).Add(x.Mul(y)),
	} {
		data, err := encodeProv(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeProv(data)
		if err != nil {
			t.Fatalf("decode %v: %v", p, err)
		}
		if !got.Equal(p) {
			t.Errorf("round trip: %v -> %v", p, got)
		}
	}
}

// TestSnapshotCodecsRejectCorrupt: the "e/" and peer-state blobs fail with
// an error on truncation at every byte, on a bad magic, and on counts the
// input cannot hold.
func TestSnapshotCodecsRejectCorrupt(t *testing.T) {
	eng := encodeEngineBlob(7, 0.5, []byte("engine-bytes"))
	st, writers := samplePeerState(t)
	ps, err := encodePeerState(st, writers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(eng); i++ {
		if _, err := decodeEngineBlob(eng[:i]); err == nil {
			t.Errorf("engine blob cut at %d/%d decoded", i, len(eng))
		}
	}
	for i := 0; i < len(ps); i++ {
		if _, _, err := decodePeerState(ps[:i]); err == nil {
			t.Errorf("peer state cut at %d/%d decoded", i, len(ps))
		}
	}
	huge := append([]byte(peerStateMagic), uvarints(1<<62)...)
	if _, _, err := decodePeerState(huge); err == nil {
		t.Error("peer state with a 2^62 transaction count decoded")
	}
	if _, err := decodeEngineBlob(append([]byte("OEB1"), eng[4:]...)); err == nil {
		t.Error("engine blob with the wrong magic decoded")
	}
}

// samplePeerState is the trust state and tracker of a Figure 2 peer that
// has a deferred conflict (full update lists), an accepted transaction
// (skeleton) and dependency edges.
func samplePeerState(t testing.TB) (*recon.SavedState, []updates.SavedWriter) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]*Peer{}
	tr, err := NewTranslator(sys, p2p.NewMemoryStore(), exchange.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, policy := range fig2Policies() {
		if peers[name], err = NewPeerWith(name, policy, tr); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit := func(p *Peer, tx *Txn) {
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Publish(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	b, a, d := peers[workload.Beijing], peers[workload.Alaska], peers[workload.Dresden]
	mustCommit(b, b.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "XXXX")))
	mustCommit(a, a.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "YYYY")))
	mustCommit(d, d.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	if _, err := d.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d.state.Save(), d.tracker.Save()
}

// reencodePeerState returns encodePeerState(decodePeerState(blob)).
func reencodePeerState(blob []byte) ([]byte, error) {
	st, writers, err := decodePeerState(blob)
	if err != nil {
		return nil, err
	}
	return encodePeerState(st, writers)
}

func TestPeerStateCodecRoundTrip(t *testing.T) {
	st, writers := samplePeerState(t)
	blob, err := encodePeerState(st, writers)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reencodePeerState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Error("peer state does not re-encode to the same bytes")
	}
	got, _, err := decodePeerState(blob)
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for _, sv := range got.Txns {
		if sv.Status == recon.StatusDeferred {
			deferred++
			if len(sv.Txn.Updates) == 0 {
				t.Errorf("deferred %v lost its updates", sv.Txn.ID)
			}
		}
	}
	if deferred == 0 {
		t.Fatal("sample state has no deferred transaction")
	}
	restored := recon.NewState(func(rel string, tu schema.Tuple) schema.Tuple { return tu })
	if err := restored.Restore(got); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFailsOnCorruptCheckpointRow: a checkpoint row whose
// provenance value claims 2^62 monomials makes recovery return an error,
// not crash the process.
func TestRecoverFailsOnCorruptCheckpointRow(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	dresden := recoverPeer(t, workload.Dresden, ds, recon.TrustAll(1), db)
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	publish(t, dresden)
	reconcile(t, dresden)
	checkpoint(t, dresden, db)
	b := lsm.NewBatch()
	b.Put(ckRowKey(workload.Dresden, "OPS", workload.OPSTuple("rat", "brca1", "TTTT")), uvarints(1<<62))
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTranslator(sys, ds, exchange.Config{}, db)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RecoverPeerWith(context.Background(), workload.Dresden, recon.TrustAll(1), tr)
	if err == nil || !strings.Contains(err.Error(), "truncated provenance") {
		t.Fatalf("recovery over a corrupt row: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
