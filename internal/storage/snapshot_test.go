package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// instFingerprint renders an instance's full observable state — relations,
// rows in canonical order, provenance strings — so any aliasing between a
// snapshot and the live instance shows up as a diff.
func instFingerprint(in *Instance) string {
	var b strings.Builder
	for _, r := range in.Schema().Relations() {
		rows, ok := in.Rows(r.Name)
		if !ok {
			continue
		}
		b.WriteString(r.Name)
		b.WriteString(":\n")
		for _, row := range rows {
			fmt.Fprintf(&b, "  %v @ %s\n", row.Tuple, row.Prov)
		}
	}
	return b.String()
}

// TestInstanceSnapshotIsolationProperty drives random insert/upsert/delete
// scripts against an instance with a live snapshot — the Peer.Publish
// pattern — and asserts after every step that the frozen public snapshot
// is unchanged, including through the primary-key lookup path.
func TestInstanceSnapshotIsolationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 15; round++ {
		in := NewInstance(sigma1())
		for i := 0; i < 25; i++ {
			k := rng.Int63n(40)
			_, err := in.Upsert("S", seqTuple(k, rng.Int63n(40), "ACGT"), provenance.One())
			if err != nil {
				t.Fatal(err)
			}
		}
		snap := in.Snapshot()
		want := instFingerprint(snap)
		// keyed renders the snapshot's key-index lookups, which must stay
		// frozen while the live side's copied key index moves on.
		keyed := func() string {
			var b strings.Builder
			for k := int64(0); k < 40; k++ {
				row, ok := snap.GetByKey("S", schema.NewTuple(schema.Int(k), schema.Int(k)))
				fmt.Fprintf(&b, "%v %v %s;", ok, row.Tuple, row.Prov)
			}
			return b.String()
		}
		wantKeyed := keyed()

		for step := 0; step < 50; step++ {
			k := rng.Int63n(40)
			switch rng.Intn(3) {
			case 0:
				if _, err := in.Upsert("S", seqTuple(k, rng.Int63n(40), "TTTT"), provenance.One()); err != nil {
					t.Fatal(err)
				}
			case 1: // provenance merge on an identical tuple
				if err := in.Insert("S", seqTuple(k, k, "GGGG"), provenance.NewVar(provenance.Var(fmt.Sprintf("p%d", step)))); err != nil {
					if _, isKey := err.(*ErrKeyViolation); !isKey {
						t.Fatal(err)
					}
				}
			case 2:
				if _, err := in.Delete("S", seqTuple(k, k, "ACGT")); err != nil {
					t.Fatal(err)
				}
			}
			if got := instFingerprint(snap); got != want {
				t.Fatalf("round %d step %d: mutation leaked into snapshot:\nwant:\n%s\ngot:\n%s", round, step, want, got)
			}
		}
		if got := keyed(); got != wantKeyed {
			t.Fatalf("round %d: snapshot key lookups changed:\nwant %s\ngot  %s", round, wantKeyed, got)
		}
	}
}

// TestInstanceSnapshotReverseIsolation mutates the snapshot and asserts the
// original instance never observes the changes.
func TestInstanceSnapshotReverseIsolation(t *testing.T) {
	in := NewInstance(sigma1())
	for i := int64(0); i < 20; i++ {
		if err := in.Insert("S", seqTuple(i, i, "ACGT"), provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	want := instFingerprint(in)
	snap := in.Snapshot()
	for i := int64(0); i < 20; i++ {
		if _, err := snap.Upsert("S", seqTuple(i, i, "CCCC"), provenance.One()); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := snap.Delete("S", seqTuple(i, i, "CCCC")); err != nil {
				t.Fatal(err)
			}
		}
		if got := instFingerprint(in); got != want {
			t.Fatalf("i=%d: snapshot mutation leaked into original:\nwant:\n%s\ngot:\n%s", i, want, got)
		}
	}
}

// TestSnapshotChainAcrossPublishes models repeated Publish cycles: take a
// snapshot, mutate, snapshot again, and verify every captured view stays
// exactly as captured.
func TestSnapshotChainAcrossPublishes(t *testing.T) {
	in := NewInstance(sigma1())
	var snaps []*Instance
	var wants []string
	for cycle := int64(0); cycle < 6; cycle++ {
		if err := in.Insert("S", seqTuple(cycle, cycle, "ACGT"), provenance.One()); err != nil {
			t.Fatal(err)
		}
		s := in.Snapshot()
		snaps = append(snaps, s)
		wants = append(wants, instFingerprint(s))
		for i, prev := range snaps {
			if got := instFingerprint(prev); got != wants[i] {
				t.Fatalf("cycle %d: snapshot %d drifted:\nwant:\n%s\ngot:\n%s", cycle, i, wants[i], got)
			}
		}
	}
}
