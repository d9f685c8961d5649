package datalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// buildCodecDB constructs a database with shared annotations, multi-variable
// monomials, constants, and several predicates — the shapes the snapshot
// codec must carry exactly.
func buildCodecDB() *DB {
	db := NewDB()
	x := provenance.NewVar("p:1/0")
	y := provenance.NewVar("q:2/1")
	z := provenance.NewVar("r:3/0")
	shared := x.Mul(y).Add(z).Intern()
	db.Set("G", schema.NewTuple(schema.Int(1), schema.Int(2)), shared)
	db.Set("G", schema.NewTuple(schema.Int(2), schema.Int(3)), shared)
	db.Set("G", schema.NewTuple(schema.Int(3), schema.Int(1)), x.Mul(x).Add(provenance.Const(2)).Intern())
	db.Set("H", schema.NewTuple(schema.String("a"), schema.Int(-7)), provenance.One())
	db.Set("H", schema.NewTuple(schema.String("b\x00c"), schema.Int(0)), y)
	db.Set("Empty0", schema.NewTuple(), provenance.One())
	return db
}

func TestCodecRoundTrip(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := fingerprint(db), fingerprint(got); want != have {
		t.Fatalf("round trip changed the database:\nwant:\n%s\ngot:\n%s", want, have)
	}
	// Provenance equality must be exact (not just same rendering).
	for _, pred := range db.Preds() {
		for _, f := range db.Rel(pred).Facts() {
			gf, ok := got.Rel(pred).Get(f.Tuple)
			if !ok {
				t.Fatalf("%s: %v missing after round trip", pred, f.Tuple)
			}
			if !gf.Prov.Equal(f.Prov) {
				t.Fatalf("%s %v: provenance %s != %s", pred, f.Tuple, gf.Prov, f.Prov)
			}
		}
	}
}

// TestCodecPreservesSharing pins the dedup property: two facts that shared
// one interned annotation before encoding share one node after decoding
// (Poly is a single-pointer struct, so == is node identity).
func TestCodecPreservesSharing(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := got.Rel("G").Get(schema.NewTuple(schema.Int(1), schema.Int(2)))
	b, _ := got.Rel("G").Get(schema.NewTuple(schema.Int(2), schema.Int(3)))
	if a.Prov != b.Prov {
		t.Fatalf("shared annotation decoded into distinct nodes: %s vs %s", a.Prov, b.Prov)
	}
	stats, err := StatDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	// 5 distinct annotations: shared, x²+2, 1, y — and 1 again for Empty0,
	// which dedups with H's constant. Distinct vars: x, y, z.
	if stats.PolyNodes != 4 {
		t.Fatalf("PolyNodes = %d, want 4 (polynomial table must dedup)", stats.PolyNodes)
	}
	if stats.Vars != 3 || stats.Preds != 3 || stats.Facts != 6 || stats.Bytes != len(blob) {
		t.Fatalf("stats = %+v, want Vars 3, Preds 3, Facts 6, Bytes %d", stats, len(blob))
	}
}

// TestCodecOrderIndependent pins that the encoding is a function of logical
// content only: the same fact set inserted in reverse order — with interning
// churn in between — encodes to identical bytes.
func TestCodecOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type entry struct {
		pred string
		t    schema.Tuple
		p    provenance.Poly
	}
	var entries []entry
	for i := 0; i < 64; i++ {
		v := provenance.NewVar(provenance.Var(fmt.Sprintf("p:%d/0", i%7)))
		w := provenance.NewVar(provenance.Var(fmt.Sprintf("q:%d/0", i%5)))
		entries = append(entries, entry{
			pred: fmt.Sprintf("R%d", i%3),
			t:    schema.NewTuple(schema.Int(int64(i)), schema.String(fmt.Sprint(i%4))),
			p:    v.Mul(w).Add(provenance.Const(uint64(i%2 + 1))).Intern(),
		})
	}
	build := func(order []int) *DB {
		db := NewDB()
		for _, i := range order {
			e := entries[i]
			// Rebuild the polynomial from scratch so the two databases do
			// not share construction history.
			db.Set(e.pred, e.t, provenance.FromMonomials(e.p.Monomials()))
		}
		return db
	}
	fwd := make([]int, len(entries))
	for i := range fwd {
		fwd[i] = i
	}
	rev := append([]int(nil), fwd...)
	rng.Shuffle(len(rev), func(i, j int) { rev[i], rev[j] = rev[j], rev[i] })
	b1, err := EncodeDB(build(fwd))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeDB(build(rev))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encoding depends on insertion order: %d vs %d bytes differ", len(b1), len(b2))
	}
}

func TestCodecRejectsCorruptSnapshots(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	cases := []struct {
		name string
		blob []byte
	}{
		{"bad magic", []byte("XXXX")},
		{"empty", nil},
		{"trailing garbage", append(append([]byte(nil), blob...), 0x7)},
		// Forged list lengths: each must fail fast, not size an allocation
		// (a makeslice panic) or spin through 2^62 iterations.
		{"huge var count", append([]byte(codecMagic), huge...)},
		{"huge poly count", append([]byte(codecMagic+"\x00"), huge...)},
		{"huge pred count", append([]byte(codecMagic+"\x00\x00"), huge...)},
	}
	for _, cut := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		cases = append(cases, struct {
			name string
			blob []byte
		}{fmt.Sprintf("truncated at %d", cut), blob[:cut]})
	}
	for _, c := range cases {
		if _, err := DecodeDB(c.blob); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := StatDB(c.blob); err == nil {
			t.Errorf("%s: StatDB accepted", c.name)
		}
	}
}
