package storage

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func sigma1() *schema.Schema {
	s := schema.NewSchema("Σ1")
	s.MustAddRelation(schema.MustRelation("O",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "oid", Type: schema.KindInt}}, "oid"))
	s.MustAddRelation(schema.MustRelation("P",
		[]schema.Attribute{{Name: "prot", Type: schema.KindString}, {Name: "pid", Type: schema.KindInt}}, "pid"))
	s.MustAddRelation(schema.MustRelation("S",
		[]schema.Attribute{{Name: "oid", Type: schema.KindInt}, {Name: "pid", Type: schema.KindInt}, {Name: "seq", Type: schema.KindString}}, "oid", "pid"))
	return s
}

func seqTuple(oid, pid int64, s string) schema.Tuple {
	return schema.NewTuple(schema.Int(oid), schema.Int(pid), schema.String(s))
}

// sizeOf returns the number of rows in one relation of in.
func sizeOf(in *Instance, rel string) int {
	rows, _ := in.Rows(rel)
	return len(rows)
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance(sigma1())
	for _, rel := range []string{"O", "P", "S"} {
		if _, ok := in.Rows(rel); !ok {
			t.Fatalf("missing relation %s", rel)
		}
	}
	if _, ok := in.Rows("missing"); ok {
		t.Error("phantom relation")
	}
	tu := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	if err := in.Insert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if !in.Contains("O", tu) {
		t.Error("insert lost")
	}
	if in.Size() != 1 {
		t.Errorf("size = %d", in.Size())
	}
	if err := in.Insert("missing", tu, provenance.One()); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("insert into unknown relation: %v", err)
	}
	ok, err := in.Delete("O", tu)
	if err != nil || !ok {
		t.Errorf("delete: %v %v", ok, err)
	}
	if _, err := in.Delete("missing", tu); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("delete from unknown relation: %v", err)
	}
	if _, err := in.Upsert("missing", tu, provenance.One()); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("upsert into unknown relation: %v", err)
	}
	if _, ok := in.Get("missing", tu); ok {
		t.Error("Get on unknown relation found a row")
	}
}

func TestTableInsertDelete(t *testing.T) {
	in := NewInstance(sigma1())
	tu := seqTuple(1, 2, "ACGT")
	if err := in.Insert("S", tu, provenance.NewVar("p1")); err != nil {
		t.Fatal(err)
	}
	if sizeOf(in, "S") != 1 || !in.Contains("S", tu) {
		t.Error("insert lost")
	}
	if ok, _ := in.Delete("S", tu); !ok {
		t.Error("delete missed")
	}
	if ok, _ := in.Delete("S", tu); ok {
		t.Error("double delete succeeded")
	}
	if sizeOf(in, "S") != 0 {
		t.Error("relation not empty")
	}
}

func TestTableKeyViolation(t *testing.T) {
	in := NewInstance(sigma1())
	if err := in.Insert("S", seqTuple(1, 2, "AAA"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	err := in.Insert("S", seqTuple(1, 2, "BBB"), provenance.One())
	var kv *ErrKeyViolation
	if !errors.As(err, &kv) {
		t.Fatalf("want ErrKeyViolation, got %v", err)
	}
	if kv.Relation != "S" || !kv.Existing.Equal(seqTuple(1, 2, "AAA")) {
		t.Errorf("violation = %+v", kv)
	}
	if kv.Error() == "" {
		t.Error("empty error message")
	}
	// Same tuple again is fine (set semantics, provenance merged).
	if err := in.Insert("S", seqTuple(1, 2, "AAA"), provenance.NewVar("x")); err != nil {
		t.Fatal(err)
	}
	row, _ := in.Get("S", seqTuple(1, 2, "AAA"))
	if row.Prov.NumMonomials() != 2 {
		t.Errorf("provenance not merged: %v", row.Prov)
	}
}

func TestTableUpsert(t *testing.T) {
	in := NewInstance(sigma1())
	if _, err := in.Upsert("S", seqTuple(1, 2, "AAA"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	replaced, err := in.Upsert("S", seqTuple(1, 2, "BBB"), provenance.One())
	if err != nil {
		t.Fatal(err)
	}
	if replaced == nil || !replaced.Equal(seqTuple(1, 2, "AAA")) {
		t.Errorf("replaced = %v", replaced)
	}
	if sizeOf(in, "S") != 1 || !in.Contains("S", seqTuple(1, 2, "BBB")) {
		t.Error("upsert result wrong")
	}
	// Upsert of identical tuple merges provenance, replaces nothing.
	replaced, err = in.Upsert("S", seqTuple(1, 2, "BBB"), provenance.NewVar("y"))
	if err != nil || replaced != nil {
		t.Errorf("identical upsert: replaced=%v err=%v", replaced, err)
	}
	row, _ := in.Get("S", seqTuple(1, 2, "BBB"))
	if want := provenance.One().Add(provenance.NewVar("y")); !row.Prov.Equal(want) {
		t.Errorf("merged provenance = %v, want %v", row.Prov, want)
	}
}

func TestTableGetByKey(t *testing.T) {
	in := NewInstance(sigma1())
	tu := seqTuple(7, 8, "CCC")
	if err := in.Insert("S", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	row, ok := in.GetByKey("S", schema.NewTuple(schema.Int(7), schema.Int(8)))
	if !ok || !row.Tuple.Equal(tu) {
		t.Errorf("GetByKey = %v, %v", row, ok)
	}
	if _, ok := in.GetByKey("S", schema.NewTuple(schema.Int(9), schema.Int(9))); ok {
		t.Error("phantom key")
	}
	// The key follows a key-replacing upsert and a delete.
	if _, err := in.Upsert("S", seqTuple(7, 8, "DDD"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	if row, ok := in.GetByKey("S", schema.NewTuple(schema.Int(7), schema.Int(8))); !ok || !row.Tuple.Equal(seqTuple(7, 8, "DDD")) {
		t.Errorf("after upsert GetByKey = %v, %v", row, ok)
	}
	if _, err := in.Delete("S", seqTuple(7, 8, "DDD")); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.GetByKey("S", schema.NewTuple(schema.Int(7), schema.Int(8))); ok {
		t.Error("deleted key still found")
	}
}

func TestTableValidateOnWrite(t *testing.T) {
	in := NewInstance(sigma1())
	if err := in.Insert("S", schema.NewTuple(schema.Int(1)), provenance.One()); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := in.Upsert("S", schema.NewTuple(schema.Int(1)), provenance.One()); err == nil {
		t.Error("upsert wrong arity accepted")
	}
	if err := in.Insert("S", seqTuple(1, 1, "x").Project([]int{2, 1, 0}), provenance.One()); err == nil {
		t.Error("wrong column types accepted")
	}
	if in.Size() != 0 {
		t.Errorf("rejected writes stored %d rows", in.Size())
	}
}

// The first write to a snapshot clones the written relation: edits to the
// clone, inserts and deletes alike, never reach the original.
func TestTableCloneIsolation(t *testing.T) {
	in := NewInstance(sigma1())
	if err := in.Insert("S", seqTuple(1, 1, "x"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	c := in.Snapshot()
	if err := c.Insert("S", seqTuple(2, 2, "y"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	if sizeOf(in, "S") != 1 || sizeOf(c, "S") != 2 {
		t.Error("clone aliases original")
	}
	if _, err := c.Delete("S", seqTuple(1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if !in.Contains("S", seqTuple(1, 1, "x")) {
		t.Error("delete in clone affected original")
	}
}

// Property: insert-then-delete round trips leave a relation unchanged.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(oid, pid int64, s string) bool {
		in := NewInstance(sigma1())
		base := seqTuple(0, 0, "base")
		if err := in.Insert("S", base, provenance.One()); err != nil {
			return false
		}
		tu := seqTuple(oid, pid, s)
		if tu.Equal(base) || (oid == 0 && pid == 0) {
			return true // key collides with base; skip
		}
		if err := in.Insert("S", tu, provenance.One()); err != nil {
			return false
		}
		if ok, err := in.Delete("S", tu); !ok || err != nil {
			return false
		}
		return sizeOf(in, "S") == 1 && in.Contains("S", base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstanceCloneSnapshot(t *testing.T) {
	in := NewInstance(sigma1())
	tu := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	if err := in.Insert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	snap := in.Snapshot()
	// Continue editing the local instance; the snapshot must not change.
	tu2 := schema.NewTuple(schema.String("rat"), schema.Int(2))
	if err := in.Insert("O", tu2, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Delete("O", tu); err != nil {
		t.Fatal(err)
	}
	if !snap.Contains("O", tu) || snap.Contains("O", tu2) {
		t.Error("snapshot leaked local edits")
	}
}

func TestInstanceEqual(t *testing.T) {
	a := NewInstance(sigma1())
	b := NewInstance(sigma1())
	mouse := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	if err := a.Insert("O", mouse, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) || b.Equal(a) {
		t.Error("instances with different rows reported equal")
	}
	// Provenance is ignored.
	if err := b.Insert("O", mouse, provenance.NewVar("x")); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || !a.Equal(a) || !a.Equal(a.Snapshot()) {
		t.Error("instances with the same rows reported different")
	}
	other := schema.NewSchema("Σ2")
	other.MustAddRelation(schema.MustRelation("O",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "oid", Type: schema.KindInt}}, "oid"))
	c := NewInstance(other)
	if err := c.Insert("O", mouse, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("instances over different schemas reported equal")
	}
}

func TestInstanceConcurrentAccess(t *testing.T) {
	in := NewInstance(sigma1())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tu := schema.NewTuple(schema.Int(int64(g*1000+i)), schema.Int(int64(i)), schema.String("s"))
				if err := in.Insert("S", tu, provenance.One()); err != nil {
					t.Error(err)
					return
				}
				in.Contains("S", tu)
				in.Size()
			}
		}(g)
	}
	wg.Wait()
	if in.Size() != 800 {
		t.Errorf("size = %d, want 800", in.Size())
	}
}
