package csvio

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/workload"
)

func TestReadRelationBasic(t *testing.T) {
	rel := workload.Sigma1().Relation("S")
	in := "oid,pid,seq\n1,10,ACGT\n2,20,TTTT\n"
	tuples, err := ReadRelation(strings.NewReader(in), rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	if !tuples[0].Equal(workload.STuple(1, 10, "ACGT")) {
		t.Errorf("tuple 0 = %v", tuples[0])
	}
	// Headerless input works too.
	tuples, err = ReadRelation(strings.NewReader("3,30,GGGG\n"), rel)
	if err != nil || len(tuples) != 1 {
		t.Fatalf("headerless: %v %v", tuples, err)
	}
}

func TestReadRelationErrors(t *testing.T) {
	rel := workload.Sigma1().Relation("S")
	cases := []string{
		"1,10\n",          // wrong arity
		"x,10,ACGT\n",     // bad int
		"1,10,ACGT,zzz\n", // too many fields
	}
	for _, c := range cases {
		if _, err := ReadRelation(strings.NewReader(c), rel); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestAllKinds(t *testing.T) {
	rel := schema.MustRelation("K", []schema.Attribute{
		{Name: "s", Type: schema.KindString},
		{Name: "i", Type: schema.KindInt},
		{Name: "f", Type: schema.KindFloat},
		{Name: "b", Type: schema.KindBool},
	})
	in := "hello,42,2.5,true\n"
	tuples, err := ReadRelation(strings.NewReader(in), rel)
	if err != nil || len(tuples) != 1 {
		t.Fatal(err)
	}
	want := schema.NewTuple(schema.String("hello"), schema.Int(42), schema.Float(2.5), schema.Bool(true))
	if !tuples[0].Equal(want) {
		t.Errorf("tuple = %v", tuples[0])
	}
	for _, bad := range []string{"h,x,2.5,true\n", "h,1,x,true\n", "h,1,2.5,x\n"} {
		if _, err := ReadRelation(strings.NewReader(bad), rel); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rel := workload.Sigma1().Relation("S")
	inst := storage.NewInstance(workload.Sigma1())
	rows := []schema.Tuple{
		workload.STuple(1, 10, "AC,GT"), // comma inside a field
		workload.STuple(2, 20, "line\nbreak"),
		schema.NewTuple(schema.LabeledNull("sk_M_CA_oid(s:fly)"), schema.Int(3), schema.String("TT")),
	}
	for _, r := range rows {
		if err := inst.Insert("S", r, provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteRelation(&buf, inst, "S"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelation(&buf, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("round trip lost rows: %v", got)
	}
	back := storage.NewInstance(workload.Sigma1())
	for _, g := range got {
		if err := back.Insert("S", g, provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		if !back.Contains("S", r) {
			t.Errorf("missing %v after round trip", r)
		}
	}
}

func TestWriteInstance(t *testing.T) {
	inst := storage.NewInstance(workload.Sigma1())
	if err := inst.Insert("O", workload.OTuple("mouse", 1), provenance.One()); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("S", workload.STuple(1, 10, "ACGT"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	bufs := map[string]*bytes.Buffer{}
	err := WriteInstance(inst, func(rel string) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs[rel] = b
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != 3 { // O, P, S — P is empty but still written with header
		t.Fatalf("files = %v", bufs)
	}
	if !strings.Contains(bufs["O"].String(), "mouse") {
		t.Errorf("O file = %q", bufs["O"].String())
	}
	if !strings.Contains(bufs["P"].String(), "prot,pid") {
		t.Errorf("P file should contain only a header, got %q", bufs["P"].String())
	}
	// Round trip the exported O file into a fresh peer-style load.
	got, err := ReadRelation(bufs["O"], workload.Sigma1().Relation("O"))
	if err != nil || len(got) != 1 || !got[0].Equal(workload.OTuple("mouse", 1)) {
		t.Errorf("export/import O = %v, %v", got, err)
	}
}
