// Package csvio bridges the CDSS and the flat-file world the paper's
// introduction describes ("scientific data sharing often consists of large
// databases placed on FTP sites"): it bulk-loads CSV dumps into a peer as
// ordinary transactions and exports instances back to CSV, so a
// confederation can be bootstrapped from existing dumps.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"orchestra/internal/schema"
	"orchestra/internal/storage"
)

// ReadRelation parses CSV rows into tuples of the given relation. The file
// must have one column per attribute, in declared order; a header row equal
// to the attribute names is skipped if present. Labeled nulls are written
// and read as ⊥-prefixed Skolem terms.
func ReadRelation(r io.Reader, rel *schema.Relation) ([]schema.Tuple, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = rel.Arity()
	var out []schema.Tuple
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: %s: %w", rel.Name, err)
		}
		line++
		if line == 1 && isHeader(rec, rel) {
			continue
		}
		tu := make(schema.Tuple, len(rec))
		for i, field := range rec {
			v, err := parseField(field, rel.Attrs[i].Type)
			if err != nil {
				return nil, fmt.Errorf("csvio: %s line %d column %s: %w", rel.Name, line, rel.Attrs[i].Name, err)
			}
			tu[i] = v
		}
		if err := rel.Validate(tu); err != nil {
			return nil, fmt.Errorf("csvio: %s line %d: %w", rel.Name, line, err)
		}
		out = append(out, tu)
	}
	return out, nil
}

func isHeader(rec []string, rel *schema.Relation) bool {
	for i, f := range rec {
		if f != rel.Attrs[i].Name {
			return false
		}
	}
	return true
}

func parseField(field string, kind schema.Kind) (schema.Value, error) {
	if len(field) > len("⊥") && field[:len("⊥")] == "⊥" {
		return schema.LabeledNull(field[len("⊥"):]), nil
	}
	switch kind {
	case schema.KindString:
		return schema.String(field), nil
	case schema.KindInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return schema.Value{}, fmt.Errorf("bad int %q", field)
		}
		return schema.Int(i), nil
	case schema.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return schema.Value{}, fmt.Errorf("bad float %q", field)
		}
		return schema.Float(f), nil
	case schema.KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return schema.Value{}, fmt.Errorf("bad bool %q", field)
		}
		return schema.Bool(b), nil
	default:
		return schema.Value{}, fmt.Errorf("unsupported kind %s", kind)
	}
}

// WriteRelation writes the named relation's tuples as CSV with a header
// row, in deterministic order.
func WriteRelation(w io.Writer, inst *storage.Instance, name string) error {
	rows, ok := inst.Rows(name)
	if !ok {
		return fmt.Errorf("csvio: %w %s", storage.ErrUnknownRelation, name)
	}
	rel := inst.Schema().Relation(name)
	cw := csv.NewWriter(w)
	header := make([]string, rel.Arity())
	for i, a := range rel.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		rec := make([]string, len(row.Tuple))
		for i, v := range row.Tuple {
			rec[i] = formatField(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatField(v schema.Value) string {
	if v.IsLabeledNull() {
		return "⊥" + v.Str()
	}
	return v.String()
}

// WriteInstance writes every relation of an instance through emit, which
// receives the relation name and must return the destination writer (e.g.
// one file per relation).
func WriteInstance(inst *storage.Instance, emit func(rel string) (io.Writer, error)) error {
	for _, rel := range inst.Schema().Relations() {
		w, err := emit(rel.Name)
		if err != nil {
			return err
		}
		if err := WriteRelation(w, inst, rel.Name); err != nil {
			return err
		}
	}
	return nil
}
