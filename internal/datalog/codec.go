package datalog

import (
	"encoding/binary"
	"fmt"
	"sort"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Binary snapshot codec for a DB: the durable form of the translation
// engine's union database (DESIGN.md §13). The format is a pure function
// of the database's logical content — the set of (predicate, tuple,
// polynomial) facts — so two databases that are Equal encode to identical
// bytes regardless of insertion order, intern-cache state, or slab layout.
// Provenance polynomials are encoded once each against a node table and
// referenced by index, so the hash-consed sharing the in-memory
// representation relies on survives the round trip: every fact that shared
// an annotation before EncodeDB shares one interned node after DecodeDB.
//
// Layout (all integers unsigned varints, all strings varint-length-prefixed):
//
//	magic "ODB1"
//	varCount, then each provenance.Var (sorted ascending)
//	polyCount, then each polynomial: monoCount ·
//	    { coef, varPowCount, { varIndex, pow }* }*
//	predCount, then each predicate (sorted ascending): name, factCount,
//	    { tupleKey, polyIndex }*
//
// Tuples travel as schema.Tuple.Key() strings (injective, parsed back with
// schema.ParseTupleKey); polynomials rebuild through provenance.FromMonomials
// and re-intern on decode. A polynomial table entry with zero monomials is
// the zero polynomial.

// codecMagic identifies (and versions) the snapshot format. Bump the digit
// on any layout change: DecodeDB refuses unknown magics instead of
// misparsing, which is what lets recovery fall back to full replay when it
// meets a snapshot written by a different build.
const codecMagic = "ODB1"

// DBStats summarizes an encoded DB snapshot without materializing it.
type DBStats struct {
	Preds     int // predicates with at least one encoded extent
	Facts     int // total facts across all predicates
	PolyNodes int // distinct provenance polynomials in the node table
	Vars      int // distinct provenance variables
	Bytes     int // encoded size
}

// EncodeDB serializes the database. The encoding is deterministic (see the
// package comment above): preds and vars are sorted, facts ride in
// Rel.Facts() tuple order, and polynomial table indices are assigned in
// first-encounter order over that fixed walk.
func EncodeDB(db *DB) ([]byte, error) {
	preds := db.Preds()
	type extent struct {
		name  string
		facts []Fact
	}
	extents := make([]extent, 0, len(preds))
	for _, p := range preds {
		extents = append(extents, extent{name: p, facts: db.Rel(p).Facts()})
	}

	// Pass 1: collect the variable universe and deduplicate polynomials by
	// content (hash-bucketed, Equal-confirmed), so structurally equal
	// annotations share one table entry even when the bounded intern cache
	// let them diverge into distinct nodes in memory.
	varSet := map[provenance.Var]struct{}{}
	type bucket struct {
		poly provenance.Poly
		idx  int
	}
	table := []provenance.Poly{}
	buckets := map[uint64][]bucket{}
	polyIndex := func(p provenance.Poly) int {
		h := p.Hash()
		for _, b := range buckets[h] {
			if b.poly.Equal(p) {
				return b.idx
			}
		}
		idx := len(table)
		table = append(table, p)
		buckets[h] = append(buckets[h], bucket{poly: p, idx: idx})
		return idx
	}
	factPolys := make([][]int, len(extents))
	for i, ext := range extents {
		factPolys[i] = make([]int, len(ext.facts))
		for j, f := range ext.facts {
			factPolys[i][j] = polyIndex(f.Prov)
			for _, m := range f.Prov.Monomials() {
				for _, vp := range m.Vars {
					varSet[vp.Var] = struct{}{}
				}
			}
		}
	}
	vars := make([]provenance.Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	varIdx := make(map[provenance.Var]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}

	// Pass 2: emit.
	buf := append([]byte(nil), codecMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, v := range vars {
		buf = appendString(buf, string(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, p := range table {
		monos := p.Monomials()
		buf = binary.AppendUvarint(buf, uint64(len(monos)))
		for _, m := range monos {
			buf = binary.AppendUvarint(buf, m.Coef)
			buf = binary.AppendUvarint(buf, uint64(len(m.Vars)))
			for _, vp := range m.Vars {
				buf = binary.AppendUvarint(buf, uint64(varIdx[vp.Var]))
				buf = binary.AppendUvarint(buf, uint64(vp.Pow))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(extents)))
	for i, ext := range extents {
		buf = appendString(buf, ext.name)
		buf = binary.AppendUvarint(buf, uint64(len(ext.facts)))
		for j, f := range ext.facts {
			buf = appendString(buf, f.Tuple.Key())
			buf = binary.AppendUvarint(buf, uint64(factPolys[i][j]))
		}
	}
	return buf, nil
}

// DecodeDB materializes a database from an EncodeDB snapshot. Each
// polynomial table entry is rebuilt and interned exactly once, then shared
// by every fact that references it.
func DecodeDB(blob []byte) (*DB, error) {
	db := NewDB()
	_, err := walkSnapshot(blob, func(pred string, key string, p provenance.Poly) error {
		t, err := schema.ParseTupleKey(key)
		if err != nil {
			return fmt.Errorf("datalog: snapshot tuple in %s: %w", pred, err)
		}
		db.setKeyed(pred, key, t, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// StatDB parses an encoded snapshot's structure without building a DB —
// the cheap path behind `orchestra inspect`.
func StatDB(blob []byte) (DBStats, error) {
	return walkSnapshot(blob, nil)
}

// walkSnapshot decodes the snapshot, invoking visit (when non-nil) for
// every fact, and returns the structural stats either way.
func walkSnapshot(blob []byte, visit func(pred, tupleKey string, p provenance.Poly) error) (DBStats, error) {
	var stats DBStats
	stats.Bytes = len(blob)
	if len(blob) < len(codecMagic) || string(blob[:len(codecMagic)]) != codecMagic {
		return stats, fmt.Errorf("datalog: not a DB snapshot (bad magic)")
	}
	r := &reader{buf: blob[len(codecMagic):]}

	nVars := r.count()
	vars := make([]provenance.Var, 0, nVars)
	for i := uint64(0); i < nVars; i++ {
		vars = append(vars, provenance.Var(r.string()))
	}
	stats.Vars = len(vars)

	nPolys := r.count()
	table := make([]provenance.Poly, 0, nPolys)
	// Monomials and their variable-power lists are tiny, numerous, and all
	// long-lived together once the poly table retains them, so carve them
	// from chunked arenas instead of paying one heap allocation (and one
	// GC mark) per monomial. FromCanonicalMonomials takes ownership, which
	// is what makes handing out arena-backed slices sound.
	var monoArena []provenance.Monomial
	var vpArena []provenance.VarPow
	for i := uint64(0); i < nPolys; i++ {
		nMonos := r.count()
		if int(nMonos) > cap(monoArena)-len(monoArena) {
			size := 4096
			if int(nMonos) > size {
				size = int(nMonos)
			}
			monoArena = make([]provenance.Monomial, 0, size)
		}
		monos := monoArena[len(monoArena) : len(monoArena) : len(monoArena)+int(nMonos)]
		monoArena = monoArena[:len(monoArena)+int(nMonos)]
		for j := uint64(0); j < nMonos; j++ {
			m := provenance.Monomial{Coef: r.uvarint()}
			nvp := r.count()
			if int(nvp) > cap(vpArena)-len(vpArena) {
				size := 8192
				if int(nvp) > size {
					size = int(nvp)
				}
				vpArena = make([]provenance.VarPow, 0, size)
			}
			m.Vars = vpArena[len(vpArena) : len(vpArena) : len(vpArena)+int(nvp)]
			vpArena = vpArena[:len(vpArena)+int(nvp)]
			for k := uint64(0); k < nvp; k++ {
				vi := r.uvarint()
				pow := r.uvarint()
				if r.err == nil && vi >= uint64(len(vars)) {
					r.err = fmt.Errorf("datalog: snapshot var index %d out of range", vi)
				}
				if r.err != nil {
					return stats, r.err
				}
				m.Vars = append(m.Vars, provenance.VarPow{Var: vars[vi], Pow: int(pow)})
			}
			monos = append(monos, m)
		}
		if r.err != nil {
			return stats, r.err
		}
		table = append(table, provenance.FromCanonicalMonomials(monos).Intern())
	}
	stats.PolyNodes = len(table)

	nPreds := r.count()
	for i := uint64(0); i < nPreds; i++ {
		pred := r.string()
		nFacts := r.count()
		for j := uint64(0); j < nFacts; j++ {
			key := r.string()
			pi := r.uvarint()
			if r.err == nil && pi >= uint64(len(table)) {
				r.err = fmt.Errorf("datalog: snapshot poly index %d out of range", pi)
			}
			if r.err != nil {
				return stats, r.err
			}
			if visit != nil {
				if err := visit(pred, key, table[pi]); err != nil {
					return stats, err
				}
			}
			stats.Facts++
		}
		stats.Preds++
	}
	if r.err != nil {
		return stats, r.err
	}
	if len(r.buf) != 0 {
		return stats, fmt.Errorf("datalog: %d trailing bytes after DB snapshot", len(r.buf))
	}
	return stats, nil
}

// appendString appends a varint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader is a cursor over the snapshot body with sticky error handling.
type reader struct {
	buf []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("datalog: truncated DB snapshot (bad varint)")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a list length. Every list element takes at least one byte,
// so a count above the bytes left marks a truncated or forged snapshot:
// rejecting it here keeps a crafted length from sizing an allocation or
// driving a loop far past the end of the input.
func (r *reader) count() uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("datalog: truncated DB snapshot (count %d exceeds the %d bytes left)", n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("datalog: truncated DB snapshot (string overruns buffer)")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
