// Package storage is the key-enforcing view through which each CDSS peer
// reads and writes its local database instance. The rows live in a
// datalog.DB, the structure queries evaluate over, so a peer holds one
// copy of its data: reconciliation writes it through an Instance and
// queries read an O(#relations) copy-on-write snapshot of it. Instance
// adds what the DB does not enforce: schema validation, primary keys, and
// locking.
//
// The full ORCHESTRA prototype sat on an RDBMS; this embedded store is the
// laptop-scale substitute documented in DESIGN.md. It preserves the
// semantics update exchange needs: set semantics, keys, and per-tuple
// provenance.
package storage

import (
	"fmt"
	"sync"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Row is a stored tuple together with its provenance annotation. Base
// tuples (locally inserted) carry a single provenance token; tuples derived
// by update exchange carry the polynomial computed by the mapping rules.
type Row = datalog.Fact

// Instance is a database instance over one schema: one keyed extent per
// relation. An Instance is safe for concurrent use; a coarse RW mutex
// suffices at the scales a single CDSS peer handles between update
// exchanges.
type Instance struct {
	mu     sync.RWMutex
	schema *schema.Schema
	db     *datalog.DB
}

// NewInstance creates an empty instance with one extent per relation,
// keyed on the relation's primary key.
func NewInstance(s *schema.Schema) *Instance {
	db := datalog.NewDB()
	for _, r := range s.Relations() {
		db.Declare(r.Name, r.Key)
	}
	return &Instance{schema: s, db: db}
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *schema.Schema { return in.schema }

// writable resolves rel and validates tu against it. Callers must hold
// in.mu for writing.
func (in *Instance) writable(rel string, tu schema.Tuple) (*schema.Relation, error) {
	r := in.schema.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownRelation, rel)
	}
	return r, r.Validate(tu)
}

// extent returns rel's rows, or false for a relation the schema does not
// declare. The extent may be shared with a snapshot, so callers only read
// it, under in.mu.
func (in *Instance) extent(rel string) (*datalog.Rel, bool) {
	if !in.db.Has(rel) {
		return nil, false
	}
	return in.db.Rel(rel), true
}

// Insert adds a tuple to the named relation. Inserting an identical tuple
// merges provenance by addition (alternative derivations). Inserting a
// different tuple with an existing key returns *ErrKeyViolation.
func (in *Instance) Insert(rel string, tu schema.Tuple, prov provenance.Poly) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, err := in.writable(rel, tu)
	if err != nil {
		return err
	}
	ext := in.db.Rel(rel)
	if row, ok := ext.Get(tu); ok {
		in.db.Set(rel, row.Tuple, row.Prov.Add(prov))
		return nil
	}
	key := r.KeyOf(tu)
	if row, ok := ext.GetByKey(key); ok {
		return &ErrKeyViolation{Relation: rel, Key: key, Existing: row.Tuple, New: tu}
	}
	// Stored tuples are immutable: keep a private copy of the caller's.
	in.db.Set(rel, tu.Clone(), prov)
	return nil
}

// Upsert inserts the tuple into the named relation, replacing any existing
// tuple with the same primary key, and returns the replaced tuple, if any.
// Upserting an identical tuple merges provenance and replaces nothing.
func (in *Instance) Upsert(rel string, tu schema.Tuple, prov provenance.Poly) (*schema.Tuple, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, err := in.writable(rel, tu)
	if err != nil {
		return nil, err
	}
	prev, ok := in.db.Rel(rel).GetByKey(r.KeyOf(tu))
	switch {
	case !ok:
		in.db.Set(rel, tu.Clone(), prov)
		return nil, nil
	case prev.Tuple.Equal(tu):
		in.db.Set(rel, prev.Tuple, prev.Prov.Add(prov))
		return nil, nil
	}
	in.db.Remove(rel, prev.Tuple)
	in.db.Set(rel, tu.Clone(), prov)
	return &prev.Tuple, nil
}

// Delete removes the exact tuple from the named relation. It reports
// whether the tuple was present.
func (in *Instance) Delete(rel string, tu schema.Tuple) (bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	ext, ok := in.extent(rel)
	if !ok {
		return false, fmt.Errorf("%w %s", ErrUnknownRelation, rel)
	}
	if !ext.Contains(tu) {
		return false, nil
	}
	in.db.Remove(rel, tu)
	return true, nil
}

// Get returns the row holding exactly tu in the named relation.
func (in *Instance) Get(rel string, tu schema.Tuple) (Row, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if ext, ok := in.extent(rel); ok {
		return ext.Get(tu)
	}
	return Row{}, false
}

// GetByKey returns the row of the named relation whose primary key is key.
func (in *Instance) GetByKey(rel string, key schema.Tuple) (Row, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if ext, ok := in.extent(rel); ok {
		return ext.GetByKey(key)
	}
	return Row{}, false
}

// Rows returns the named relation's rows sorted by tuple order. ok is
// false for an unknown relation.
func (in *Instance) Rows(rel string) (rows []Row, ok bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	ext, ok := in.extent(rel)
	if !ok {
		return nil, false
	}
	return ext.Facts(), true
}

// Contains reports whether the named relation holds the exact tuple.
func (in *Instance) Contains(rel string, tu schema.Tuple) bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	ext, ok := in.extent(rel)
	return ok && ext.Contains(tu)
}

// Size returns the total number of tuples across all relations.
func (in *Instance) Size() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.db.Size()
}

// Snapshot returns an O(#relations) copy-on-write frozen view — the
// mechanism behind the CDSS "public snapshot": the published view shares
// every extent with the live instance, and the first post-snapshot
// mutation of an extent (on either side) clones it, so later local edits
// never show through the snapshot. Extents that are never edited are never
// copied.
func (in *Instance) Snapshot() *Instance {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return &Instance{schema: in.schema, db: in.db.Snapshot()}
}

// SnapshotDB returns the same O(#relations) copy-on-write snapshot as a
// datalog database, for evaluating queries over the instance's rows.
func (in *Instance) SnapshotDB() *datalog.DB {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.db.Snapshot()
}

// Equal reports whether two instances over the same schema hold exactly
// the same tuples (ignoring provenance).
func (in *Instance) Equal(o *Instance) bool {
	if in == o {
		return true
	}
	if in.schema != o.schema && in.schema.Name != o.schema.Name {
		return false
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	if in.db.Size() != o.db.Size() {
		return false
	}
	for _, p := range in.db.Preds() {
		ext, ok := o.extent(p)
		for _, f := range in.db.Rel(p).Facts() {
			if !ok || !ext.Contains(f.Tuple) {
				return false
			}
		}
	}
	return true
}
