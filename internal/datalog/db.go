package datalog

import (
	"maps"
	"sort"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Fact is a tuple with its provenance annotation.
type Fact struct {
	Tuple schema.Tuple
	Prov  provenance.Poly
}

// Rel is the annotated extent of one predicate — the per-predicate shard of
// a DB. Facts are stored once, by pointer, and shared with the hash-index
// layer (index.go), so a provenance update is a single in-place write. The
// *Fact structs themselves are allocated from contiguous slabs (see
// newFact): one bulk allocation per relSlabSize facts instead of one heap
// object per fact, which densifies the long-lived union database and cuts
// the GC's pointer-chasing scan load on large accumulated extents.
//
// A Rel captured by DB.Snapshot is marked shared: every DB holding it must
// copy-on-write (DB.MutableRel) before its next mutation, because both the
// facts map and the *Fact structs it points to are reachable from the frozen
// view. Read paths (Get, Contains, lookup, Facts) never need the copy; lazy
// index builds are semantically read-only and stay safe on a shared Rel.
type Rel struct {
	facts map[string]*Fact
	// slab is the current allocation slab. Slabs are fixed-capacity and
	// never reallocated, so &slab[i] stays valid for the extent's lifetime —
	// the address stability the facts map and index buckets rely on.
	slab []Fact
	// free lists zeroed slots of removed facts for reuse, so delete-heavy
	// churn recycles slab capacity instead of pinning mostly dead slabs
	// behind a few live stragglers.
	free []*Fact
	idx  relIndex // see index.go
	// keyCols declares a primary key (see DB.Declare): pk maps each fact's
	// key projection, encoded like a tuple key, to the fact's tuple key.
	// Unlike the hash indexes, pk is copied along on copy-on-write, so a
	// cloned keyed extent never pays an O(rows) key re-encoding. Both are
	// nil on unkeyed extents, where the whole tuple is the key.
	keyCols []int
	pk      map[string]string
	// shared marks the extent as reachable from a snapshot. Once set it is
	// never cleared: each holder clones on its first subsequent mutation.
	// Atomic so that concurrent evaluations over one shared EDB — each
	// snapshotting it at entry — stay race-free.
	shared atomic.Bool
}

// NewRel creates an empty extent.
func NewRel() *Rel {
	return &Rel{facts: map[string]*Fact{}}
}

// relSlabSize is the number of facts allocated per contiguous slab.
const relSlabSize = 256

// newFact allocates storage for one fact, reusing a freed slot when one
// exists and otherwise appending to the shard's current slab (starting a
// fresh slab when full). Callers must store the returned pointer in the
// facts map before the next newFact call.
func (r *Rel) newFact(t schema.Tuple, p provenance.Poly) *Fact {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		*f = Fact{Tuple: t, Prov: p}
		return f
	}
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Fact, 0, relSlabSize)
	}
	r.slab = append(r.slab, Fact{Tuple: t, Prov: p})
	return &r.slab[len(r.slab)-1]
}

// reserve sizes the next slab for an expected burst of n inserts, so a
// large merge lands in one bulk allocation instead of n/relSlabSize slab
// starts. It only acts when the current slab is exhausted and no freed
// slots are pending — partially filled slabs keep filling as usual — and
// caps the pre-allocation so a wildly overestimated n cannot pin memory.
func (r *Rel) reserve(n int) {
	if n <= relSlabSize || len(r.slab) < cap(r.slab) || len(r.free) > 0 {
		return
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	r.slab = make([]Fact, 0, n)
}

// Len returns the number of facts.
func (r *Rel) Len() int { return len(r.facts) }

// Get returns the fact for the tuple, if present.
func (r *Rel) Get(t schema.Tuple) (Fact, bool) {
	if f := r.facts[t.Key()]; f != nil {
		return *f, true
	}
	return Fact{}, false
}

// Contains reports tuple membership.
func (r *Rel) Contains(t schema.Tuple) bool {
	_, ok := r.facts[t.Key()]
	return ok
}

// containsKey reports membership by pre-encoded tuple key.
func (r *Rel) containsKey(key []byte) bool {
	_, ok := r.facts[string(key)]
	return ok
}

// put inserts or merges a fact; it reports whether the extent changed.
func (r *Rel) put(t schema.Tuple, p provenance.Poly) bool {
	return r.putKeyed(t.Key(), t, p)
}

// putKeyed is put with the tuple key already computed. Genuine insertions
// are folded incrementally into every maintained index.
func (r *Rel) putKeyed(k string, t schema.Tuple, p provenance.Poly) bool {
	if f := r.facts[k]; f != nil {
		if f.Prov.Subsumes(p) {
			return false
		}
		// Stored annotations are interned (hash-consed): equal polynomials
		// across the database share one allocation and compare by pointer.
		f.Prov = f.Prov.Add(p).Intern()
		return true
	}
	f := r.newFact(t, p.Intern())
	r.facts[k] = f
	if r.pk != nil {
		r.pk[r.keyOf(t)] = k
	}
	r.indexInsert(f)
	return true
}

// keyOf encodes t's projection on the extent's key columns. It goes
// through Tuple.Key's memo: storage.Instance encodes the same projection
// just before it writes, so the encoding here is a cache hit.
func (r *Rel) keyOf(t schema.Tuple) string {
	return t.Project(r.keyCols).Key()
}

// GetByKey returns the fact whose key projection equals key (see
// DB.Declare); on an unkeyed extent key is the whole tuple.
func (r *Rel) GetByKey(key schema.Tuple) (Fact, bool) {
	if r.pk == nil {
		return r.Get(key)
	}
	if k, ok := r.pk[key.Key()]; ok {
		return *r.facts[k], true
	}
	return Fact{}, false
}

// remove deletes the fact stored under key k, keeping indexes in sync. The
// dead slab slot is zeroed so it stops pinning the tuple and annotation,
// and queued for reuse by the next insertion; callers that still need the
// fact's contents must copy them out first.
func (r *Rel) remove(k string) {
	f, ok := r.facts[k]
	if !ok {
		return
	}
	delete(r.facts, k)
	if r.pk != nil {
		if pk := r.keyOf(f.Tuple); r.pk[pk] == k {
			delete(r.pk, pk)
		}
	}
	r.indexRemove(f)
	*f = Fact{}
	r.free = append(r.free, f)
}

// Facts returns all facts in deterministic (tuple) order.
func (r *Rel) Facts() []Fact {
	out := make([]Fact, 0, len(r.facts))
	for _, f := range r.facts {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// DB maps predicate names to extents.
type DB struct {
	rels map[string]*Rel
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{rels: map[string]*Rel{}} }

// Declare creates pred's extent keyed on the given columns: GetByKey then
// finds a fact by its key projection. The key index is maintained on every
// insertion and removal but not enforced — two facts sharing a key are the
// caller's to prevent (storage.Instance does). With no columns the whole
// tuple is the key and no index is kept.
func (db *DB) Declare(pred string, keyCols []int) {
	r := db.MutableRel(pred)
	if len(keyCols) == 0 {
		return
	}
	r.keyCols = keyCols
	r.pk = make(map[string]string, len(r.facts))
	for k, f := range r.facts {
		r.pk[r.keyOf(f.Tuple)] = k
	}
}

// Rel returns the extent for pred, creating it if needed. The returned
// extent may be shared with a snapshot: callers must treat it as read-only
// and obtain mutable extents through MutableRel.
func (db *DB) Rel(pred string) *Rel {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRel()
		db.rels[pred] = r
	}
	return r
}

// MutableRel returns an extent for pred that is exclusively owned by db,
// copy-on-write-cloning it first if it is shared with a snapshot. All
// mutation paths (put, remove, in-place provenance writes) must go through
// it; with no snapshot outstanding it is a map lookup and a flag test.
func (db *DB) MutableRel(pred string) *Rel {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRel()
		db.rels[pred] = r
		return r
	}
	if r.shared.Load() {
		r = r.cowClone()
		db.rels[pred] = r
	}
	return r
}

// cowClone deep-copies the extent's facts (the *Fact structs are mutated in
// place by provenance merges, so they cannot be shared across the COW
// boundary). The clone's facts land in one exactly-sized slab — a cloned
// shard is maximally dense regardless of the original's slab fill. The key
// index is copied as is (it holds tuple keys, not fact pointers); hash
// indexes are not copied — the clone rebuilds them lazily on first probe,
// while the frozen side keeps its own.
func (r *Rel) cowClone() *Rel {
	nr := &Rel{facts: make(map[string]*Fact, len(r.facts)), keyCols: r.keyCols, pk: maps.Clone(r.pk)}
	nr.slab = make([]Fact, 0, len(r.facts))
	for k, f := range r.facts {
		nr.slab = append(nr.slab, *f)
		nr.facts[k] = &nr.slab[len(nr.slab)-1]
	}
	return nr
}

// Has reports whether the predicate has a (possibly empty) extent.
func (db *DB) Has(pred string) bool {
	_, ok := db.rels[pred]
	return ok
}

// Preds returns the sorted predicate names present.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Add inserts a fact.
func (db *DB) Add(pred string, t schema.Tuple, p provenance.Poly) bool {
	return db.MutableRel(pred).put(t, p)
}

// AddTuple inserts a fact annotated 1 (used for plain set-semantics EDBs).
func (db *DB) AddTuple(pred string, t schema.Tuple) bool {
	return db.MutableRel(pred).put(t, provenance.One())
}

// Set stores the fact, replacing (not merging) any existing annotation for
// the tuple. storage.Instance writes through it to keep its exact
// annotation instead of Add's alternative-derivation accumulation. An
// annotation-only change writes the stored fact in place — the tuple's
// index entries are unaffected, so no index maintenance runs.
func (db *DB) Set(pred string, t schema.Tuple, p provenance.Poly) {
	db.setKeyed(pred, t.Key(), t, p)
}

// setKeyed is Set for callers that already hold the tuple's canonical key
// (the snapshot codec decodes keys before tuples, and the key computation is
// measurable on the recovery path).
func (db *DB) setKeyed(pred, k string, t schema.Tuple, p provenance.Poly) {
	r := db.MutableRel(pred)
	if f := r.facts[k]; f != nil {
		f.Prov = p.Intern()
		return
	}
	r.putKeyed(k, t, p)
}

// Remove deletes the tuple from pred's extent, if present.
func (db *DB) Remove(pred string, t schema.Tuple) {
	db.MutableRel(pred).remove(t.Key())
}

// Size returns the total number of facts.
func (db *DB) Size() int {
	n := 0
	for _, r := range db.rels {
		n += len(r.facts)
	}
	return n
}

// Snapshot returns an O(#preds) frozen view of the database: the snapshot
// shares every extent with db, and both sides mark the extents shared so
// the first mutation of each extent — on either side — clones it first
// (copy-on-write, see MutableRel). Extents that are never mutated are never
// copied, which is what makes snapshot-based evaluation cheap: Eval only
// pays for the head relations it actually derives into.
//
// The snapshot observes none of db's later changes and vice versa, exactly
// like the deep Clone it replaces, provided all mutations go through the DB
// API (Add, MutableRel, and the evaluator's merge paths).
func (db *DB) Snapshot() *DB {
	c := &DB{rels: make(map[string]*Rel, len(db.rels))}
	for p, r := range db.rels {
		r.shared.Store(true)
		c.rels[p] = r
	}
	return c
}

// Clone deep-copies the database eagerly (indexes are not copied). Most
// callers want Snapshot instead; Clone remains for tests and for callers
// that need a guaranteed-private copy regardless of mutation patterns.
func (db *DB) Clone() *DB {
	c := NewDB()
	for p, r := range db.rels {
		c.rels[p] = r.cowClone()
	}
	return c
}
