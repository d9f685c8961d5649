package main

import (
	"fmt"
	"math/rand/v2"

	"orchestra"
)

// The generator turns a seed into the whole input of a run: every
// transaction and query is fixed here, before the system is opened, so the
// program sees only generated operations and the same seed always yields the
// same inputs. Each expected answer count is computed alongside, from the
// generator's own record of which entries are live at which peer.

// update is one tuple-level change of a generated transaction.
type update struct {
	op       orchestra.Op
	rel      string
	old, new orchestra.Tuple
}

type txn []update

// publication is a burst one peer commits and then publishes at once.
type publication struct {
	peer string
	txns []txn
}

type queryKind int

const (
	// viewLookup asks alaska's O⋈P⋈S view with org and prot bound.
	viewLookup queryKind = iota
	// opsLookup asks crete's OPS with org and prot bound.
	opsLookup
	// viewScan asks alaska's view with nothing bound.
	viewScan
)

type query struct {
	kind      queryKind
	org, prot string
	want      int
}

// round is one update-exchange round of curation and durable: the
// publishers' bursts, then a reconcile at every peer, then user queries.
type round struct {
	pubs    []publication
	queries []query
	restart bool // restart after this round: a crash image on durable, the store elsewhere
}

type exchangeScript struct {
	fill   []publication
	rounds []round
}

type stepKind int

const (
	stepQuery stepKind = iota
	stepCommit
	stepRound
)

// step is one request of the query-mix loop.
type step struct {
	kind   stepKind
	q      query
	commit txn
}

type queryScript struct {
	base  []txn // alaska's population, committed and published at set-up
	steps []step
}

type gen struct {
	rng  *rand.Rand
	next int64
}

func newGen(seed, stream uint64) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, stream)), next: 1}
}

const bases = "ACGT"

func (g *gen) seq() string {
	b := make([]byte, 16)
	for i := range b {
		b[i] = bases[g.rng.IntN(len(bases))]
	}
	return string(b)
}

// entry mints a fresh entry; prefix keeps alaska's and dresden's proteins
// apart, so a bound lookup has exactly one answer.
func (g *gen) entry(prefix string) entry {
	id := g.next
	g.next++
	return entry{
		id:   id,
		org:  fmt.Sprintf("org%02d", g.rng.IntN(48)),
		prot: fmt.Sprintf("%s%07d", prefix, id),
		seq:  g.seq(),
	}
}

func (g *gen) pick(live []entry) entry { return live[g.rng.IntN(len(live))] }

func insertEntry(e entry) []update {
	return []update{
		{op: orchestra.OpInsert, rel: "O", new: e.o()},
		{op: orchestra.OpInsert, rel: "P", new: e.p()},
		{op: orchestra.OpInsert, rel: "S", new: e.s()},
	}
}

func deleteEntry(e entry) []update {
	return []update{
		{op: orchestra.OpDelete, rel: "O", old: e.o()},
		{op: orchestra.OpDelete, rel: "P", old: e.p()},
		{op: orchestra.OpDelete, rel: "S", old: e.s()},
	}
}

func insertOPS(e entry) []update { return []update{{op: orchestra.OpInsert, rel: "OPS", new: e.ops()}} }
func deleteOPS(e entry) []update { return []update{{op: orchestra.OpDelete, rel: "OPS", old: e.ops()}} }

// genExchange builds the curation/durable input. alaska (O, P, S) and
// dresden (OPS) each keep a sliding window of live entries: every round
// deletes their oldest entries and inserts as many new ones, so live state
// stays bounded while history grows. alaska publishes its round as one
// curated burst; dresden publishes each edit as soon as it commits it.
// beijing edits the S rows of a fixed number of the entries alaska deletes
// in the same round, chosen by the seed; each such modify conflicts with
// alaska's delete and the trust ranking settles it.
func genExchange(seed uint64, p profile) *exchangeScript {
	g := newGen(seed, 1)
	s := &exchangeScript{}
	var liveA, liveD []entry
	fillA, fillD := publication{peer: "alaska"}, publication{peer: "dresden"}
	for i := 0; i < p.window; i++ {
		a, d := g.entry("A"), g.entry("D")
		liveA, liveD = append(liveA, a), append(liveD, d)
		fillA.txns = append(fillA.txns, insertEntry(a))
		fillD.txns = append(fillD.txns, insertOPS(d))
	}
	s.fill = []publication{fillA, fillD}
	for r := 0; r < p.rounds; r++ {
		rd := round{restart: (r+1)%p.restartEvery == 0}
		a, b := publication{peer: "alaska"}, publication{peer: "beijing"}
		gone := liveA[:p.burst]
		liveA = liveA[p.burst:]
		for _, e := range gone {
			na := g.entry("A")
			liveA = append(liveA, na)
			a.txns = append(a.txns, deleteEntry(e), insertEntry(na))
		}
		rd.pubs = append(rd.pubs, a)
		for i := 0; i < p.edits; i++ {
			nd := g.entry("D")
			rd.pubs = append(rd.pubs, publication{peer: "dresden", txns: []txn{deleteOPS(liveD[0])}},
				publication{peer: "dresden", txns: []txn{insertOPS(nd)}})
			liveD = append(liveD[1:], nd)
		}
		for _, k := range g.rng.Perm(len(gone))[:p.conflicts] {
			edited := gone[k]
			edited.seq = g.seq()
			b.txns = append(b.txns, txn{{op: orchestra.OpModify, rel: "S", old: gone[k].s(), new: edited.s()}})
		}
		if len(b.txns) > 0 {
			rd.pubs = append(rd.pubs, b)
		}
		for i := 0; i < p.queriesPerRound; i++ {
			e := g.pick(liveA)
			kind := viewLookup
			if i%2 == 1 {
				kind = opsLookup
			}
			rd.queries = append(rd.queries, query{kind: kind, org: e.org, prot: e.prot, want: 1})
		}
		s.rounds = append(s.rounds, rd)
	}
	return s
}

// genQueryMix builds the query-mix input: a population of base entries at
// alaska, then a stream of queries — bound lookups at alaska and crete in
// equal shares, one unbound scan in every scanEvery — with a local commit at alaska every
// commitEvery queries (one insert, one delete of the oldest entry) and a
// publish-and-reconcile round every roundEvery commits. Lookups at crete
// only ask for entries crete has received by the last round.
func genQueryMix(seed uint64, p profile) *queryScript {
	g := newGen(seed, 2)
	s := &queryScript{}
	var live []entry
	for len(live) < p.base {
		var t txn
		for i := 0; i < p.baseTxn && len(live) < p.base; i++ {
			e := g.entry("A")
			live = append(live, e)
			t = append(t, insertEntry(e)...)
		}
		s.base = append(s.base, t)
	}
	visible := live
	commits := 0
	// One scan at a seeded position in each block of scanEvery queries, so
	// every run has the same share of scans and query_us_p99 always falls
	// at the same rank among them.
	scanAt := 0
	for i := 0; i < p.queries; i++ {
		if i%p.scanEvery == 0 {
			scanAt = i + g.rng.IntN(p.scanEvery)
		}
		var q query
		switch x := g.rng.Float64(); {
		case i == scanAt:
			q = query{kind: viewScan, want: len(live)}
		case x < 0.5:
			e := g.pick(live)
			q = query{kind: viewLookup, org: e.org, prot: e.prot, want: 1}
		default:
			e := g.pick(visible)
			q = query{kind: opsLookup, org: e.org, prot: e.prot, want: 1}
		}
		s.steps = append(s.steps, step{kind: stepQuery, q: q})
		if (i+1)%p.commitEvery != 0 {
			continue
		}
		e := g.entry("A")
		s.steps = append(s.steps, step{kind: stepCommit, commit: append(deleteEntry(live[0]), insertEntry(e)...)})
		live = append(live[1:], e)
		if commits++; commits%p.roundEvery == 0 {
			s.steps = append(s.steps, step{kind: stepRound})
			visible = live
		}
	}
	return s
}
