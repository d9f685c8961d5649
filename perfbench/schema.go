package main

import (
	"fmt"

	"orchestra"
)

// fig2 is the paper's Figure 2 confederation: alaska and beijing share
// schema Σ1 (O, P, S), crete and dresden share Σ2 (OPS). Identity mappings
// link the peers of one schema, M_AC joins O⋈P⋈S into OPS and M_CA splits
// OPS back into Σ1 with Skolemised ids. The trust blocks rank the
// publishers strictly, so a conflicting pair is always settled by priority:
// alaska's curated data outranks dresden's, which outranks beijing's edits.
const fig2 = `
peer alaska {
    relation O(org string, oid int) key(oid)
    relation P(prot string, pid int) key(pid)
    relation S(oid int, pid int, seq string) key(oid, pid)
}
peer beijing like alaska
peer crete {
    relation OPS(org string, prot string, seq string) key(org, prot)
}
peer dresden like crete

mapping identity M_AB alaska beijing
mapping identity M_BA beijing alaska
mapping identity M_CD crete dresden
mapping identity M_DC dresden crete
mapping M_AC = crete.OPS(org, prot, seq) :-
    alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
mapping M_CA = alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq) :-
    crete.OPS(org, prot, seq).

trust alaska {
    peer dresden 2
    peer beijing 1
    default 1
}
trust beijing {
    peer alaska 3
    peer dresden 2
    default 1
}
trust crete {
    peer alaska 3
    peer dresden 2
    peer beijing 1
    default 1
}
trust dresden {
    peer alaska 3
    peer beijing 1
    default 1
}
`

// figure2 parses the confederation description.
func figure2() (*orchestra.Schema, error) {
	sch, err := orchestra.ParseSchemaString(fig2)
	if err != nil {
		return nil, fmt.Errorf("parse Figure 2 schema: %w", err)
	}
	return sch, nil
}

// Relation tuples of one generated entry. An alaska entry is one O, P and S
// row sharing its id as oid and pid; a dresden entry is one OPS row.
type entry struct {
	id             int64
	org, prot, seq string
}

func (e entry) o() orchestra.Tuple {
	return orchestra.NewTuple(orchestra.String(e.org), orchestra.Int(e.id))
}

func (e entry) p() orchestra.Tuple {
	return orchestra.NewTuple(orchestra.String(e.prot), orchestra.Int(e.id))
}

func (e entry) s() orchestra.Tuple {
	return orchestra.NewTuple(orchestra.Int(e.id), orchestra.Int(e.id), orchestra.String(e.seq))
}

func (e entry) ops() orchestra.Tuple {
	return orchestra.NewTuple(orchestra.String(e.org), orchestra.String(e.prot), orchestra.String(e.seq))
}
