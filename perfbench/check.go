package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strings"
	"time"

	"orchestra"
	"orchestra/internal/config"
	"orchestra/internal/exchange"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// expected is what the reference replay of an exchange script produced:
// every reconcile outcome in order, and each peer's final rows with
// provenance.
type expected struct {
	outcomes []string
	digests  map[string]string
}

// reference replays the exchange script once, untimed, on the in-process
// store with sequential evaluation and a whole-backlog reconcile window —
// settings the repository's equivalence tests pin as giving the same
// results as the defaults the measured episodes use.
func (b *bench) reference() error {
	e, err := b.open(&samples{recover: map[string][]float64{}}, nil, true)
	if err != nil {
		return err
	}
	defer e.close()
	if err := e.publishAll(b.ex.fill); err != nil {
		return err
	}
	if err := e.reconcileAll(); err != nil {
		return err
	}
	for _, rd := range b.ex.rounds {
		if err := e.round(rd.pubs); err != nil {
			return err
		}
	}
	b.ref = &expected{outcomes: e.outcomes, digests: map[string]string{}}
	for _, p := range e.peers {
		if b.ref.digests[p.Name()], err = digestPeer(p); err != nil {
			return err
		}
	}
	if b.perturb == "digest" {
		b.ref.digests["crete"] += "-perturbed"
	}
	return nil
}

// check compares a measured episode with the reference.
func (x *expected) check(e *episode) error {
	if !slices.Equal(e.outcomes, x.outcomes) {
		i := 0
		for i < len(e.outcomes) && i < len(x.outcomes) && e.outcomes[i] == x.outcomes[i] {
			i++
		}
		e.b.problem("reconcile outcome %d differs from the reference replay (%d vs %d outcomes)", i, len(e.outcomes), len(x.outcomes))
	}
	for _, p := range e.peers {
		got, err := digestPeer(p)
		if err != nil {
			return err
		}
		if got != x.digests[p.Name()] {
			e.b.problem("%s rows and provenance differ from the reference replay", p.Name())
		}
	}
	return nil
}

func writeRow(h hash.Hash, rel string, tu schema.Tuple, prov provenance.Poly) {
	fmt.Fprintf(h, "%s %v %v\n", rel, tu, prov)
}

func sumHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// digestPeer hashes a peer's rows with their provenance, in relation and
// tuple order.
func digestPeer(p *orchestra.Peer) (string, error) {
	h := sha256.New()
	for _, rel := range p.Relations() {
		rows, err := p.Rows(rel.Name)
		if err != nil {
			return "", err
		}
		for _, tu := range rows {
			prov, _, _ := p.Explain(rel.Name, tu)
			writeRow(h, rel.Name, tu, prov)
		}
	}
	return sumHex(h), nil
}

// shadow replays one peer's reconciliation outside the program, through
// the same layers core.Peer.Reconcile composes — exchange.Engine.ApplyAll,
// recon.State.Reconcile, storage.Instance writes — so that trust and
// instance writes can be timed apart. Its outcomes and rows must equal the
// real peer's.
type shadow struct {
	name  string
	tp    *tracePass
	eng   *exchange.Engine
	state *recon.State
	inst  *storage.Instance
	pol   *recon.Policy
	epoch uint64
}

func newShadow(name string, tp *tracePass) (*shadow, error) {
	cfg, err := config.Parse(strings.NewReader(fig2))
	if err != nil {
		return nil, err
	}
	sys, err := cfg.System()
	if err != nil {
		return nil, err
	}
	eng, err := exchange.NewEngineWith(sys.Peers(), sys.Mappings(), exchange.Config{})
	if err != nil {
		return nil, err
	}
	sch := sys.Schema(name)
	keyOf := func(rel string, tu schema.Tuple) schema.Tuple {
		if r := sch.Relation(rel); r != nil {
			return r.KeyOf(tu)
		}
		return tu
	}
	return &shadow{name: name, tp: tp, eng: eng, state: recon.NewState(keyOf),
		inst: storage.NewInstance(sch), pol: cfg.Policy(name)}, nil
}

// replay brings the shadow to the epoch the real peer just reconciled to,
// from the transactions captured at the store wrapper.
func (sh *shadow) replay(captured []*updates.Transaction, rep *orchestra.ReconcileReport) error {
	var fresh []*updates.Transaction
	for _, t := range captured {
		if t.Epoch > sh.epoch && t.Epoch <= rep.Epoch && !sh.eng.Applied(t.ID) {
			fresh = append(fresh, t)
		}
	}
	sh.epoch = rep.Epoch
	root := sh.tp.begin("shadow", "bench", sh.name)
	defer sh.tp.end(root)
	id := sh.tp.begin("exchange.ApplyAll", "bench", sh.name)
	results, err := sh.eng.ApplyAll(ctx, fresh)
	sh.tp.end(id)
	if err != nil {
		return fmt.Errorf("shadow %s: translate: %w", sh.name, err)
	}
	var cands []*updates.Transaction
	for i, t := range fresh {
		if t.ID.Peer == sh.name {
			continue
		}
		cands = append(cands, &updates.Transaction{ID: t.ID, Epoch: t.Epoch,
			Updates: results[i].PerPeer[sh.name], Deps: mergeDeps(t.Deps, results[i].ExtraDeps[sh.name])})
	}
	id = sh.tp.begin("recon.Reconcile", "recon", sh.name)
	start := time.Now()
	out, err := sh.state.Reconcile(sh.pol, cands)
	sh.tp.reconUs = append(sh.tp.reconUs, float64(time.Since(start).Microseconds()))
	sh.tp.end(id)
	if err != nil {
		return fmt.Errorf("shadow %s: reconcile: %w", sh.name, err)
	}
	return sh.apply(out, rep)
}

func (sh *shadow) resolve(winner updates.TxnID, rep *orchestra.ReconcileReport) error {
	out, err := sh.state.Resolve(winner)
	if err != nil {
		return fmt.Errorf("shadow %s: resolve: %w", sh.name, err)
	}
	return sh.apply(out, rep)
}

// apply writes the accepted transactions to the shadow instance as
// core.Peer applies them, then compares the outcome with the peer's report.
func (sh *shadow) apply(out *recon.Outcome, rep *orchestra.ReconcileReport) error {
	id := sh.tp.begin("storage.apply", "storage", sh.name)
	start := time.Now()
	for _, t := range out.Accepted {
		for _, u := range t.Updates {
			if err := applyUpdate(sh.inst, u); err != nil {
				sh.tp.end(id)
				return fmt.Errorf("shadow %s: apply: %w", sh.name, err)
			}
		}
	}
	sh.tp.applyUs = append(sh.tp.applyUs, float64(time.Since(start).Microseconds()))
	sh.tp.end(id)
	accepted := make([]updates.TxnID, len(out.Accepted))
	for i, t := range out.Accepted {
		accepted[i] = t.ID
	}
	if !slices.Equal(accepted, rep.Accepted) || !sameIDs(out.Rejected, rep.Rejected) || !sameIDs(out.Deferred, rep.Deferred) {
		return fmt.Errorf("shadow %s: outcome differs from the peer's report at epoch %d", sh.name, rep.Epoch)
	}
	return nil
}

func (sh *shadow) digest() string {
	h := sha256.New()
	for _, rel := range sh.inst.Schema().Relations() {
		rows, _ := sh.inst.Rows(rel.Name)
		for _, r := range rows {
			writeRow(h, rel.Name, r.Tuple, r.Prov)
		}
	}
	return sumHex(h)
}

func applyUpdate(in *storage.Instance, u updates.Update) error {
	prov := u.Prov
	if prov.IsZero() {
		prov = provenance.One()
	}
	switch u.Op {
	case updates.OpInsert:
		_, err := in.Upsert(u.Rel, u.New, prov)
		return err
	case updates.OpDelete:
		_, err := in.Delete(u.Rel, u.Old)
		return err
	default:
		if u.Old != nil {
			if _, err := in.Delete(u.Rel, u.Old); err != nil {
				return err
			}
		}
		_, err := in.Upsert(u.Rel, u.New, prov)
		return err
	}
}

func sameIDs(a, b []updates.TxnID) bool {
	sortIDs := func(ids []updates.TxnID) []updates.TxnID {
		s := slices.Clone(ids)
		sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
		return s
	}
	return slices.Equal(sortIDs(a), sortIDs(b))
}

// mergeDeps unions two dependency lists, sorted, as core does for a
// candidate's antecedents.
func mergeDeps(a, b []updates.TxnID) []updates.TxnID {
	seen := map[updates.TxnID]bool{}
	var out []updates.TxnID
	for _, id := range append(slices.Clone(a), b...) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
