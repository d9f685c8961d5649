package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// Peer is one CDSS participant: a local editable instance, a public
// snapshot, a trust policy, and the machinery to publish and reconcile.
// A Peer is safe for use from one goroutine; the shared Store handles
// cross-peer concurrency.
type Peer struct {
	mu        sync.Mutex
	name      string
	sys       *System
	store     p2p.Store
	policy    *recon.Policy
	local     *storage.Instance
	published *storage.Instance
	// tr is the translation engine the peer shares with every other peer of
	// its System over the same store; Reconcile reads the translations of
	// the transactions published after lastEpoch from its log.
	tr        *Translator
	state     *recon.State
	tracker   *updates.Tracker
	nextSeq   uint64
	lastEpoch uint64
	// queryPar is the worker bound for this peer's queries (see
	// SetQueryParallelism); translation parallelism belongs to tr.
	queryPar int
	// unpublished holds committed local transactions awaiting Publish.
	unpublished []*updates.Transaction
	// db is the durable tier backing this peer (nil for in-memory systems):
	// RecoverPeerWith attaches it so Resolve can archive its decision in the
	// "r/" keyspace.
	db *lsm.DB
	// resolveSeq numbers the next archived Resolve decision; a checkpoint
	// folds the archive into the saved trust state and resets it.
	resolveSeq uint64
	// pendingRecovery buffers recovery metrics until SetObserver installs
	// the registry (recovery runs before the observer exists — see
	// orchestra's System.Peer).
	pendingRecovery bool
	recReplayTxns   int64
	recLoadNs       int64
	// applyHook, when set, observes every batch of updates that reaches
	// durability or the local instance: published local transactions (at
	// Publish, with their assigned epoch) and accepted candidates (at
	// Reconcile/Resolve). It is called under the peer mutex and must not
	// call back into the peer; the orchestra facade uses it to feed change
	// subscriptions.
	applyHook func(ApplyEvent)
	// obsv is the peer's observability surface (spans, counters, slow-op
	// logging); the zero value is disabled. See SetObserver.
	obsv observer
}

// ApplyEvent is one observed transaction application; see SetApplyHook.
type ApplyEvent struct {
	// Txn is the originating (publishing) transaction.
	Txn updates.TxnID
	// Epoch is the store epoch the transaction published at.
	Epoch uint64
	// Local reports whether the transaction is this peer's own publish
	// (true) or a reconciled candidate translated into this peer's schema
	// (false).
	Local bool
	// Updates are the tuple-level changes, already in this peer's schema.
	Updates []updates.Update
}

// NewPeer creates a participant named name with the given trust policy,
// attached to the shared update store. Every NewPeer over the same System
// and store shares one default-configured Translator.
func NewPeer(name string, sys *System, store p2p.Store, policy *recon.Policy) (*Peer, error) {
	tr, err := sys.translator(store)
	if err != nil {
		return nil, err
	}
	return NewPeerWith(name, policy, tr)
}

// NewPeerWith creates a participant named name with the given trust policy
// that reconciles through tr, the translation engine it shares with the
// other peers of tr's System.
func NewPeerWith(name string, policy *recon.Policy, tr *Translator) (*Peer, error) {
	s := tr.sys.Schema(name)
	if s == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownPeer, name)
	}
	keyOf := func(rel string, tu schema.Tuple) schema.Tuple {
		r := s.Relation(rel)
		if r == nil {
			return tu
		}
		return r.KeyOf(tu)
	}
	return &Peer{
		name:      name,
		sys:       tr.sys,
		store:     tr.store,
		policy:    policy,
		local:     storage.NewInstance(s),
		published: storage.NewInstance(s),
		tr:        tr,
		queryPar:  tr.cfg.Parallelism,
		state:     recon.NewState(keyOf),
		tracker:   updates.NewTracker(keyOf),
		nextSeq:   1,
	}, nil
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// Instance returns the local editable instance.
func (p *Peer) Instance() *storage.Instance { return p.local }

// PublishedSnapshot returns the public snapshot made at the last Publish.
func (p *Peer) PublishedSnapshot() *storage.Instance { return p.published }

// Epoch returns the last epoch this peer has reconciled up to.
func (p *Peer) Epoch() uint64 { return p.lastEpoch }

// Status returns the peer's disposition of a transaction.
func (p *Peer) Status(id updates.TxnID) recon.Status { return p.state.Status(id) }

// SetQueryParallelism bounds the worker pool of this peer's queries (the
// datalog.Options.Parallelism semantics). Translation parallelism is a
// property of the shared Translator.
func (p *Peer) SetQueryParallelism(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queryPar = n
}

// SetApplyHook installs (or clears, with nil) the observer described on the
// applyHook field. The hook runs under the peer mutex; it must be fast and
// must not call back into the peer.
func (p *Peer) SetApplyHook(h func(ApplyEvent)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyHook = h
}

// Txn is an in-progress local transaction. Updates accumulate and apply
// atomically at Commit.
type Txn struct {
	peer *Peer
	ups  []updates.Update
	done bool
}

// NewTransaction starts a local transaction.
func (p *Peer) NewTransaction() *Txn { return &Txn{peer: p} }

// Insert schedules an insertion.
func (t *Txn) Insert(rel string, tu schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Insert(rel, tu))
	return t
}

// Delete schedules a deletion.
func (t *Txn) Delete(rel string, tu schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Delete(rel, tu))
	return t
}

// Modify schedules a modification.
func (t *Txn) Modify(rel string, old, new schema.Tuple) *Txn {
	t.ups = append(t.ups, updates.Modify(rel, old, new))
	return t
}

// Commit validates the updates, applies them atomically to the local
// instance, and queues the transaction for the next Publish. On error
// nothing is applied.
func (t *Txn) Commit() (*updates.Transaction, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	t.done = true
	p := t.peer
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sys.Schema(p.name)
	// Validate against the schema and the current local state.
	for _, u := range t.ups {
		rel := s.Relation(u.Rel)
		if rel == nil {
			return nil, fmt.Errorf("%w: peer %s has no relation %s", ErrUnknownRelation, p.name, u.Rel)
		}
		for _, tu := range []schema.Tuple{u.Old, u.New} {
			if tu == nil {
				continue
			}
			if err := rel.Validate(tu); err != nil {
				return nil, err
			}
		}
		// A local *insert* that collides with a stored tuple under the same
		// primary key is a key violation — unlike Modify, which declares the
		// overwrite, or translated candidates, which reconciliation has
		// already vetted and applies with upsert semantics.
		if u.Op == updates.OpInsert {
			if row, ok := p.local.GetByKey(u.Rel, rel.KeyOf(u.New)); ok && !row.Tuple.Equal(u.New) {
				return nil, fmt.Errorf("core: commit at peer %s: %w", p.name,
					&storage.ErrKeyViolation{Relation: u.Rel, Key: rel.KeyOf(u.New), Existing: row.Tuple, New: u.New})
			}
		}
	}
	txn := &updates.Transaction{
		ID:      updates.TxnID{Peer: p.name, Seq: p.nextSeq},
		Updates: append([]updates.Update(nil), t.ups...),
	}
	// Dependencies: the last writers of every key this txn touches.
	p.tracker.Record(txn)
	// Apply to the local instance.
	if err := p.applyUpdates(txn.Updates); err != nil {
		return nil, err
	}
	// The peer trusts its own edits unconditionally.
	if err := p.state.AcceptLocal(txn); err != nil {
		return nil, err
	}
	p.nextSeq++
	p.unpublished = append(p.unpublished, txn)
	return txn, nil
}

// Abort discards the transaction.
func (t *Txn) Abort() { t.done = true }

// applyUpdates applies translated or local updates to the local instance.
func (p *Peer) applyUpdates(ups []updates.Update) error {
	for _, u := range ups {
		prov := u.Prov
		if prov.IsZero() {
			prov = provenance.One()
		}
		var err error
		switch u.Op {
		case updates.OpInsert:
			_, err = p.local.Upsert(u.Rel, u.New, prov)
		case updates.OpDelete:
			_, err = p.local.Delete(u.Rel, u.Old)
		case updates.OpModify:
			if u.Old != nil {
				if _, err := p.local.Delete(u.Rel, u.Old); err != nil {
					return err
				}
			}
			_, err = p.local.Upsert(u.Rel, u.New, prov)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Publish archives all committed-but-unpublished transactions in the store,
// advances the logical clock, and refreshes the public snapshot. The
// context is checked before the store round-trip; a store backed by the
// network should additionally bound its own I/O.
func (p *Peer) Publish(ctx context.Context) (uint64, error) {
	epoch, _, err := p.PublishAll(ctx)
	return epoch, err
}

// PublishAll is Publish reporting how many transactions were archived, so
// callers (the orchestra facade's subscription push path) can tell a no-op
// publish from a real one.
func (p *Peer) PublishAll(ctx context.Context) (uint64, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if len(p.unpublished) == 0 {
		epoch, err := p.store.Epoch()
		return epoch, 0, err
	}
	sp := p.obsv.startSpan("core_publish", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.publishes.Inc()
	published := p.unpublished
	epoch, err := p.store.Publish(published)
	if err != nil {
		return 0, 0, err
	}
	p.unpublished = nil
	p.obsv.publishedTx.Add(int64(len(published)))
	// O(#relations) copy-on-write snapshot: tables are only copied if later
	// local edits touch them, so publishing is cheap even for large
	// instances.
	p.published = p.local.Snapshot()
	if p.applyHook != nil {
		for _, txn := range published {
			p.applyHook(ApplyEvent{Txn: txn.ID, Epoch: txn.Epoch, Local: true, Updates: txn.Updates})
		}
	}
	return epoch, len(published), nil
}

// ReconcileReport summarizes one reconciliation.
type ReconcileReport struct {
	// Epoch is the store epoch reconciled up to.
	Epoch uint64
	// Fetched counts transactions retrieved from the store this round.
	Fetched int
	// Accepted, Rejected, Deferred, Pending list candidate ids by outcome,
	// in deterministic order.
	Accepted []updates.TxnID
	Rejected []updates.TxnID
	Deferred []updates.TxnID
	Pending  []updates.TxnID
	// AppliedUpdates counts tuple-level updates applied to the local
	// instance.
	AppliedUpdates int
}

// Reconcile fetches newly published transactions from the store, translates
// them into the local schema via the mappings (maintaining provenance),
// runs the trust/conflict reconciliation, and applies the accepted
// transactions to the local instance. Translation happens once per System:
// the first peer to reconcile after a publish drives the shared Translator
// through the new transactions, and every peer reads the results after its
// own cursor from the translator's log. The context bounds the translation
// fixpoints: a reconciliation started with an expired context returns the
// context error before touching the local instance, and a long chase stops
// within one fixpoint iteration of cancellation.
func (p *Peer) Reconcile(ctx context.Context) (*ReconcileReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := p.obsv.startSpan("core_reconcile", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.reconciles.Inc()
	defer p.obsv.observeRounds(p.obsv.roundsNow())
	entries, epoch, err := p.tr.advance(ctx, p.lastEpoch, &p.obsv, sp)
	if err != nil {
		return nil, err
	}
	report := &ReconcileReport{Epoch: epoch, Fetched: len(entries)}
	var candidates []*updates.Transaction
	for _, e := range entries {
		if e.txn.ID.Peer == p.name {
			// Our own published transaction coming back: already applied
			// locally at commit time.
			continue
		}
		candidates = append(candidates, p.candidate(e))
	}
	outcome, err := p.state.Reconcile(p.policy, candidates)
	if err != nil {
		return nil, err
	}
	if err := p.applyOutcome(outcome, report); err != nil {
		return nil, err
	}
	p.lastEpoch = epoch
	p.tr.commit(p.name, epoch)
	report.sort()
	return report, nil
}

// candidate is a translated transaction as this peer sees it: the updates
// it induces in the peer's schema, depending on the publisher's
// dependencies plus every transaction whose data contributed to a derived
// insert.
func (p *Peer) candidate(e logEntry) *updates.Transaction {
	return &updates.Transaction{
		ID:      e.txn.ID,
		Epoch:   e.txn.Epoch,
		Updates: e.res.PerPeer[p.name],
		Deps:    mergeDeps(e.txn.Deps, e.res.ExtraDeps[p.name]),
	}
}

// Resolve settles a deferred conflict in favor of winner (site-administrator
// action, demo scenario 4) and applies the consequences. On a durable peer
// the decision is archived with one fsynced write before Resolve returns,
// so a crash after Resolve cannot regress the conflict to deferred: recovery
// re-applies the archived decision at its recorded position. A crash during
// Resolve — after the in-memory application but before the fsync — loses
// the decision, exactly as it would have lost a Resolve that never ran.
func (p *Peer) Resolve(ctx context.Context, winner updates.TxnID) (*ReconcileReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outcome, err := p.state.Resolve(winner)
	if err != nil {
		return nil, err
	}
	report := &ReconcileReport{Epoch: p.lastEpoch}
	if err := p.applyOutcome(outcome, report); err != nil {
		return nil, err
	}
	if p.db != nil {
		data, err := json.Marshal(resolveDecision{
			WinnerPeer: winner.Peer,
			WinnerSeq:  winner.Seq,
			AfterEpoch: p.lastEpoch,
		})
		if err != nil {
			return nil, fmt.Errorf("core: archive resolve at %s: %w", p.name, err)
		}
		b := lsm.NewBatch()
		b.Put(rkKey(p.name, p.resolveSeq), data)
		if err := p.db.Apply(b, true); err != nil {
			return nil, fmt.Errorf("core: archive resolve at %s: %w", p.name, err)
		}
		p.resolveSeq++
	}
	report.sort()
	return report, nil
}

func (p *Peer) applyOutcome(outcome *recon.Outcome, report *ReconcileReport) error {
	for _, txn := range outcome.Accepted {
		if err := p.applyUpdates(txn.Updates); err != nil {
			return err
		}
		p.tracker.RecordWrites(txn)
		if p.applyHook != nil {
			p.applyHook(ApplyEvent{Txn: txn.ID, Epoch: txn.Epoch, Local: false, Updates: txn.Updates})
		}
		p.obsv.acceptedTx.Inc()
		p.obsv.appliedUps.Add(int64(len(txn.Updates)))
		report.Accepted = append(report.Accepted, txn.ID)
		report.AppliedUpdates += len(txn.Updates)
	}
	report.Rejected = append(report.Rejected, outcome.Rejected...)
	report.Deferred = append(report.Deferred, outcome.Deferred...)
	report.Pending = append(report.Pending, outcome.Pending...)
	return nil
}

func (r *ReconcileReport) sort() {
	less := func(ids []updates.TxnID) func(i, j int) bool {
		return func(i, j int) bool { return ids[i].Less(ids[j]) }
	}
	// Accepted preserves application order; the others sort by id.
	sort.Slice(r.Rejected, less(r.Rejected))
	sort.Slice(r.Deferred, less(r.Deferred))
	sort.Slice(r.Pending, less(r.Pending))
}

func mergeDeps(a, b []updates.TxnID) []updates.TxnID {
	seen := map[updates.TxnID]bool{}
	var out []updates.TxnID
	for _, id := range a {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range b {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
