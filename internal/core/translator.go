package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/updates"
)

// Translator is the update-exchange engine every peer of a System shares
// over one store. ORCHESTRA's update exchange runs the mappings once over
// the union of all published data, and that one run yields every peer's
// updates (exchange.Result.PerPeer). The Translator therefore translates
// each published transaction once, keeps the results in an epoch-ordered
// log, and serves each peer the entries after its own cursor — the last
// epoch it reconciled. Peers keep only their own trust state and instance.
//
// When new transactions arrive, the log is first trimmed at the slowest
// cursor among the peers that have reconciled or recovered through the
// translator, so a peer that never reconciles does not keep it alive, and
// peers opened together can all read the first translation before it
// goes. A peer whose cursor lies below the log's start (it opened late, or
// never reconciled before a trim) makes the translator rebuild at that
// epoch and re-translate the suffix: translation of a history prefix is
// deterministic, so the re-derived entries equal the trimmed ones.
//
// A Translator is safe for concurrent use. Its mutex nests inside a peer's
// mutex, and it never calls back into a peer.
type Translator struct {
	sys   *System
	store p2p.Store
	cfg   exchange.Config
	// db is the durable tier holding the "e/" engine snapshot rebuilds start
	// from (nil for in-memory systems).
	db *lsm.DB

	mu sync.Mutex
	// eng has applied every published transaction with epoch ≤ head.
	eng *exchange.Engine
	// dirty marks eng unusable: an ApplyAll failed partway through a
	// window (cooperative cancellation can abandon a half-propagated
	// fixpoint), which exchange.Engine declares fatal. The next advance
	// rebuilds the engine at head.
	dirty bool
	// win sizes the group-commit windows of every drain from observed drain
	// latency; its estimate survives rebuilds and rides the "e/" snapshot.
	win  *exchange.AdaptiveWindow
	head uint64
	// log holds the translation of every transaction with epoch in
	// (start, head], in epoch order. Entries are never mutated and the
	// slice is replaced, not rewritten, on trim, so slices handed to peers
	// stay valid after the lock is released.
	start   uint64
	log     []logEntry
	cursors map[string]uint64
	// snapWM is the watermark of the "e/" snapshot last read from or
	// written to the durable tier; snapKnown is false until then.
	snapWM    uint64
	snapKnown bool
}

// logEntry is one published transaction with its translation.
type logEntry struct {
	txn *updates.Transaction
	res *exchange.Result
}

// NewTranslator builds the shared translation engine for peers of sys over
// store. cfg tunes the engine (parallelism, witness bounds, group-commit
// window, evaluation stats sink). db, when non-nil, is the durable tier:
// rebuilds start from its "e/" snapshot, and RecoverPeerWith reads peer
// checkpoints from it.
func NewTranslator(sys *System, store p2p.Store, cfg exchange.Config, db *lsm.DB) (*Translator, error) {
	eng, err := exchange.NewEngineWith(sys.Peers(), sys.Mappings(), cfg)
	if err != nil {
		return nil, err
	}
	return &Translator{
		sys:     sys,
		store:   store,
		cfg:     cfg,
		db:      db,
		eng:     eng,
		win:     exchange.NewAdaptiveWindow(cfg.ReconcileWindow),
		cursors: map[string]uint64{},
	}, nil
}

// advance translates everything published since the engine's head and
// returns the log entries after epoch from (the calling peer's cursor),
// plus the epoch they reach. o and sp attribute the drain windows to the
// calling peer's metrics and span; both may be nil.
func (t *Translator) advance(ctx context.Context, from uint64, o *observer, sp *obs.Span) ([]logEntry, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case from < t.start, len(t.cursors) == 0 && from > t.head:
		// The log does not reach back to from, or nobody reads the history
		// between head and from: rebuild at from.
		if err := t.advanceFrom(ctx, from); err != nil {
			return nil, 0, err
		}
	case t.dirty:
		if err := t.advanceFrom(ctx, t.head); err != nil {
			return nil, 0, err
		}
	}
	txns, epoch, err := t.store.Since(t.head)
	if err != nil {
		return nil, 0, err
	}
	fresh := txns[:0:0]
	for _, txn := range txns {
		if !t.eng.Applied(txn.ID) {
			fresh = append(fresh, txn)
		}
	}
	if len(fresh) > 0 {
		t.trim(from)
	}
	n := len(t.log)
	if err := t.drain(ctx, t.eng, fresh, true, o, sp); err != nil {
		t.log = t.log[:n]
		t.dirty = true
		return nil, 0, err
	}
	t.head = max(t.head, epoch)
	i := sort.Search(len(t.log), func(i int) bool { return t.log[i].txn.Epoch > from })
	return t.log[i:], t.head, nil
}

// advanceFrom rebuilds the engine at epoch e: from the durable "e/"
// snapshot when its watermark is ≤ e, from empty otherwise, replaying the
// store up to e without logging. The log survives when e is the current
// head (a dirty engine rebuilt in place); otherwise it restarts at e. On
// failure the current engine and log stay as they were.
func (t *Translator) advanceFrom(ctx context.Context, e uint64) error {
	eng, since, err := t.snapshotEngine(e)
	if err != nil {
		return err
	}
	txns, _, err := t.store.Since(since)
	if err != nil {
		return err
	}
	i := sort.Search(len(txns), func(i int) bool { return txns[i].Epoch > e })
	if err := t.drain(ctx, eng, txns[:i], false, nil, nil); err != nil {
		return err
	}
	if e != t.head {
		t.log, t.start = nil, e
	}
	t.eng, t.dirty, t.head = eng, false, e
	return nil
}

// snapshotEngine returns a fresh engine restored from the "e/" snapshot
// when one exists at a watermark ≤ e, plus the epoch it stands at. The
// snapshot is a cache of what the store already holds, so one that fails
// to decode or load is skipped and the caller replays from empty.
func (t *Translator) snapshotEngine(e uint64) (*exchange.Engine, uint64, error) {
	eng, err := exchange.NewEngineWith(t.sys.Peers(), t.sys.Mappings(), t.cfg)
	if err != nil || t.db == nil {
		return eng, 0, err
	}
	snap, err := readEngineSnapshot(t.db)
	if err != nil || snap == nil {
		return eng, 0, nil
	}
	t.snapWM, t.snapKnown = snap.Watermark, true
	// LoadState leaves the engine unchanged when it fails.
	if snap.Watermark > e || eng.LoadState(snap.Engine) != nil {
		return eng, 0, nil
	}
	t.win.SeedPerTxn(snap.PerTxn)
	return eng, snap.Watermark, nil
}

// drain feeds txns through eng in group-commit windows sized by the
// adaptive controller: ApplyAll over consecutive sub-batches equals one
// batched call, so windowing bounds each fixpoint's working set without
// changing results. With keep, each result is appended to the log.
func (t *Translator) drain(ctx context.Context, eng *exchange.Engine, txns []*updates.Transaction, keep bool, o *observer, sp *obs.Span) error {
	for rest := txns; len(rest) > 0; {
		n := t.win.Next(len(rest))
		dsp := sp.Child("exchange_drain")
		start := time.Now()
		rs, err := eng.ApplyAll(ctx, rest[:n])
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		t.win.Observe(n, elapsed)
		dsp.End()
		if o != nil {
			o.observeDrain(t.win, n, elapsed)
		}
		if keep {
			for i, r := range rs {
				t.log = append(t.log, logEntry{txn: rest[i], res: r})
			}
		}
		rest = rest[n:]
	}
	return nil
}

// commit records that peer has consumed the log through epoch.
func (t *Translator) commit(peer string, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cursors[peer] = epoch
}

// trim drops the entries every peer with a cursor has consumed, keeping
// those after from (the calling peer's own cursor).
func (t *Translator) trim(from uint64) {
	low := from
	for _, c := range t.cursors {
		low = min(low, c)
	}
	if low <= t.start {
		return
	}
	i := sort.Search(len(t.log), func(i int) bool { return t.log[i].txn.Epoch > low })
	t.log, t.start = slices.Clone(t.log[i:]), low
}

// snapshotAt returns the "e/" blob a checkpoint at epoch should write, or
// nil when it should leave the stored snapshot alone: the engine is dirty,
// does not stand exactly at epoch (so the snapshot would not serve the
// checkpointing peer's recovery), or has not moved since the stored one.
func (t *Translator) snapshotAt(db *lsm.DB, epoch uint64) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dirty || epoch == 0 || t.head != epoch {
		return nil, nil
	}
	if !t.snapKnown {
		snap, err := readEngineSnapshot(db)
		if err == nil && snap != nil {
			t.snapWM, t.snapKnown = snap.Watermark, true
		}
	}
	if t.snapKnown && t.snapWM == epoch {
		return nil, nil
	}
	engBlob, err := t.eng.SaveState()
	if err != nil {
		return nil, fmt.Errorf("engine state: %w", err)
	}
	return encodeEngineBlob(epoch, t.win.PerTxnSeconds(), engBlob), nil
}

// savedSnapshot records that the "e/" snapshot at watermark is durable.
func (t *Translator) savedSnapshot(watermark uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snapWM, t.snapKnown = watermark, true
}
