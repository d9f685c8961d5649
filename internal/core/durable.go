package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// This file is the peer-side half of the durable tier: peers checkpoint
// their state into the same LSM database that holds the published archive
// (p2p.DurableStore, prefix "a/"), and recover after a crash by loading the
// checkpoint and replaying only the published suffix the checkpoint does
// not already cover.
//
// Checkpoint key layout (esc is lsm.AppendString, the order-preserving
// escaped string encoding); the "c/", "e/", and "r/" prefixes cannot
// collide with each other or with the archive keyspace:
//
//	c/<esc peer>m                        -> JSON checkpointMeta
//	c/<esc peer>r<esc rel><tuple bytes>  -> binary provenance polynomial (encodeProv)
//	c/<esc peer>s                        -> peer-state blob: trust state + tracker (engineblob.go)
//	c/<esc peer>u<index be32>            -> JSON p2p.WireTxn (unpublished)
//	e/                                   -> the System's engine snapshot blob (engineblob.go)
//	r/<esc peer><seq be64>               -> JSON resolveDecision
//
// The tuple decodes from the row key itself; the value holds only the
// stored annotation, so a checkpoint relation is a contiguous, key-ordered
// range of the LSM keyspace.
//
// A peer's "c/" keys hold everything valid at its checkpoint epoch E: rows,
// the reconciliation state with every settled conflict, the dependency
// tracker, and the unpublished queue. Recovery restores them and replays
// only the candidates published after E. The one "e/" blob per System
// captures the shared Translator's engine (union database, token log, base
// tokens, applied set) at a watermark W; a translator rebuilding at epoch
// e ≥ W starts from it instead of from an empty engine, which turns
// recovery from O(history) into O(suffix). The "r/" archive makes Resolve
// decisions durable between checkpoints: recovery re-applies them at their
// recorded position instead of letting settled conflicts regress to
// deferred.

const (
	ckPrefix = "c/"
	ekPrefix = "e/"
	rkPrefix = "r/"
)

// checkpointMeta is the atomically-swapped summary record: which epoch the
// rows reflect, and where the local transaction counter stood.
type checkpointMeta struct {
	NextSeq   uint64 `json:"next_seq"`
	LastEpoch uint64 `json:"last_epoch"`
}

func ckBase(peer string) []byte {
	return lsm.AppendString([]byte(ckPrefix), peer)
}

func ckMetaKey(peer string) []byte { return append(ckBase(peer), 'm') }

func ckRowPrefix(peer string) []byte { return append(ckBase(peer), 'r') }

func ckRelPrefix(peer, rel string) []byte {
	return lsm.AppendString(ckRowPrefix(peer), rel)
}

func ckRowKey(peer, rel string, tu schema.Tuple) []byte {
	return lsm.AppendTuple(ckRelPrefix(peer, rel), tu)
}

func ckStateKey(peer string) []byte { return append(ckBase(peer), 's') }

func ckUnpubPrefix(peer string) []byte { return append(ckBase(peer), 'u') }

func ckUnpubKey(peer string, idx int) []byte {
	return binary.BigEndian.AppendUint32(ckUnpubPrefix(peer), uint32(idx))
}

// ekKey is the System's one engine-snapshot key.
var ekKey = []byte(ekPrefix)

func rkBase(peer string) []byte {
	return lsm.AppendString([]byte(rkPrefix), peer)
}

func rkKey(peer string, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(rkBase(peer), seq)
}

// resolveDecision is one archived Peer.Resolve outcome. AfterEpoch is the
// peer's lastEpoch when the decision was made: recovery re-applies the
// decision after replaying every transaction up to that epoch and before
// any later one, reproducing the live ordering.
type resolveDecision struct {
	WinnerPeer string `json:"winner_peer"`
	WinnerSeq  uint64 `json:"winner_seq"`
	AfterEpoch uint64 `json:"after_epoch"`
}

// ckPrefixEnd returns the tightest exclusive upper bound for a key prefix
// (nil means "to the end of the keyspace").
func ckPrefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// encodeProv/decodeProv are the binary form of a provenance polynomial: a
// sum of coef·x1^k1·…·xn^kn monomials as varints with length-prefixed
// variable names. Serializing through Monomials keeps the codec independent
// of the polynomial's interned in-memory representation; checkpoint rows
// decode on every recovery, so the format is sized for that hot path (the
// earlier JSON form dominated snapshot-restore time).
func encodeProv(p provenance.Poly) ([]byte, error) {
	ms := p.Monomials()
	buf := binary.AppendUvarint(nil, uint64(len(ms)))
	for _, m := range ms {
		buf = binary.AppendUvarint(buf, m.Coef)
		buf = binary.AppendUvarint(buf, uint64(len(m.Vars)))
		for _, vp := range m.Vars {
			buf = binary.AppendUvarint(buf, uint64(len(vp.Var)))
			buf = append(buf, vp.Var...)
			buf = binary.AppendUvarint(buf, uint64(vp.Pow))
		}
	}
	return buf, nil
}

func decodeProv(data []byte) (provenance.Poly, error) {
	var d provDecoder
	return d.decode(data)
}

// provDecoder decodes a run of encodeProv values, carving the monomial and
// variable-power slices from chunked arenas so a recovery scan over
// thousands of rows pays a handful of allocations instead of several per
// row. FromCanonicalMonomials takes ownership of the slices it is handed,
// which is what makes arena-backed sub-slices sound: each decoded value
// gets its own disjoint reservation, never recycled.
type provDecoder struct {
	monoArena []provenance.Monomial
	vpArena   []provenance.VarPow
}

func (d *provDecoder) monos(n int) []provenance.Monomial {
	if n > cap(d.monoArena)-len(d.monoArena) {
		size := 1024
		if n > size {
			size = n
		}
		d.monoArena = make([]provenance.Monomial, 0, size)
	}
	s := d.monoArena[len(d.monoArena) : len(d.monoArena) : len(d.monoArena)+n]
	d.monoArena = d.monoArena[:len(d.monoArena)+n]
	return s
}

func (d *provDecoder) varPows(n int) []provenance.VarPow {
	if n > cap(d.vpArena)-len(d.vpArena) {
		size := 2048
		if n > size {
			size = n
		}
		d.vpArena = make([]provenance.VarPow, 0, size)
	}
	s := d.vpArena[len(d.vpArena) : len(d.vpArena) : len(d.vpArena)+n]
	d.vpArena = d.vpArena[:len(d.vpArena)+n]
	return s
}

func (d *provDecoder) decode(data []byte) (provenance.Poly, error) {
	bad := func() (provenance.Poly, error) {
		return provenance.Poly{}, fmt.Errorf("core: truncated provenance encoding")
	}
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	// count reads a list length whose elements take at least two bytes
	// each, rejecting one the remaining input cannot hold before it sizes
	// an arena.
	count := func() (int, bool) {
		v, ok := uvar()
		if !ok || v > uint64(len(data)/2) {
			return 0, false
		}
		return int(v), true
	}
	nMonos, ok := count()
	if !ok {
		return bad()
	}
	ms := d.monos(nMonos)
	for i := 0; i < nMonos; i++ {
		m := provenance.Monomial{}
		if m.Coef, ok = uvar(); !ok {
			return bad()
		}
		nVars, ok := count()
		if !ok {
			return bad()
		}
		m.Vars = d.varPows(nVars)
		for j := 0; j < nVars; j++ {
			l, ok := uvar()
			if !ok || uint64(len(data)) < l {
				return bad()
			}
			v := provenance.Var(data[:l])
			data = data[l:]
			pow, ok := uvar()
			if !ok || pow > math.MaxInt32 {
				return bad()
			}
			m.Vars = append(m.Vars, provenance.VarPow{Var: v, Pow: int(pow)})
		}
		ms = append(ms, m)
	}
	if len(data) != 0 {
		return provenance.Poly{}, fmt.Errorf("core: %d trailing bytes after provenance encoding", len(data))
	}
	return provenance.FromCanonicalMonomials(ms), nil
}

// SaveCheckpoint writes the peer's durable state — every local instance row
// with its provenance, the committed-but-unpublished transaction queue, the
// trust state and dependency tracker, and the (nextSeq, lastEpoch) meta
// record — as ONE atomic, fsynced lsm.Batch that also deletes whatever the
// previous checkpoint wrote and this one did not. A crash therefore leaves
// either the old checkpoint or the new one, never a blend: the batch is a
// single WAL record, and recovery replays it all or not at all.
//
// The saved trust state folds in every archived Resolve decision, so the
// same batch clears the decision archive. The batch also refreshes the
// System's "e/" engine snapshot when the shared translator stands exactly
// at this peer's epoch and has moved since the stored snapshot; peers that
// checkpoint at an unchanged head skip the blob.
func (p *Peer) SaveCheckpoint(db *lsm.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.obsv.startSpan("core_checkpoint", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.checkpoints.Inc()
	b := lsm.NewBatch()
	var totalBytes int64
	live := map[string]bool{}
	put := func(key, val []byte) {
		b.Put(key, val)
		totalBytes += int64(len(key) + len(val))
		live[string(key)] = true
	}
	s := p.sys.Schema(p.name)
	for _, rel := range s.Relations() {
		rows, _ := p.local.Rows(rel.Name)
		for _, row := range rows {
			val, err := encodeProv(row.Prov)
			if err != nil {
				return fmt.Errorf("core: checkpoint %s: encode provenance: %w", p.name, err)
			}
			put(ckRowKey(p.name, rel.Name, row.Tuple), val)
		}
	}
	for i, t := range p.unpublished {
		data, err := json.Marshal(p2p.EncodeTxn(t))
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: encode unpublished txn: %w", p.name, err)
		}
		put(ckUnpubKey(p.name, i), data)
	}
	state, err := encodePeerState(p.state.Save(), p.tracker.Save())
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: peer state: %w", p.name, err)
	}
	put(ckStateKey(p.name), state)
	meta, err := json.Marshal(checkpointMeta{NextSeq: p.nextSeq, LastEpoch: p.lastEpoch})
	if err != nil {
		return err
	}
	put(ckMetaKey(p.name), meta)
	engBlob, err := p.tr.snapshotAt(db, p.lastEpoch)
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", p.name, err)
	}
	if engBlob != nil {
		b.Put(ekKey, engBlob)
		totalBytes += int64(len(ekKey) + len(engBlob))
	}

	sn := db.Snapshot()
	defer sn.Close()
	// Sweep the decision archive (the saved trust state reflects every
	// decision) and the previous checkpoint: any key under this peer's
	// prefix that the new checkpoint does not reassert is deleted in the
	// same batch, so deleted rows and drained unpublished slots cannot leak
	// back in.
	for _, base := range [][]byte{rkBase(p.name), ckBase(p.name)} {
		err := sn.Scan(base, ckPrefixEnd(base), func(k, v []byte) bool {
			if !live[string(k)] {
				b.Delete(append([]byte(nil), k...))
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: sweep previous: %w", p.name, err)
		}
	}
	if err := db.Apply(b, true); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", p.name, err)
	}
	if engBlob != nil {
		p.tr.savedSnapshot(p.lastEpoch)
	}
	p.resolveSeq = 0
	p.obsv.checkpointBytes.Set(totalBytes)
	return nil
}

// loadCheckpoint reads the peer's checkpoint from db into p — meta record,
// trust state and tracker, instance rows, archived-decision sequence — and
// returns the meta record, the checkpointed unpublished queue and the
// archived decisions. No meta record means no checkpoint was ever taken:
// the zero checkpoint (E = 0) comes back, and recovery replays the whole
// history through the same code path.
func (p *Peer) loadCheckpoint(db *lsm.DB) (meta checkpointMeta, unpublished []*updates.Transaction, decisions []resolveDecision, err error) {
	meta = checkpointMeta{NextSeq: 1}
	fail := func(stage string, err error) (checkpointMeta, []*updates.Transaction, []resolveDecision, error) {
		return checkpointMeta{}, nil, nil, fmt.Errorf("%s: %w", stage, err)
	}
	name := p.name
	sn := db.Snapshot()
	defer sn.Close()
	raw, checkpointed, err := sn.Get(ckMetaKey(name))
	if err != nil {
		return fail("read meta", err)
	}
	if checkpointed {
		if err := json.Unmarshal(raw, &meta); err != nil {
			return fail("decode meta", err)
		}
		raw, ok, err := sn.Get(ckStateKey(name))
		if err == nil && !ok {
			err = fmt.Errorf("checkpoint has no peer state")
		}
		if err != nil {
			return fail("read peer state", err)
		}
		st, writers, err := decodePeerState(raw)
		if err != nil {
			return fail("decode peer state", err)
		}
		if err := p.state.Restore(st); err != nil {
			return fail("restore trust state", err)
		}
		p.tracker.Restore(writers)
	}
	rp := ckRowPrefix(name)
	var derr error
	var pd provDecoder
	err = sn.Scan(rp, ckPrefixEnd(rp), func(k, v []byte) bool {
		rel, rest, e := lsm.DecodeString(k[len(rp):])
		if e != nil {
			derr = e
			return false
		}
		tu, e := lsm.DecodeTuple(rest)
		if e != nil {
			derr = e
			return false
		}
		prov, e := pd.decode(v)
		if e != nil {
			derr = e
			return false
		}
		if _, e := p.local.Upsert(rel, tu, prov); e != nil {
			derr = e
			return false
		}
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return fail("checkpoint rows", err)
	}
	up := ckUnpubPrefix(name)
	derr = nil
	err = sn.Scan(up, ckPrefixEnd(up), func(k, v []byte) bool {
		var w p2p.WireTxn
		if e := json.Unmarshal(v, &w); e != nil {
			derr = e
			return false
		}
		t, e := p2p.DecodeTxn(w)
		if e != nil {
			derr = e
			return false
		}
		unpublished = append(unpublished, t)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return fail("checkpoint unpublished", err)
	}
	rb := rkBase(name)
	derr = nil
	err = sn.Scan(rb, ckPrefixEnd(rb), func(k, v []byte) bool {
		var d resolveDecision
		if e := json.Unmarshal(v, &d); e != nil {
			derr = e
			return false
		}
		decisions = append(decisions, d)
		if len(k) >= len(rb)+8 {
			if seq := binary.BigEndian.Uint64(k[len(rb):]); seq >= p.resolveSeq {
				p.resolveSeq = seq + 1
			}
		}
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return fail("checkpoint decisions", err)
	}
	return meta, unpublished, decisions, nil
}

// RecoverPeerWith reconstructs a peer from its durable checkpoint in the
// translator's database plus the published history in the translator's
// store. The invariant it restores: the recovered peer is
// indistinguishable — instance rows, provenance, trust state, dependency
// tracker, unpublished queue, sequence counter, settled conflicts — from
// the same peer having processed the same history live, with one
// documented exception (the published snapshot equals the reconciled
// instance rather than the instant of the last Publish).
//
// The checkpoint holds the peer's state at its epoch E, so recovery only
// replays the candidates published after E, reading their translations
// from the shared translator (which starts from the System's "e/" engine
// snapshot when its watermark is ≤ E). Archived Resolve decisions re-apply
// at their recorded positions. Without a checkpoint, E is 0 and the whole
// history replays through the same path.
func RecoverPeerWith(ctx context.Context, name string, policy *recon.Policy, tr *Translator) (*Peer, error) {
	db := tr.db
	if db == nil {
		return nil, fmt.Errorf("core: recover peer %s: the translator has no durable tier", name)
	}
	p, err := NewPeerWith(name, policy, tr)
	if err != nil {
		return nil, err
	}
	p.db = db
	fail := func(stage string, err error) (*Peer, error) {
		return nil, fmt.Errorf("core: recover peer %s: %s: %w", name, stage, err)
	}
	loadStart := time.Now()

	// Phase 1 — load the checkpoint.
	meta, ckUnpublished, decisions, err := p.loadCheckpoint(db)
	if err != nil {
		return nil, fmt.Errorf("core: recover peer %s: %w", name, err)
	}
	p.nextSeq = meta.NextSeq
	E := meta.LastEpoch
	p.recLoadNs = time.Since(loadStart).Nanoseconds()

	// Phase 2 — the translations of everything published after E.
	entries, storeEpoch, err := tr.advance(ctx, E, nil, nil)
	if err != nil {
		return fail("replay translations", err)
	}
	p.recReplayTxns = int64(len(entries))
	p.pendingRecovery = true

	// The checkpointed unpublished queue is already in the restored trust
	// state (commit accepts it). A queued transaction that shows up in the
	// store was published between the checkpoint and the crash: the archive
	// has it, so it must not return to the queue.
	ownInStore := map[updates.TxnID]bool{}
	for _, e := range entries {
		if e.txn.ID.Peer == name {
			ownInStore[e.txn.ID] = true
		}
	}
	for _, t := range ckUnpublished {
		if !ownInStore[t.ID] {
			p.unpublished = append(p.unpublished, t)
		}
	}

	// Phase 3 — replay decisions in epoch order. Candidate runs are flushed
	// through state.Reconcile at every boundary that changes what "applying
	// the outcome" means: at each of our own transactions (AcceptLocal must
	// interleave at its true position — acceptance order decides write
	// conflicts) and at each archived Resolve decision (the decision settled
	// conflicts exactly between the epochs its AfterEpoch records).
	// Batch-insensitivity of state.Reconcile makes the coarser replay
	// partitioning equivalent to the original round structure.
	var run []*updates.Transaction
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		outcome, err := p.state.Reconcile(policy, run)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if err := p.applyUpdates(t.Updates); err != nil {
				return err
			}
			// RecordWrites, not Record: replay must restore the archived
			// dependency edges, not recompute them against replay-time state.
			p.tracker.RecordWrites(t)
		}
		run = nil
		return nil
	}
	applyDecision := func(d resolveDecision) error {
		if err := flush(); err != nil {
			return err
		}
		winner := updates.TxnID{Peer: d.WinnerPeer, Seq: d.WinnerSeq}
		if p.state.Status(winner) == recon.StatusAccepted {
			return nil // already settled; re-application is a no-op
		}
		outcome, err := p.state.Resolve(winner)
		if err != nil {
			return err
		}
		for _, t := range outcome.Accepted {
			if err := p.applyUpdates(t.Updates); err != nil {
				return err
			}
			p.tracker.RecordWrites(t)
		}
		return nil
	}
	di := 0
	for _, e := range entries {
		txn := e.txn
		for ; di < len(decisions) && decisions[di].AfterEpoch < txn.Epoch; di++ {
			if err := applyDecision(decisions[di]); err != nil {
				return fail("reapply resolve decision", err)
			}
		}
		if txn.ID.Peer != name {
			run = append(run, p.candidate(e))
			continue
		}
		if err := flush(); err != nil {
			return fail("replay decisions", err)
		}
		// Our own published transaction. The restored trust state knows it
		// when it committed before the checkpoint, whose rows then hold its
		// effects; otherwise it committed after E and re-applies here.
		if p.state.Status(txn.ID) == recon.StatusUnknown {
			if err := p.applyUpdates(txn.Updates); err != nil {
				return fail("reapply own txn", err)
			}
			if err := p.state.AcceptLocal(txn); err != nil {
				return fail("accept own txn", err)
			}
			p.tracker.RecordWrites(txn)
		}
		if txn.ID.Seq >= p.nextSeq {
			p.nextSeq = txn.ID.Seq + 1
		}
	}
	if err := flush(); err != nil {
		return fail("replay decisions", err)
	}
	for ; di < len(decisions); di++ {
		if err := applyDecision(decisions[di]); err != nil {
			return fail("reapply resolve decision", err)
		}
	}

	p.lastEpoch = max(storeEpoch, E)
	tr.commit(name, p.lastEpoch)
	// The published snapshot is approximated by the recovered instance; when
	// the unpublished queue is nonempty the two diverge until the next
	// Publish refreshes it, exactly as documented in DESIGN.md.
	p.published = p.local.Snapshot()
	return p, nil
}
