package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Engine-snapshot blob (DESIGN.md §13): the single value under the "e/" key
// of a durable System. It captures the shared translation engine (through
// exchange.Engine.SaveState), the adaptive-window EWMA seed, and the epoch
// watermark the snapshot is valid at. A Translator rebuilding at epoch e
// restores it when its watermark is ≤ e and replays only the store after
// the watermark.
//
// Layout (uvarint integers):
//
//	magic "OEB2"
//	watermark epoch
//	window EWMA (8 bytes, IEEE-754 bits big-endian)
//	engLen, then the exchange.Engine.SaveState blob
//
// Peer-state blob: the value under each peer's "c/<peer>s" checkpoint key,
// holding what a peer accumulates outside its instance rows — the
// reconciliation state and the dependency tracker, valid at the
// checkpoint's epoch. Layout (uvarint integers, uvarint-length-prefixed
// strings, provenance as the checkpoint codec's binary encodeProv bytes):
//
//	magic "OTS1"
//	nTxns · { peer, seq, epoch, status, prio (zig-zag), full flag,
//	          [full: nUps · { rel, op, oldKey, newKey, provBytes }],
//	          nDeps · { peer, seq } }
//	nOrder · { peer, seq }             (acceptance order)
//	nWrites · { key, peer, seq, del flag, tupleKey }
//	nWriters · { key, peer, seq }      (tracker last-writer index)
//
// Accepted and Rejected graph nodes serialize as skeletons (no update
// list): reconciliation never reads their updates again — see
// recon.NeedsFullTxn — and stripping them keeps the blob proportional to
// the live conflict frontier, not the whole history.

const (
	engineBlobMagic = "OEB2"
	peerStateMagic  = "OTS1"
)

// engineSnapshot is the decoded form of the "e/" blob.
type engineSnapshot struct {
	Watermark uint64
	PerTxn    float64
	Engine    []byte
}

func encodeEngineBlob(watermark uint64, perTxn float64, engineBlob []byte) []byte {
	buf := append([]byte(nil), engineBlobMagic...)
	buf = binary.AppendUvarint(buf, watermark)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(perTxn))
	buf = binary.AppendUvarint(buf, uint64(len(engineBlob)))
	return append(buf, engineBlob...)
}

func decodeEngineBlob(blob []byte) (*engineSnapshot, error) {
	r, err := newBlobReader(blob, engineBlobMagic, "engine snapshot")
	if err != nil {
		return nil, err
	}
	snap := &engineSnapshot{}
	snap.Watermark = r.uvarint()
	snap.PerTxn = math.Float64frombits(r.be64())
	snap.Engine = r.bytes()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// readEngineSnapshot decodes the System's "e/" blob from db; nil, nil when
// there is none.
func readEngineSnapshot(db *lsm.DB) (*engineSnapshot, error) {
	sn := db.Snapshot()
	defer sn.Close()
	raw, ok, err := sn.Get(ekKey)
	if err != nil || !ok {
		return nil, err
	}
	return decodeEngineBlob(raw)
}

func encodePeerState(st *recon.SavedState, writers []updates.SavedWriter) ([]byte, error) {
	buf := append([]byte(nil), peerStateMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(st.Txns)))
	for _, sv := range st.Txns {
		t := sv.Txn
		buf = appendBlobString(buf, t.ID.Peer)
		buf = binary.AppendUvarint(buf, t.ID.Seq)
		buf = binary.AppendUvarint(buf, t.Epoch)
		buf = binary.AppendUvarint(buf, uint64(sv.Status))
		buf = binary.AppendVarint(buf, int64(sv.Prio))
		if recon.NeedsFullTxn(sv.Status) {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(t.Updates)))
			for _, u := range t.Updates {
				buf = appendBlobString(buf, u.Rel)
				buf = append(buf, byte(u.Op))
				buf = appendBlobString(buf, tupleKeyOrEmpty(u.Old))
				buf = appendBlobString(buf, tupleKeyOrEmpty(u.New))
				pv, err := encodeProv(u.Prov)
				if err != nil {
					return nil, err
				}
				buf = binary.AppendUvarint(buf, uint64(len(pv)))
				buf = append(buf, pv...)
			}
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.Deps)))
		for _, d := range t.Deps {
			buf = appendBlobString(buf, d.Peer)
			buf = binary.AppendUvarint(buf, d.Seq)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.AppliedOrder)))
	for _, id := range st.AppliedOrder {
		buf = appendBlobString(buf, id.Peer)
		buf = binary.AppendUvarint(buf, id.Seq)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Writes)))
	for _, w := range st.Writes {
		buf = appendBlobString(buf, w.Key)
		buf = appendBlobString(buf, w.Writer.Peer)
		buf = binary.AppendUvarint(buf, w.Writer.Seq)
		if w.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendBlobString(buf, w.TupKey)
	}
	buf = binary.AppendUvarint(buf, uint64(len(writers)))
	for _, w := range writers {
		buf = appendBlobString(buf, w.Key)
		buf = appendBlobString(buf, w.Writer.Peer)
		buf = binary.AppendUvarint(buf, w.Writer.Seq)
	}
	return buf, nil
}

func decodePeerState(blob []byte) (*recon.SavedState, []updates.SavedWriter, error) {
	r, err := newBlobReader(blob, peerStateMagic, "peer state")
	if err != nil {
		return nil, nil, err
	}
	st := &recon.SavedState{}
	var writers []updates.SavedWriter
	var pd provDecoder
	// Every list element takes at least one byte, so no count may exceed
	// the bytes left: a corrupt count fails here instead of looping.
	nTxns := r.count()
	for i := uint64(0); i < nTxns && r.err == nil; i++ {
		t := &updates.Transaction{}
		t.ID.Peer = r.string()
		t.ID.Seq = r.uvarint()
		t.Epoch = r.uvarint()
		status := recon.Status(r.uvarint())
		if r.err == nil && status > recon.StatusDeferred {
			r.err = fmt.Errorf("core: peer state has unknown status %d", status)
		}
		prio := int(r.varint())
		if r.byte() == 1 {
			nUps := r.count()
			for j := uint64(0); j < nUps && r.err == nil; j++ {
				u := updates.Update{Rel: r.string(), Op: updates.Op(r.byte())}
				if r.err == nil && u.Op > updates.OpModify {
					r.err = fmt.Errorf("core: peer state has unknown op %d", u.Op)
					break
				}
				if u.Old, r.err = parseTupleKey(r.string(), r.err); r.err != nil {
					break
				}
				if u.New, r.err = parseTupleKey(r.string(), r.err); r.err != nil {
					break
				}
				pv := r.bytes()
				if r.err != nil {
					break
				}
				if u.Prov, r.err = pd.decode(pv); r.err != nil {
					break
				}
				t.Updates = append(t.Updates, u)
			}
		}
		nDeps := r.count()
		for j := uint64(0); j < nDeps && r.err == nil; j++ {
			d := updates.TxnID{Peer: r.string()}
			d.Seq = r.uvarint()
			t.Deps = append(t.Deps, d)
		}
		st.Txns = append(st.Txns, recon.SavedTxn{Txn: t, Status: status, Prio: prio})
	}

	nOrder := r.count()
	for i := uint64(0); i < nOrder && r.err == nil; i++ {
		id := updates.TxnID{Peer: r.string()}
		id.Seq = r.uvarint()
		st.AppliedOrder = append(st.AppliedOrder, id)
	}
	nWrites := r.count()
	for i := uint64(0); i < nWrites && r.err == nil; i++ {
		w := recon.SavedWrite{Key: r.string(), Writer: updates.TxnID{Peer: r.string()}}
		w.Writer.Seq = r.uvarint()
		w.Del = r.byte() == 1
		w.TupKey = r.string()
		st.Writes = append(st.Writes, w)
	}
	nWriters := r.count()
	for i := uint64(0); i < nWriters && r.err == nil; i++ {
		w := updates.SavedWriter{Key: r.string(), Writer: updates.TxnID{Peer: r.string()}}
		w.Writer.Seq = r.uvarint()
		writers = append(writers, w)
	}
	if err := r.finish(); err != nil {
		return nil, nil, err
	}
	return st, writers, nil
}

// EngineSnapshotStats summarizes the union-database section of the
// System's durable engine snapshot without materializing it, plus the epoch
// watermark the snapshot is valid at. The boolean reports whether a
// snapshot exists — `orchestra inspect` dumps this.
func EngineSnapshotStats(db *lsm.DB) (stats datalog.DBStats, watermark uint64, ok bool, err error) {
	sn := db.Snapshot()
	defer sn.Close()
	raw, found, err := sn.Get(ekKey)
	if err != nil || !found {
		return datalog.DBStats{}, 0, false, err
	}
	snap, err := decodeEngineBlob(raw)
	if err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	stats, err = exchange.StatState(snap.Engine)
	if err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	stats.Bytes = len(raw)
	return stats, snap.Watermark, true, nil
}

func tupleKeyOrEmpty(t schema.Tuple) string {
	if t == nil {
		return ""
	}
	return t.Key()
}

// parseTupleKey threads the sticky reader error: an empty key means a nil
// tuple (updates never carry empty tuples on their nil side; schema-level
// empty tuples do not appear in update old/new slots).
func parseTupleKey(key string, err error) (schema.Tuple, error) {
	if err != nil || key == "" {
		return nil, err
	}
	return schema.ParseTupleKey(key)
}

func appendBlobString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// blobReader is a cursor over a blob body with sticky error handling.
type blobReader struct {
	buf  []byte
	err  error
	kind string
}

// newBlobReader checks blob's magic and returns a reader over the rest;
// kind names the blob in errors.
func newBlobReader(blob []byte, magic, kind string) (*blobReader, error) {
	if len(blob) < len(magic) || string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("core: not a %s (bad magic)", kind)
	}
	return &blobReader{buf: blob[len(magic):], kind: kind}, nil
}

func (r *blobReader) fail(what string) {
	r.err = fmt.Errorf("core: truncated %s (%s)", r.kind, what)
}

// finish reports the sticky error, or trailing bytes after a clean decode.
func (r *blobReader) finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("core: %d trailing bytes after %s", len(r.buf), r.kind)
	}
	return r.err
}

func (r *blobReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a list length, rejecting one larger than the bytes left.
func (r *blobReader) count() uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.fail("count overruns buffer")
		return 0
	}
	return n
}

func (r *blobReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *blobReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("missing byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *blobReader) be64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("missing word")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *blobReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("bytes overrun buffer")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *blobReader) string() string { return string(r.bytes()) }
