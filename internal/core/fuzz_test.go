package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/workload"
)

// Fuzz targets for the checkpoint codecs: whatever bytes a corrupt or
// hostile durable tier holds, decoding returns an error or a value, never a
// panic, and every encoder output decodes and re-encodes to itself. Seed
// corpora, including past crashers, live under testdata/fuzz; run one with
//
//	go test -run '^$' -fuzz FuzzDecodeProv -fuzztime 10s ./internal/core

func FuzzDecodeProv(f *testing.F) {
	x, y := provenance.NewVar("x"), provenance.NewVar("y")
	for _, p := range []provenance.Poly{provenance.One(), x.Mul(x).Add(y), x.Mul(y).Add(provenance.Const(3))} {
		data, err := encodeProv(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeProv(data)
		if err != nil {
			return
		}
		enc, err := encodeProv(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := decodeProv(enc)
		if err != nil {
			t.Fatalf("encoder output %x does not decode: %v", enc, err)
		}
		if !q.Equal(p) {
			t.Fatalf("round trip changed %v into %v", p, q)
		}
	})
}

func FuzzDecodeEngineBlob(f *testing.F) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		f.Fatal(err)
	}
	tr, err := NewTranslator(sys, p2p.NewMemoryStore(), exchange.Config{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	alaska, err := NewPeerWith(workload.Alaska, recon.TrustAll(1), tr)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")).Commit(); err != nil {
		f.Fatal(err)
	}
	if _, err := alaska.Publish(context.Background()); err != nil {
		f.Fatal(err)
	}
	if _, err := alaska.Reconcile(context.Background()); err != nil {
		f.Fatal(err)
	}
	state, err := tr.eng.SaveState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeEngineBlob(1, 0.001, state))
	// Every fuzzed snapshot loads into one engine: LoadState replaces the
	// engine's state on success and leaves it unchanged on failure.
	eng, err := exchange.NewEngineWith(sys.Peers(), sys.Mappings(), exchange.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeEngineBlob(data)
		if err != nil {
			return
		}
		enc := encodeEngineBlob(snap.Watermark, snap.PerTxn, snap.Engine)
		again, err := decodeEngineBlob(enc)
		if err != nil {
			t.Fatalf("encoder output does not decode: %v", err)
		}
		if again.Watermark != snap.Watermark || math.Float64bits(again.PerTxn) != math.Float64bits(snap.PerTxn) ||
			!bytes.Equal(again.Engine, snap.Engine) {
			t.Fatalf("round trip changed %+v into %+v", snap, again)
		}
		_ = eng.LoadState(snap.Engine)
	})
}

func FuzzDecodePeerState(f *testing.F) {
	st, writers := samplePeerState(f)
	blob, err := encodePeerState(st, writers)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	keyOf := func(rel string, tu schema.Tuple) schema.Tuple { return tu }
	f.Fuzz(func(t *testing.T, data []byte) {
		st, writers, err := decodePeerState(data)
		if err != nil {
			return
		}
		enc, err := encodePeerState(st, writers)
		if err != nil {
			t.Fatal(err)
		}
		again, err := reencodePeerState(enc)
		if err != nil {
			t.Fatalf("encoder output does not decode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("encoder output does not re-encode to itself")
		}
		_ = recon.NewState(keyOf).Restore(st)
	})
}
