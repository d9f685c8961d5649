// Package core is the public heart of the ORCHESTRA CDSS: it wires the
// storage engine, schema mappings, update-exchange translation,
// reconciliation, and the published-update store into the peer lifecycle
// the paper describes — locally autonomous editing, publication, and
// reconciliation, each advancing the system's logical clock.
//
// Typical use:
//
//	sys, _ := core.NewSystem(peers, mappings)
//	store := p2p.NewMemoryStore()
//	alice, _ := core.NewPeer("alice", sys, store, recon.TrustAll(1))
//	bob, _ := core.NewPeer("bob", sys, store, recon.TrustAll(1))
//	tx := alice.NewTransaction()
//	tx.Insert("R", tuple)
//	tx.Commit()
//	alice.Publish()
//	bob.Reconcile() // bob receives alice's data translated into his schema
package core

import (
	"fmt"
	"sync"

	"orchestra/internal/exchange"
	"orchestra/internal/mapping"
	"orchestra/internal/p2p"
	"orchestra/internal/schema"
)

// System is the static configuration of a CDSS: the confederation's peer
// schemas and the declarative mappings relating them.
type System struct {
	peers    map[string]*schema.Schema
	mappings []*mapping.Mapping

	// mu guards translators: the default-configured Translator NewPeer
	// shares among the peers it opens over each store.
	mu          sync.Mutex
	translators map[p2p.Store]*Translator
}

// NewSystem validates and packages a CDSS configuration.
func NewSystem(peers map[string]*schema.Schema, mappings []*mapping.Mapping) (*System, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("core: a CDSS needs at least one peer")
	}
	for name, s := range peers {
		if s == nil {
			return nil, fmt.Errorf("core: peer %s has a nil schema", name)
		}
	}
	for _, m := range mappings {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if _, ok := peers[m.Source]; !ok {
			return nil, fmt.Errorf("%w %s (source of mapping %s)", ErrUnknownPeer, m.Source, m.ID)
		}
		if _, ok := peers[m.Target]; !ok {
			return nil, fmt.Errorf("%w %s (target of mapping %s)", ErrUnknownPeer, m.Target, m.ID)
		}
	}
	return &System{peers: peers, mappings: mappings, translators: map[p2p.Store]*Translator{}}, nil
}

// Schema returns the schema of the named peer, or nil.
func (s *System) Schema(peer string) *schema.Schema { return s.peers[peer] }

// Peers returns the peer -> schema map (shared; treat as read-only).
func (s *System) Peers() map[string]*schema.Schema { return s.peers }

// Mappings returns the mapping list (shared; treat as read-only).
func (s *System) Mappings() []*mapping.Mapping { return s.mappings }

// translator returns the default-configured Translator shared by every
// NewPeer over store, creating it on first use. Stores are compared by
// identity, so store must be a comparable value (every p2p store is a
// pointer).
func (s *System) translator(store p2p.Store) (*Translator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.translators[store]; ok {
		return t, nil
	}
	t, err := NewTranslator(s, store, exchange.Config{}, nil)
	if err != nil {
		return nil, err
	}
	s.translators[store] = t
	return t, nil
}
