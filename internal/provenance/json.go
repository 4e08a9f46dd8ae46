package provenance

import (
	"encoding/json"
	"fmt"

	"privateclean/internal/faults"
)

// graphJSON is the serialized form of a Graph.
type graphJSON struct {
	Attr    string                        `json:"attr"`
	N       int                           `json:"n"`
	Forked  bool                          `json:"forked"`
	Parents map[string]map[string]float64 `json:"parents"`
}

// MarshalJSON implements json.Marshaler so provenance survives across CLI
// invocations (privatize / clean / query run as separate processes).
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Attr: g.attr, N: g.n, Forked: g.forked, Parents: g.parents})
}

// UnmarshalJSON implements json.Unmarshaler. A graph that decodes but fails
// validation is classified as faults.ErrBadMeta — the provenance sidecar is
// estimator state, and a corrupted one silently skews every weighted
// correction built from it.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var j graphJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Parents == nil {
		j.Parents = make(map[string]map[string]float64)
	}
	g.attr = j.Attr
	g.n = j.N
	g.forked = j.Forked
	g.parents = j.Parents
	g.index()
	return faults.Wrap(faults.ErrBadMeta, g.Validate(1e-6))
}

// storeJSON is the serialized form of a Store.
type storeJSON struct {
	Graphs map[string]*Graph `json:"graphs"`
	Base   map[string]string `json:"base,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s *Store) MarshalJSON() ([]byte, error) {
	return json.Marshal(storeJSON{Graphs: s.graphs, Base: s.base})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Store) UnmarshalJSON(data []byte) error {
	var j storeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Graphs == nil {
		j.Graphs = make(map[string]*Graph)
	}
	if j.Base == nil {
		j.Base = make(map[string]string)
	}
	for attr, g := range j.Graphs {
		if g == nil {
			return faults.Wrap(faults.ErrBadMeta, fmt.Errorf("provenance: nil graph for attribute %q", attr))
		}
	}
	s.graphs = j.Graphs
	s.base = j.Base
	return nil
}
