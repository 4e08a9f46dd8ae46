package provenance

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	g := NewGraph("major", []string{"a", "b", "c"})
	g.ApplyDeterministic(func(v string) string {
		if v == "a" || v == "b" {
			return "ab"
		}
		return v
	})
	rowLevel(g, []string{"ab", "ab", "c"}, []string{"x", "y", "c"})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back := &Graph{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.attr != "major" || back.DomainSize() != 3 || !back.Forked() {
		t.Fatalf("round trip = attr %q, N %d, forked %t", back.attr, back.DomainSize(), back.Forked())
	}
	pred := func(v string) bool { return v == "x" }
	if g.Selectivity(pred) != back.Selectivity(pred) {
		t.Fatalf("cut changed: %v vs %v", g.Selectivity(pred), back.Selectivity(pred))
	}
}

func TestGraphJSONRejectsBrokenWeights(t *testing.T) {
	raw := `{"attr":"d","n":2,"forked":false,"parents":{"a":{"a":0.5}}}`
	g := &Graph{}
	if err := json.Unmarshal([]byte(raw), g); err == nil {
		t.Fatal("want validation error for weights summing to 0.5")
	}
}

func TestGraphJSONEmptyParents(t *testing.T) {
	raw := `{"attr":"d","n":0,"forked":false}`
	g := &Graph{}
	if err := json.Unmarshal([]byte(raw), g); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 0 {
		t.Fatal("empty graph should have no edges")
	}
}

func TestStoreJSONRoundTrip(t *testing.T) {
	s := NewStore()
	base := s.Ensure("major", []string{"a", "b"})
	derived := base.Clone()
	derived.ApplyDeterministic(func(v string) string { return v + "!" })
	s.LinkExtracted("flag", "major", derived)

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"base"`) {
		t.Fatalf("missing base map in %s", data)
	}
	back := NewStore()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.BaseAttr("flag") != "major" {
		t.Fatalf("BaseAttr(flag) = %q after round trip", back.BaseAttr("flag"))
	}
	attrs := back.Attrs()
	if len(attrs) != 2 {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestStoreJSONBadInput(t *testing.T) {
	back := NewStore()
	if err := json.Unmarshal([]byte(`{"graphs":{"d":null}}`), back); err == nil {
		t.Fatal("want error for nil graph")
	}
	if err := json.Unmarshal([]byte(`not json`), back); err == nil {
		t.Fatal("want error for invalid JSON")
	}
	// Empty object yields a usable empty store.
	if err := json.Unmarshal([]byte(`{}`), back); err != nil {
		t.Fatal(err)
	}
	if len(back.Attrs()) != 0 {
		t.Fatal("empty store should have no attrs")
	}
}
