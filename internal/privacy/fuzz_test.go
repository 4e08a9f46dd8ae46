package privacy

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzMechanismMeta drives arbitrary bytes through the full mechanism-
// metadata life cycle: decode, validate, fingerprint, marshal, re-decode,
// re-validate, re-fingerprint. Two invariants hold for every accepted input:
// the JSON round trip must re-validate (a released meta.json can always be
// re-read), and the fingerprint must survive it unchanged — the fingerprint
// is what a collector pins, so a round trip that perturbed it would strand
// every client on restart. Unknown mechanism names must be rejected by
// Validate, never silently fingerprinted as something else. And every
// validated discrete attribute maps to a proper GRR channel: the mapped p
// and the channel's τ_n and τ_p lie in [0, 1] (up to rounding), and its
// epsilon is never NaN or negative, and finite whenever p > 0 or the domain
// has at most one value.
func FuzzMechanismMeta(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"Discrete":{"major":{"Name":"major","P":0.2,"Domain":["a","b"]}},"Numeric":{},"Rows":10}`,
		`{"Discrete":{"major":{"Name":"major","P":0.2,"Domain":["a","b","c"],"Mechanism":"krr"}},"Rows":5}`,
		`{"Discrete":{"flag":{"Name":"flag","P":0.4,"Domain":["no","yes"],"Mechanism":"rrbin"}},"Rows":5}`,
		`{"Discrete":{"major":{"Name":"major","P":0.2,"Domain":["a","b"],"Mechanism":"grr"}},"Rows":5}`,
		`{"Discrete":{"major":{"Name":"major","P":0.2,"Domain":["a","b"],"Mechanism":"exponential"}},"Rows":5}`,
		`{"Discrete":{"major":{"Name":"major","P":0.9,"Domain":["a","b","c"],"Mechanism":"krr"}},"Rows":5}`,
		`{"Discrete":{"flag":{"Name":"flag","P":0.4,"Domain":["no","yes","maybe"],"Mechanism":"rrbin"}},"Rows":5}`,
		`{"Numeric":{"score":{"Name":"score","B":2,"Delta":20}},"Rows":3}`,
		`null`,
		``,
		`{"Discrete":{"one":{"Name":"one","P":0.2,"Domain":["x"]}},"Rows":4}`,
		`{"Discrete":{"major":{"Name":"major","P":0,"Domain":["a","b","c"],"Mechanism":"krr"}},"Rows":4}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta := &ViewMeta{}
		if err := json.Unmarshal(data, meta); err != nil {
			return // rejection is fine
		}
		if err := meta.Validate(); err != nil {
			return // typed rejection is fine (unknown mechanism lands here)
		}
		const slack = 1e-12 // rounding in p·l/n and 1-p
		for name, dm := range meta.Discrete {
			p, err := dm.GRRP()
			if err != nil {
				t.Fatalf("validated meta has an unknown mechanism for %q: %v", name, err)
			}
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: mapped p %v out of [0,1]", name, p)
			}
			n := dm.N()
			for l := 0; n > 0 && l <= n; l++ {
				tauN, denom := Channel(p, n, float64(l))
				if tauP := tauN + denom; !(tauN >= -slack && tauN <= 1+slack && tauP >= -slack && tauP <= 1+slack) {
					t.Fatalf("%q l=%d: τ_n = %v, τ_p = %v out of [0,1]", name, l, tauN, tauP)
				}
			}
			eps := dm.Epsilon()
			if math.IsNaN(eps) || eps < 0 {
				t.Fatalf("%q: epsilon %v", name, eps)
			}
			if (dm.P > 0 || n <= 1) && math.IsInf(eps, 0) {
				t.Fatalf("%q: p = %v over %d values gives epsilon %v", name, dm.P, n, eps)
			}
		}
		fp := MechanismFingerprint(meta)
		out, err := json.Marshal(meta)
		if err != nil {
			t.Fatalf("validated metadata failed to marshal: %v", err)
		}
		back := &ViewMeta{}
		if err := json.Unmarshal(out, back); err != nil {
			t.Fatalf("marshaled metadata failed to re-read: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped metadata no longer validates: %v", err)
		}
		if got := MechanismFingerprint(back); got != fp {
			t.Fatalf("fingerprint changed across JSON round trip: %s -> %s", fp, got)
		}
	})
}
