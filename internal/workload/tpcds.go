package workload

import (
	"fmt"
	"math/rand"

	"privateclean/internal/dist"
	"privateclean/internal/relation"
)

// TPCDSConfig parameterizes the synthetic customer_address table used by the
// constraint-based cleaning experiment (Section 8.3.4). The table satisfies
// the functional dependency [ca_city, ca_county] -> ca_state and carries a
// matching dependency on ca_country (country values should resolve to a
// small canonical set). Corruptions are injected separately with
// CorruptStates and CorruptCountries, matching the paper's corruption
// processes (random state replacement; one-character country appends).
type TPCDSConfig struct {
	// Rows is the number of rows (paper: full table; default 5000).
	Rows int
	// Places is the number of distinct (ca_city, ca_county) pairs.
	Places int
	// States is the number of distinct ca_state values.
	States int
	// Countries is the number of distinct canonical ca_country values;
	// the first dominates (like "United States" in TPC-DS).
	Countries int
	// PlaceZ is the Zipfian skew of place popularity.
	PlaceZ float64
}

// WithDefaults fills zero fields.
func (c TPCDSConfig) WithDefaults() TPCDSConfig {
	if c.Rows == 0 {
		c.Rows = 5000
	}
	if c.Places == 0 {
		c.Places = 200
	}
	if c.States == 0 {
		c.States = 20
	}
	if c.Countries == 0 {
		c.Countries = 8
	}
	if c.PlaceZ == 0 {
		c.PlaceZ = 1
	}
	return c
}

// CustomerAddressSchema is the schema of the synthetic customer_address
// projection used by the experiment.
var CustomerAddressSchema = relation.MustSchema(
	relation.Column{Name: "ca_city", Kind: relation.Discrete},
	relation.Column{Name: "ca_county", Kind: relation.Discrete},
	relation.Column{Name: "ca_state", Kind: relation.Discrete},
	relation.Column{Name: "ca_country", Kind: relation.Discrete},
)

// StateValue renders the state value for index k.
func StateValue(k int) string { return fmt.Sprintf("ST%02d", k) }

// canonicalCountries are the canonical ca_country values. They are chosen
// pairwise far apart in edit distance so a distance-1 matching dependency
// never conflates two canonicals, only corrupted variants with their
// canonical (TPC-DS's real data has the same property).
var canonicalCountries = []string{
	"United States", "Canada", "Mexico", "Germany",
	"France", "Japan", "Brazil", "Australia",
	"India", "Norway", "Chile", "Portugal",
}

// CountryValue renders the canonical country value for index k; index 0 is
// the dominant country. k beyond the built-in list wraps with a numeric
// suffix.
func CountryValue(k int) string {
	if k < len(canonicalCountries) {
		return canonicalCountries[k]
	}
	return fmt.Sprintf("%s %d", canonicalCountries[k%len(canonicalCountries)], k/len(canonicalCountries))
}

// CustomerAddress generates a clean customer_address table: each of
// cfg.Places (city, county) pairs is assigned one state (so the FD holds
// exactly), and countries follow a heavily skewed distribution over the
// canonical set (so the MD's canonical values are recoverable by majority).
func CustomerAddress(rng *rand.Rand, cfg TPCDSConfig) (*relation.Relation, error) {
	cfg = cfg.WithDefaults()
	placeZipf, err := dist.NewZipf(cfg.Places, cfg.PlaceZ)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	countryZipf, err := dist.NewZipf(cfg.Countries, 2.5)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	// Deterministic place -> state assignment in contiguous blocks: the
	// Zipf-heavy places all land in the low-index states, so the state
	// distribution is skewed (TPC-DS state populations are; a uniform state
	// distribution would make the Direct estimator unbiased and the
	// experiment vacuous).
	stateOf := func(place int) string { return StateValue(place * cfg.States / cfg.Places) }

	cities := make([]string, cfg.Rows)
	counties := make([]string, cfg.Rows)
	states := make([]string, cfg.Rows)
	countries := make([]string, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		p := placeZipf.Sample(rng)
		cities[i] = fmt.Sprintf("City %03d", p)
		counties[i] = fmt.Sprintf("County %02d", p/5)
		states[i] = stateOf(p)
		countries[i] = CountryValue(countryZipf.Sample(rng))
	}
	return relation.FromColumns(CustomerAddressSchema,
		nil,
		map[string][]string{
			"ca_city":    cities,
			"ca_county":  counties,
			"ca_state":   states,
			"ca_country": countries,
		})
}

// CorruptStates randomly replaces ca_state in k distinct rows with a
// uniformly chosen different state, violating the FD. Mutates rel in place.
func CorruptStates(rng *rand.Rand, rel *relation.Relation, k, states int) error {
	col, err := rel.Discrete("ca_state")
	if err != nil {
		return err
	}
	if k > rel.NumRows() {
		k = rel.NumRows()
	}
	perm := rng.Perm(rel.NumRows())
	for _, i := range perm[:k] {
		cur := col[i]
		repl := cur
		for repl == cur {
			repl = StateValue(rng.Intn(states))
		}
		col[i] = repl
	}
	return rel.SetDiscrete("ca_state", col)
}

// CorruptCountries appends a one-character corruption to ca_country in k
// distinct rows (the paper's country corruption process). Mutates rel in
// place.
func CorruptCountries(rng *rand.Rand, rel *relation.Relation, k int) error {
	col, err := rel.Discrete("ca_country")
	if err != nil {
		return err
	}
	if k > rel.NumRows() {
		k = rel.NumRows()
	}
	perm := rng.Perm(rel.NumRows())
	for _, i := range perm[:k] {
		col[i] = col[i] + string(rune('a'+rng.Intn(26)))
	}
	return rel.SetDiscrete("ca_country", col)
}
