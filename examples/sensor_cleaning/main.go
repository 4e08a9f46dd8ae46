// Sensor cleaning: the IntelWireless scenario of Section 8.4.
//
// A fleet of 68 environment sensors logs temperature readings. Sensors
// occasionally fail; failure log entries carry spurious or missing sensor
// ids and untrustworthy readings. The provider wants to share the log while
// keeping sensor identities private; the analyst merges the spurious ids to
// NULL and filters them out of aggregates.
//
// This example also demonstrates the Appendix E tuner and the paper's
// counter-intuitive crossover: queries on the *cleaned private* log can be
// more accurate than queries on the *dirty original*.
//
// Run with: go run ./examples/sensor_cleaning
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/estimator"
	"privateclean/internal/relation"
	"privateclean/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Simulated sensor log standing in for the Intel Lab trace.
	r, err := workload.IntelWireless(rng, workload.IntelWirelessConfig{Rows: 50000})
	if err != nil {
		log.Fatal(err)
	}
	provider := core.NewProvider(r)

	// Let the tuner pick the GRR parameters for a 2% count error target.
	view, params, err := provider.ReleaseTuned(rng, 0.02, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned p = %.3f, b = %.3f; released epsilon = %.2f\n\n",
		params.P["sensor_id"], params.B["temp"], view.Epsilon())

	// Analyst: merge spurious ids to NULL, then filter them out.
	analyst := core.NewAnalyst(view)
	valid := workload.ValidSensorIDs(68)
	err = analyst.Clean(cleaning.NullifyInvalid{
		Attr:  "sensor_id",
		Valid: func(v string) bool { return valid[v] },
	})
	if err != nil {
		log.Fatal(err)
	}

	countRes, err := analyst.Query("SELECT count(1) FROM log WHERE sensor_id != NULL")
	if err != nil {
		log.Fatal(err)
	}
	avgRes, err := analyst.Query("SELECT avg(temp) FROM log WHERE sensor_id != NULL")
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: the same cleaning on the original log.
	rClean := r.Clone()
	_ = cleaning.Apply(&cleaning.Context{Rel: rClean}, cleaning.NullifyInvalid{
		Attr:  "sensor_id",
		Valid: func(v string) bool { return valid[v] },
	})
	pred := estimator.NotEq("sensor_id", relation.Null)
	exact := new(estimator.Estimator).Nominal() // a query as-is
	trueCount, _ := exact.Count(rClean, pred)
	trueAvg, _ := exact.Avg(rClean, "temp", pred)

	// The dirty baseline: querying the original log with no cleaning and no
	// privacy still counts failure entries as valid sensors.
	dirtyCount, _ := exact.Count(r, pred)
	dirtyAvg, _ := exact.Avg(r, "temp", pred)

	fmt.Println("healthy log entries:")
	fmt.Printf("  truth                     %10.0f\n", trueCount.Value)
	fmt.Printf("  PrivateClean (cleaned+DP) %10.1f ± %.1f  (%.2f%% error)\n",
		countRes.PrivateClean.Value, countRes.PrivateClean.CI, pctErr(countRes.PrivateClean.Value, trueCount.Value))
	fmt.Printf("  dirty original (no DP)    %10.0f            (%.2f%% error)\n\n",
		dirtyCount.Value, pctErr(dirtyCount.Value, trueCount.Value))

	fmt.Println("mean temperature of healthy entries:")
	fmt.Printf("  truth                     %10.3f\n", trueAvg.Value)
	fmt.Printf("  PrivateClean (cleaned+DP) %10.3f ± %.3f (%.2f%% error)\n",
		avgRes.PrivateClean.Value, avgRes.PrivateClean.CI, pctErr(avgRes.PrivateClean.Value, trueAvg.Value))
	fmt.Printf("  dirty original (no DP)    %10.3f           (%.2f%% error)\n\n",
		dirtyAvg.Value, pctErr(dirtyAvg.Value, trueAvg.Value))

	// The trace carries more environmental statistics; each numeric
	// attribute got its own Laplace noise, and the same channel correction
	// applies.
	humRes, err := analyst.Query("SELECT avg(humidity) FROM log WHERE sensor_id != NULL")
	if err != nil {
		log.Fatal(err)
	}
	trueHum, _ := exact.Avg(rClean, "humidity", pred)
	fmt.Printf("mean humidity of healthy entries: truth %.3f, estimate %s (%.2f%% error)\n",
		trueHum.Value, humRes.PrivateClean, pctErr(humRes.PrivateClean.Value, trueHum.Value))
}

func pctErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want) * 100
}
