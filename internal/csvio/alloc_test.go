package csvio

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/workload"
)

// maxLoadBytes bounds the bytes one in-memory load of the 20k-row view
// allocates. The two scans measure 1.3 MB; buffering the kept records before
// decoding them took 4.4 MB.
const maxLoadBytes = 2 << 20

// TestLoadAllocBudget loads a privatized synthetic view, the shape
// BenchmarkLoadCSV reads, and bounds the bytes the load allocates: the least
// of a few loads, each measured alone.
func TestLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	r, err := workload.Synthetic(rand.New(rand.NewSource(1)), workload.SyntheticConfig{S: 20000})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := privacy.Privatize(rand.New(rand.NewSource(17)), r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "view.csv")
	if err := WriteFile(path, view); err != nil {
		t.Fatal(err)
	}
	opts := Options{ForceKinds: map[string]relation.Kind{"category": relation.Discrete}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	load := uint64(1 << 62)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := ReadFileWithReport(path, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		load = min(load, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("load: %d bytes", load)
	if load > maxLoadBytes {
		t.Errorf("load: %d bytes, budget %d", load, maxLoadBytes)
	}
}
