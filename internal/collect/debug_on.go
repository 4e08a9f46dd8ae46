//go:build pcdebug

package collect

import "fmt"

// debugCheckRetained panics unless batches are exactly what the sealed
// segment at path decodes to. Enabled by `go test -tags pcdebug`: every fold
// from retained columns then re-reads its segment, so a retained list that
// drifts from the WAL fails at the fold instead of silently diverging from
// what a restart would recover.
func debugCheckRetained(path string, bs *batchSchema, batches []*batchCols) {
	if err := checkRetained(path, bs, batches); err != nil {
		panic(err)
	}
}

// checkRetained decodes the sealed segment at path and reports the first
// record that differs from batches, the list a fold from memory would fold
// in its place: in count, order, ID, or any column.
func checkRetained(path string, bs *batchSchema, batches []*batchCols) error {
	payloads, err := ReadSegment(path)
	if err != nil {
		return err
	}
	if len(payloads) != len(batches) {
		return fmt.Errorf("collect: %s holds %d records, %d retained", path, len(payloads), len(batches))
	}
	d := batchDecoder{bs: bs}
	var want batchCols
	for i, payload := range payloads {
		if _, err := d.decode(&want, payload); err != nil {
			return fmt.Errorf("collect: %s record %d: %w", path, i, err)
		}
		// %#v prints every field, columns included; absent numeric cells
		// are NaN on both sides and print alike.
		if fmt.Sprintf("%#v", want) != fmt.Sprintf("%#v", *batches[i]) {
			return fmt.Errorf("collect: %s record %d: retained batch %q differs from the record", path, i, batches[i].ID)
		}
	}
	return nil
}
