package core

import "testing"

func TestChunkRange(t *testing.T) {
	cases := []struct {
		name                   string
		chunk, chunkSize, rows int
		wantLo, wantHi         int
	}{
		{"first full chunk", 0, 100, 250, 0, 100},
		{"middle full chunk", 1, 100, 250, 100, 200},
		{"last short chunk", 2, 100, 250, 200, 250},
		{"exact multiple last chunk", 1, 100, 200, 100, 200},
		{"chunk size equals rows", 0, 100, 100, 0, 100},
		{"chunk size exceeds rows", 0, 1000, 7, 0, 7},
		{"single-row chunks", 3, 1, 5, 3, 4},
		{"zero rows", 0, 100, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := chunkRange(tc.chunk, tc.chunkSize, tc.rows)
			if lo != tc.wantLo || hi != tc.wantHi {
				t.Fatalf("chunkRange(%d, %d, %d) = [%d, %d), want [%d, %d)",
					tc.chunk, tc.chunkSize, tc.rows, lo, hi, tc.wantLo, tc.wantHi)
			}
		})
	}
}

// Every row must be covered exactly once by the chunk sequence — the
// invariant the chunk contract (window k covers rows [k·size, (k+1)·size))
// and the resume skip both rely on.
func TestChunkRangePartition(t *testing.T) {
	for _, rows := range []int{0, 1, 5, 99, 100, 101, 250} {
		for _, size := range []int{1, 3, 100, 1000} {
			next := 0
			for chunk := 0; ; chunk++ {
				lo, hi := chunkRange(chunk, size, rows)
				if lo >= rows {
					break
				}
				if lo != next {
					t.Fatalf("rows=%d size=%d chunk %d starts at %d, want %d", rows, size, chunk, lo, next)
				}
				if hi <= lo || hi > rows {
					t.Fatalf("rows=%d size=%d chunk %d has bad range [%d, %d)", rows, size, chunk, lo, hi)
				}
				next = hi
			}
			if next != rows {
				t.Fatalf("rows=%d size=%d covered only %d rows", rows, size, next)
			}
		}
	}
}
