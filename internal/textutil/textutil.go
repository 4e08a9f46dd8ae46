// Package textutil provides string-similarity utilities used by the
// matching-dependency repair cleaner (Section 8.3.4 of the paper resolves a
// matching dependency on ca_country with an edit-distance similarity metric).
package textutil

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions, and substitutions required to turn a
// into b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinBounded returns the edit distance between a and b when it is at
// most max, and any value greater than max otherwise (callers must compare
// with <= max, not ==). It evaluates only the diagonal band of the DP matrix
// that can hold values <= max — width 2*max+1 — and exits as soon as a whole
// row exceeds the bound, so the cost is O(max * min(len a, len b)) instead
// of O(len a * len b). max < 0 is treated as 0. When both strings are at
// most 32 runes, the call allocates nothing: the DP rows live on the stack.
func LevenshteinBounded(a, b string, max int) int {
	if max < 0 {
		max = 0
	}
	ra, rb := []rune(a), []rune(b)
	if len(rb) > len(ra) {
		ra, rb = rb, ra // the distance is symmetric; the rows span the shorter
	}
	// Cells outside the band would need more than max insertions/deletions;
	// the length difference alone already decides those cases.
	diff := len(ra) - len(rb)
	if diff < 0 {
		diff = -diff
	}
	if diff > max {
		return max + 1
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	const inf = int(^uint(0) >> 1)
	var rows [2][33]int
	prev, cur := rows[0][:], rows[1][:]
	if len(rb) >= len(prev) {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
	prev, cur = prev[:len(rb)+1], cur[:len(rb)+1]
	for j := range prev {
		if j <= max {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		lo := i - max
		if lo < 1 {
			lo = 1
		}
		hi := i + max
		if hi > len(rb) {
			hi = len(rb)
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
		}
		best := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			up, left, diag := prev[j], cur[j-1], prev[j-1]
			v := diag + cost
			if up != inf && up+1 < v {
				v = up + 1
			}
			if left != inf && left+1 < v {
				v = left + 1
			}
			cur[j] = v
			if v < best {
				best = v
			}
		}
		if hi < len(rb) {
			cur[hi+1] = inf
		}
		if best > max {
			return max + 1
		}
		prev, cur = cur, prev
	}
	if prev[len(rb)] > max {
		return max + 1
	}
	return prev[len(rb)]
}

// Similar reports whether the edit distance between a and b is at most d.
// It short-circuits on the length difference (which lower-bounds the
// distance) and otherwise runs the banded DP, so a negative answer costs
// O(d * min(len a, len b)) rather than a full distance computation.
func Similar(a, b string, d int) bool {
	if d < 0 {
		return false
	}
	return LevenshteinBounded(a, b, d) <= d
}
