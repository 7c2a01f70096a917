package matmul

import (
	"strconv"
	"strings"
)

// names is one problem's table of node-variable or event names
// "prefix:i", "prefix:i:j" or "prefix:i:j:k", for every index below nb.
// Virtual coordinates are part of each name because several virtual
// nodes share one physical PE. The table is built once per problem, as
// substrings of a single string (two allocations), so a carrier looking
// a name up on every step allocates nothing.
type names struct {
	nb  int
	tab []string
}

// newNames builds the names of prefix over dims (at most 3) indices
// below nb, the last index varying fastest.
func newNames(prefix string, nb, dims int) names {
	count := 1
	for d := 0; d < dims; d++ {
		count *= nb
	}
	t := names{nb: nb, tab: make([]string, count)}
	var digits [20]byte
	widest := len(strconv.AppendInt(digits[:0], int64(nb-1), 10))
	var sb strings.Builder
	sb.Grow(count * (len(prefix) + dims*(1+widest)))
	var idx [3]int
	for n := range t.tab {
		start := sb.Len()
		sb.WriteString(prefix)
		for _, v := range idx[:dims] {
			sb.WriteByte(':')
			sb.Write(strconv.AppendInt(digits[:0], int64(v), 10))
		}
		// Bytes already written never change, so each name can share
		// the builder's one buffer.
		t.tab[n] = sb.String()[start:]
		for d := dims - 1; d >= 0; d-- {
			if idx[d]++; idx[d] < nb {
				break
			}
			idx[d] = 0
		}
	}
	return t
}

// at returns "prefix:i" of a one-index table.
func (t names) at(i int) string { return t.tab[i] }

// at2 returns "prefix:i:j" of a two-index table.
func (t names) at2(i, j int) string { return t.tab[i*t.nb+j] }

// at3 returns "prefix:i:j:k" of a three-index table.
func (t names) at3(i, j, k int) string { return t.tab[(i*t.nb+j)*t.nb+k] }
