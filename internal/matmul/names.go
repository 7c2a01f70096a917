package matmul

import (
	"strconv"
	"strings"

	"repro/internal/navp"
)

// table holds one value per index tuple (i), (i,j) or (i,j,k) below nb,
// the last index varying fastest: the names "prefix:i", "prefix:i:j" or
// "prefix:i:j:k" of one problem's node variables or events, or the
// handles minted for them. Virtual coordinates are part of each name
// because several virtual nodes share one physical PE.
type table[T any] struct {
	nb  int
	tab []T
}

// names is a table of names, built once per problem as substrings of a
// single string (two allocations).
type names = table[string]

// newNames builds the names of prefix over dims (at most 3) indices
// below nb.
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

// mint mints a handle for every name of t with fn (System.Event or
// System.Var), so a carrier on its hot path indexes a slice and hashes
// nothing.
func mint[H any](t names, fn func(string) H) table[H] {
	h := table[H]{nb: t.nb, tab: make([]H, len(t.tab))}
	for i, name := range t.tab {
		h.tab[i] = fn(name)
	}
	return h
}

// events mints the events "prefix:..." of dims indices below nb.
func events(sys *navp.System, prefix string, nb, dims int) table[navp.Event] {
	return mint(newNames(prefix, nb, dims), sys.Event)
}

// vars mints the node variables "prefix:..." of dims indices below nb.
func vars(sys *navp.System, prefix string, nb, dims int) table[navp.Var] {
	return mint(newNames(prefix, nb, dims), sys.Var)
}

// at returns entry (i) of a one-index table.
func (t table[T]) at(i int) T { return t.tab[i] }

// at2 returns entry (i,j) of a two-index table.
func (t table[T]) at2(i, j int) T { return t.tab[i*t.nb+j] }

// at3 returns entry (i,j,k) of a three-index table.
func (t table[T]) at3(i, j, k int) T { return t.tab[(i*t.nb+j)*t.nb+k] }
