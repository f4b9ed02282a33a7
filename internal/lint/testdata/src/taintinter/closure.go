package taintinterfix

import (
	"math/rand"
	"sort"
	"strings"
)

// draw's closure reads the global math/rand: the closure is a function
// of its own, and the permutation's first escape is the sort.Strings
// call inside it, where taintdet reports the read. Neither draw, which
// returns what the closure returns, nor Substitute has a finding.
func draw(vocab []string, n int) string {
	pickN := func(n int) string {
		perm := rand.Perm(len(vocab))
		items := make([]string, n)
		for i := range items {
			items[i] = vocab[perm[i]]
		}
		sort.Strings(items)
		return strings.Join(items, ", ")
	}
	return pickN(n)
}

// Substitute is exported: the unseeded permutation escapes through it.
func Substitute(vocab []string) string {
	return draw(vocab, 2)
}
