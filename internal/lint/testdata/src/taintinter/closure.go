package taintinterfix

import (
	"math/rand"
	"sort"
	"strings"
)

// draw's closure reads the global math/rand, and draw returns what the
// closure returns: a function literal carries the taint its body can
// return, so the call through pickN is tainted and draw's summary
// records TaintsReturn.
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
