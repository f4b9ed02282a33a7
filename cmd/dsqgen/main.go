// Command dsqgen instantiates the 99 query templates with
// comparability-preserving substitutions — the equivalent of the
// official kit's dsqgen (paper §4.1).
//
// Usage:
//
//	dsqgen -list                 # enumerate templates with class/type
//	dsqgen -query 52 -stream 0   # print one instantiated query
//	dsqgen -all -stream 3        # print the whole stream in its order
package main

import (
	"flag"
	"fmt"
	"os"

	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

func main() {
	list := flag.Bool("list", false, "list the templates")
	queryID := flag.Int("query", 0, "template id to instantiate (1-99)")
	all := flag.Bool("all", false, "print every query of the stream in its permuted order")
	stream := flag.Int("stream", 0, "query stream number")
	seed := flag.Uint64("seed", 1, "benchmark seed")
	flag.Parse()
	if *stream < 0 {
		fmt.Fprintln(os.Stderr, "dsqgen: -stream must not be negative")
		os.Exit(2)
	}

	switch {
	case *list:
		fmt.Printf("%-4s %-36s %-10s %-14s %s\n", "ID", "NAME", "CLASS", "TYPE", "SEQ")
		for _, t := range queries.All() {
			seq := ""
			if t.Sequence > 0 {
				seq = fmt.Sprintf("%d", t.Sequence)
			}
			fmt.Printf("%-4d %-36s %-10s %-14s %s\n",
				t.ID, t.Name, qgen.ClassOf(t), t.Type, seq)
		}
	case *queryID > 0:
		t, err := queries.ByID(*queryID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsqgen: %v\n", err)
			os.Exit(1)
		}
		text, err := qgen.Instantiate(t, qgen.StreamSeed(*seed, *stream, t.ID))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsqgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- query %d (%s), class %s, stream %d\n%s\n", t.ID, t.Name, qgen.ClassOf(t), *stream, text)
	case *all:
		tpls := queries.All()
		order := qgen.Permutation(*seed, *stream, len(tpls))
		for _, idx := range order {
			t := tpls[idx]
			text, err := qgen.Instantiate(t, qgen.StreamSeed(*seed, *stream, t.ID))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsqgen: query %d: %v\n", t.ID, err)
				os.Exit(1)
			}
			fmt.Printf("-- query %d (%s)\n%s\n;\n", t.ID, t.Name, text)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
