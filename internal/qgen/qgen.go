// Package qgen implements the TPC-DS query generator (the paper's
// dsqgen, §4.1): template-based queries with pseudo-random substitutions
// that preserve comparability. A template is a SQL text with typed
// placeholder tokens; the generator draws each distinct token once per
// instantiation and substitutes a value drawn from the token's domain.
//
// Comparability (§3.2) is guaranteed by construction: date tokens are
// bound to one comparability zone per template, so every substitution
// selects a month (or date range) whose qualifying-row likelihood is
// identical; categorical tokens draw from uniform domains. The paper's
// four rules — stable qualifying-row counts, stable join-key
// distributions, stable group-by and order-by distributions — follow.
//
// Token syntax: `[NAME]` where NAME is one of the registered kinds, with
// an optional `.k` suffix distinguishing independent draws of the same
// kind (e.g. `[YEAR.1]`, `[YEAR.2]`). Every occurrence of the same full
// token receives the same value within one instantiation.
package qgen

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"tpcds/internal/dist"
	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Class is the workload class of a query (§4.1). Ad-hoc vs reporting is
// derived from the channels the query references (§2.2: catalog channel
// = reporting part; store and web = ad-hoc part; both = hybrid).
type Class int

const (
	// AdHoc queries touch only the ad-hoc part (store/web channels).
	AdHoc Class = iota
	// Reporting queries touch only the reporting part (catalog channel).
	Reporting
	// Hybrid queries reference both parts.
	Hybrid
)

func (c Class) String() string {
	switch c {
	case AdHoc:
		return "ad-hoc"
	case Reporting:
		return "reporting"
	default:
		return "hybrid"
	}
}

// Type is the paper's functional query taxonomy: ad-hoc/reporting is a
// schema-partition property (Class); on top of that, queries are plain,
// iterative OLAP (drill sequences) or data mining (large extracts).
type Type int

const (
	// Standard is a regular analytic query.
	Standard Type = iota
	// IterativeOLAP marks one step of a drill-down/up sequence of
	// syntactically independent but logically affiliated queries.
	IterativeOLAP
	// DataMining marks extraction queries returning large outputs.
	DataMining
)

func (t Type) String() string {
	switch t {
	case IterativeOLAP:
		return "iterative-olap"
	case DataMining:
		return "data-mining"
	default:
		return "standard"
	}
}

// Template is one of the 99 query templates.
type Template struct {
	ID   int
	Name string
	Type Type
	// Sequence groups iterative OLAP steps: templates sharing a positive
	// Sequence number form one logical drill session.
	Sequence int
	SQL      string
}

var tokenRe = regexp.MustCompile(`\[([A-Z][A-Z0-9_]*)(\.[0-9]+)?\]`)

// Token is one substitution placeholder occurrence in a template's SQL.
type Token struct {
	Full  string // full token text, e.g. "[YEAR.2]"
	Kind  string // registered kind, e.g. "YEAR"
	Start int    // byte offset of '[' in the template SQL
	End   int    // byte offset just past ']'
}

// Tokens returns every placeholder occurrence in the SQL text in order.
// The static template checker uses this to validate that each kind is
// registered and to substitute representative values position by
// position.
func Tokens(sqlText string) []Token {
	var out []Token
	for _, m := range tokenRe.FindAllStringSubmatchIndex(sqlText, -1) {
		out = append(out, Token{
			Full:  sqlText[m[0]:m[1]],
			Kind:  sqlText[m[2]:m[3]],
			Start: m[0],
			End:   m[1],
		})
	}
	return out
}

// Representative returns a fixed, deterministic substitution value for
// the token kind, drawn from the same generator as Instantiate so the
// two can never drift apart. It errors on unregistered kinds, which is
// how the template checker discovers undefined parameters.
func Representative(kind string) (string, error) {
	return drawToken(kind, rng.NewStream(rng.ColumnSeed(0, "lint", "representative")))
}

// Instantiate substitutes all tokens of the template using the given
// stream. The same full token (kind + suffix) always receives one value
// per call; distinct suffixes draw independently.
func Instantiate(t Template, s *rng.Stream) (string, error) {
	matches := tokenRe.FindAllString(t.SQL, -1)
	// Deterministic order: first occurrence order, deduplicated.
	var order []string
	seen := map[string]bool{}
	for _, m := range matches {
		if !seen[m] {
			seen[m] = true
			order = append(order, m)
		}
	}
	values := map[string]string{}
	for _, tok := range order {
		kind := tokenRe.FindStringSubmatch(tok)[1]
		v, err := drawToken(kind, s)
		if err != nil {
			return "", fmt.Errorf("template %d (%s): %w", t.ID, tok, err)
		}
		values[tok] = v
	}
	out := t.SQL
	for _, tok := range order {
		out = strings.ReplaceAll(out, tok, values[tok])
	}
	return out, nil
}

// Sales window constants mirror the data generator.
const (
	firstYear = 1998
	lastYear  = 2002
)

// drawToken produces the substitution value for one token kind.
func drawToken(kind string, s *rng.Stream) (string, error) {
	quoted := func(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }
	pickN := func(vocab []string, n int) string {
		if n > len(vocab) {
			n = len(vocab)
		}
		perm := make([]int, len(vocab))
		s.Perm(perm)
		items := make([]string, n)
		for i := 0; i < n; i++ {
			items[i] = quoted(vocab[perm[i]])
		}
		sort.Strings(items)
		return strings.Join(items, ", ")
	}
	year := func() int { return firstYear + s.Intn(lastYear-firstYear+1) }
	monthInZone := func(z dist.Zone) int { return dist.PickMonthInZone(s, z) }
	dateInZone := func(z dist.Zone) (int, int, int) {
		y := year()
		m := monthInZone(z)
		d := 1 + s.Intn(dist.DaysInMonth(m))
		return y, m, d
	}
	switch kind {
	case "YEAR":
		return fmt.Sprintf("%d", year()), nil
	case "MONTH_Z1":
		return fmt.Sprintf("%d", monthInZone(dist.ZoneLow)), nil
	case "MONTH_Z2":
		return fmt.Sprintf("%d", monthInZone(dist.ZoneMedium)), nil
	case "MONTH_Z3":
		return fmt.Sprintf("%d", monthInZone(dist.ZoneHigh)), nil
	case "DATE_Z1", "DATE_Z2", "DATE_Z3":
		z := dist.ZoneLow
		if kind == "DATE_Z2" {
			z = dist.ZoneMedium
		} else if kind == "DATE_Z3" {
			z = dist.ZoneHigh
		}
		y, m, d := dateInZone(z)
		return fmt.Sprintf("'%04d-%02d-%02d'", y, m, d), nil
	case "MONTHSEQ":
		// d_month_seq of a zoned month: the calendar dimension numbers
		// months densely from January 1900 = 1.
		y := year()
		m := monthInZone(dist.ZoneLow)
		return fmt.Sprintf("%d", (y-1900)*12+m), nil
	case "DATESK_Z3":
		y, m, d := dateInZone(dist.ZoneHigh)
		return fmt.Sprintf("%d", storage.DateSK(storage.DaysFromYMD(y, m, d))), nil
	case "DAYS":
		return fmt.Sprintf("%d", 14+s.Intn(46)), nil // 14..59 day windows
	case "CATEGORY":
		return quoted(dist.Categories[s.Intn(len(dist.Categories))]), nil
	case "CATEGORY3":
		return pickN(dist.Categories, 3), nil
	case "CLASS":
		cat := dist.Categories[s.Intn(len(dist.Categories))]
		classes := dist.ClassesByCategory[cat]
		return quoted(classes[s.Intn(len(classes))]), nil
	case "STATE":
		return quoted(dist.States[s.Intn(len(dist.States))]), nil
	case "STATE5":
		return pickN(dist.States, 5), nil
	case "COUNTY":
		return quoted(dist.Counties[s.Intn(len(dist.Counties))]), nil
	case "CITY":
		return quoted(dist.Cities[s.Intn(len(dist.Cities))]), nil
	case "COLOR2":
		return pickN(dist.Colors, 2), nil
	case "GENDER":
		return quoted(dist.Genders[s.Intn(len(dist.Genders))]), nil
	case "MARITAL":
		return quoted(dist.MaritalStatuses[s.Intn(len(dist.MaritalStatuses))]), nil
	case "EDUCATION":
		return quoted(dist.EducationStatuses[s.Intn(len(dist.EducationStatuses))]), nil
	case "BUYPOT":
		return quoted(dist.BuyPotentials[s.Intn(len(dist.BuyPotentials))]), nil
	case "MANAGER":
		return fmt.Sprintf("%d", 1+s.Intn(100)), nil
	case "MANAGER_LO":
		return fmt.Sprintf("%d", 1+s.Intn(80)), nil
	case "IB":
		return fmt.Sprintf("%d", 1+s.Intn(20)), nil
	case "PRICE":
		return fmt.Sprintf("%d", 10+s.Intn(81)), nil
	case "QTY":
		return fmt.Sprintf("%d", 20+s.Intn(61)), nil
	case "HOUR":
		return fmt.Sprintf("%d", 8+s.Intn(12)), nil
	case "DEPCNT":
		return fmt.Sprintf("%d", s.Intn(7)), nil
	case "VEHCNT":
		return fmt.Sprintf("%d", s.Intn(6)), nil
	case "AGG":
		// Aggregate exchange (§4.1: "more complex text substitutions ...
		// such as exchanging aggregations").
		aggs := []string{"SUM", "AVG", "MIN", "MAX"}
		return aggs[s.Intn(len(aggs))], nil
	case "SALUTATION":
		return quoted(dist.Salutations[s.Intn(len(dist.Salutations))]), nil
	default:
		return "", fmt.Errorf("unknown token kind %q", kind)
	}
}

// channelOf maps schema channels for class derivation.
var tableChannel = func() map[string]schema.Channel {
	m := map[string]schema.Channel{}
	for _, t := range schema.Tables() {
		m[t.Name] = t.Channel
	}
	return m
}()

var tableNameRe = regexp.MustCompile(`[a-z_][a-z_0-9]*`)

// ClassOf derives the workload class of a template from the channel
// tables its SQL references (§2.2). Shared dimensions and the inventory
// fact do not affect the classification; a query touching only shared
// tables defaults to ad-hoc (no auxiliary structures may help it).
func ClassOf(t Template) Class {
	adhoc, reporting := false, false
	for _, word := range tableNameRe.FindAllString(strings.ToLower(t.SQL), -1) {
		ch, ok := tableChannel[word]
		if !ok {
			continue
		}
		switch ch {
		case schema.Store, schema.Web:
			adhoc = true
		case schema.Catalog:
			reporting = true
		}
	}
	switch {
	case adhoc && reporting:
		return Hybrid
	case reporting:
		return Reporting
	default:
		return AdHoc
	}
}

// StreamSeed derives the substitution stream for (benchmark seed, stream
// number, query id): every stream substitutes every template differently
// but deterministically.
func StreamSeed(benchSeed uint64, stream, queryID int) *rng.Stream {
	return rng.NewStream(rng.ColumnSeed(benchSeed, fmt.Sprintf("stream-%d", stream), fmt.Sprintf("query-%d", queryID)))
}

// Permutation returns the query execution order for a stream (§5.2:
// each stream runs all queries in a stream-specific order).
func Permutation(benchSeed uint64, stream, n int) []int {
	s := rng.NewStream(rng.ColumnSeed(benchSeed, fmt.Sprintf("stream-%d", stream), "permutation"))
	out := make([]int, n)
	s.Perm(out)
	return out
}

// SessionPermutation returns a stream's execution order over the given
// templates with iterative OLAP sessions kept coherent: templates
// sharing a Sequence number appear in ascending ID order (a drill-down
// must visit category before class before brand — the queries are
// "syntactically independent, but logically affiliated", §4.1). The
// positions the sequence's members occupy are still randomized.
func SessionPermutation(benchSeed uint64, stream int, tpls []Template) []int {
	order := Permutation(benchSeed, stream, len(tpls))
	// Collect, per sequence, the positions its members landed on, then
	// rewrite those positions so the members appear in ID order.
	posOf := map[int][]int{} // sequence -> positions in order
	for pos, idx := range order {
		if tpls[idx].Type == IterativeOLAP && tpls[idx].Sequence > 0 {
			posOf[tpls[idx].Sequence] = append(posOf[tpls[idx].Sequence], pos)
		}
	}
	for _, positions := range posOf {
		// Members at these positions, sorted by template ID.
		members := make([]int, len(positions))
		for i, pos := range positions {
			members[i] = order[pos]
		}
		sort.Slice(members, func(a, b int) bool { return tpls[members[a]].ID < tpls[members[b]].ID })
		sort.Ints(positions)
		for i, pos := range positions {
			order[pos] = members[i]
		}
	}
	return order
}
