package storage

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpcds/internal/schema"
)

// TestAppendFormattersEqualString: the writer's append-formatters
// produce Value.String() / FormatDate to the byte — the integer-cents
// rule against the format-and-parse-back rule, the digit writer against
// Sprintf, the one-pass escaper against the reference one.
func TestAppendFormattersEqualString(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.005, 2.675, 0.005, 0.015, -0.005, 0.001, -0.001,
		0.29, 0.57, 1.15, 4.35, 8.2, 9.95, 16.08, 33.33, 64.1, 99.99, 100, 1e2, 1234.5, 123.456789,
		1e12, 1e13 - 0.01, 1e13, 1e13 + 0.01, 99999999999.99, 4503599627370496, 9007199254740993,
		1e15, 1e21, 1e22, 1e300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), float64(math.MinInt64), float64(math.MaxInt64),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		switch i % 4 {
		case 0: // money: whole cents
			floats = append(floats, float64(rng.Int63n(2_000_000_000)-1_000_000_000)/100)
		case 1: // products of money and rates carry more digits
			floats = append(floats, float64(rng.Int63n(1_000_000))/100*float64(rng.Int63n(100))/100)
		case 2: // any bit pattern
			floats = append(floats, math.Float64frombits(rng.Uint64()))
		default: // neighbours of a two-decimal number
			f := float64(rng.Int63n(1_000_000_000)) / 100
			floats = append(floats, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
		}
	}
	for _, f := range floats {
		if got, want := string(appendFlatFloat([]byte("x|"), f)), "x|"+Float(f).String(); got != want {
			t.Fatalf("appendFlatFloat(%v [%#x]) = %q, want %q", f, math.Float64bits(f), got, want)
		}
	}

	days := []int64{0, 1, 58, 59, 60, 365, 36524, 73048, DateDimRows, -1, -693961, -694000, -1_000_000, 2958463, 2958464, 5_000_000}
	for i := 0; i < 100_000; i++ {
		days = append(days, rng.Int63n(4_000_000)-800_000)
	}
	for _, d := range days {
		if got, want := string(appendDate([]byte("x|"), d)), "x|"+FormatDate(d); got != want {
			t.Fatalf("appendDate(%d) = %q, want %q", d, got, want)
		}
	}

	alphabet := []byte("ab|\\\n\re ")
	strs := []string{"", "e", `\e`, "|", `\`, "\n", "\r", "plain", "trailing|", `\\`, "a\r\n|\\"}
	for i := 0; i < 20_000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want := `x|\e`
		if s != "" {
			want = "x|" + refEscapeFlat(s)
		}
		if got := string(appendFlatString([]byte("x|"), s)); got != want {
			t.Fatalf("appendFlatString(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestDictionaryRendersAsPlain: a dictionary-coded string column, whose
// cells WriteFlat and DumpDir copy from its dictionary rendered once,
// writes the bytes the same column written plain does, for the empty
// string, the delimiter, a backslash, a line feed, a carriage return
// and NULL.
func TestDictionaryRendersAsPlain(t *testing.T) {
	def := &schema.Table{Name: "strs", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "s", Type: schema.Varchar, Nullable: true},
	}}
	vals := []Value{Str(""), Str("a|b"), Str(`x\y`), Str("\n"), Str("\r"), Null, Str("ok")}
	coded, plain := NewTable(def), NewTable(def)
	for r := 0; r < 3*len(vals); r++ {
		coded.Append([]Value{vals[r%len(vals)]})
		plain.Append([]Value{vals[r%len(vals)]})
	}
	plain.cols[0].decode()
	if coded.cols[0].dict == nil || plain.cols[0].dict != nil {
		t.Fatal("want one dictionary-coded column and one plain")
	}
	flat := func(tb *Table) string {
		var b bytes.Buffer
		if err := tb.WriteFlat(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := strings.Repeat(`\e|`+"\n"+`a\|b|`+"\n"+`x\\y|`+"\n"+`\n|`+"\n"+`\r|`+"\n"+"|\n"+"ok|\n", 3)
	if got := flat(plain); got != want {
		t.Fatalf("plain column writes %q, want %q", got, want)
	}
	if got := flat(coded); got != want {
		t.Fatalf("dictionary column writes %q, plain %q", got, want)
	}
	db := NewDB()
	db.Put(coded)
	dir := t.TempDir()
	if err := db.DumpDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "strs.dat")); err != nil || string(got) != want {
		t.Fatalf("DumpDir of the dictionary column writes %q (%v), plain %q", got, err, want)
	}
}
