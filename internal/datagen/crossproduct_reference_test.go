package datagen

import (
	"bytes"
	"testing"

	"tpcds/internal/dist"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// The row-at-a-time generators the column-wise crossProduct replaced:
// nested loops over the domains, one Append of a []Value per row. They
// are the reference TestCrossProductEqualsReference holds crossProduct
// to.

func refIncomeBand(g *Generator, def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	for i := int64(1); i <= g.rows("income_band"); i++ {
		lower := (i - 1) * 10000
		if i > 1 {
			lower++
		}
		t.Append([]storage.Value{
			storage.Int(i),
			storage.Int(lower),
			storage.Int(i * 10000),
		})
	}
	return t
}

func refCustomerDemographics(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	t.Grow(1_920_800)
	sk := int64(1)
	for _, gender := range dist.Genders {
		for _, ms := range dist.MaritalStatuses {
			for _, edu := range dist.EducationStatuses {
				for pe := 500; pe <= 10000; pe += 500 {
					for _, cr := range dist.CreditRatings {
						for depCount := 0; depCount < 7; depCount++ {
							for depEmp := 0; depEmp < 7; depEmp++ {
								for depCol := 0; depCol < 7; depCol++ {
									t.Append([]storage.Value{
										storage.Int(sk),
										storage.Str(gender),
										storage.Str(ms),
										storage.Str(edu),
										storage.Int(int64(pe)),
										storage.Str(cr),
										storage.Int(int64(depCount)),
										storage.Int(int64(depEmp)),
										storage.Int(int64(depCol)),
									})
									sk++
								}
							}
						}
					}
				}
			}
		}
	}
	return t
}

func refHouseholdDemographics(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	sk := int64(1)
	for ib := int64(1); ib <= 20; ib++ {
		for _, bp := range dist.BuyPotentials {
			for dep := 0; dep < 10; dep++ {
				for veh := 0; veh < 6; veh++ {
					t.Append([]storage.Value{
						storage.Int(sk),
						storage.Int(ib),
						storage.Str(bp),
						storage.Int(int64(dep)),
						storage.Int(int64(veh)),
					})
					sk++
				}
			}
		}
	}
	return t
}

// TestCrossProductEqualsReference: the three cross-product dimensions,
// built a column at a time, write the flat files of the row-at-a-time
// generators and end in the same dictionaries and layouts.
func TestCrossProductEqualsReference(t *testing.T) {
	g := New(testSF, 7)
	defs := schema.ByName()
	for name, ref := range map[string]func(*schema.Table) *storage.Table{
		"income_band":            func(def *schema.Table) *storage.Table { return refIncomeBand(g, def) },
		"customer_demographics":  refCustomerDemographics,
		"household_demographics": refHouseholdDemographics,
	} {
		sameTable(t, name, g.GenerateDimension(name), ref(defs[name]))
	}
}

// TestCrossProductShapes: a column on axis a repeats each value for the
// combinations of the axes after a, and its sequence for those before.
func TestCrossProductShapes(t *testing.T) {
	def := &schema.Table{Name: "x", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "sk", Type: schema.Identifier},
		{Name: "a", Type: schema.Char, Len: 1},
		{Name: "b", Type: schema.Integer},
		{Name: "a2", Type: schema.Integer},
	}}
	tb := crossProduct(def,
		crossCol{surrogateKey, nil},
		crossCol{0, strVals([]string{"p", "q"})},
		crossCol{1, intVals(1, 3, 1)},
		crossCol{0, intVals(10, 20, 10)},
	)
	var got bytes.Buffer
	if err := tb.WriteFlat(&got); err != nil {
		t.Fatal(err)
	}
	want := "1|p|1|10|\n2|p|2|10|\n3|p|3|10|\n4|q|1|20|\n5|q|2|20|\n6|q|3|20|\n"
	if got.String() != want {
		t.Errorf("cross product:\n%s\nwant\n%s", got.String(), want)
	}
	empty := crossProduct(def, crossCol{surrogateKey, nil}, crossCol{0, nil}, crossCol{1, intVals(1, 3, 1)}, crossCol{0, nil})
	if empty.NumRows() != 0 {
		t.Errorf("an empty axis gave %d rows", empty.NumRows())
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("axis lengths differ", func() {
		crossProduct(def, crossCol{surrogateKey, nil}, crossCol{0, strVals([]string{"p"})}, crossCol{1, nil}, crossCol{0, intVals(1, 2, 1)})
	})
	mustPanic("too few columns", func() { crossProduct(def, crossCol{0, intVals(1, 2, 1)}) })
}
