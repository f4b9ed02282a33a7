package datagen

import (
	"fmt"

	"tpcds/internal/dist"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

var wordsVocab = dist.Words

// genDateDim builds the static calendar dimension: one row per day from
// 1900-01-01 through 2099-12-31 (73049 rows), surrogate key dense in day
// order so DateSK arithmetic works.
func (g *Generator) genDateDim(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	t.Grow(storage.DateDimRows)
	monthSeq, weekSeq, quarterSeq := 0, 1, 0
	prevYear, prevMonth := 0, 0
	for day := int64(0); day < storage.DateDimRows; day++ {
		y, m, d := storage.YMDFromDays(day)
		if y != prevYear || m != prevMonth {
			monthSeq++
			prevYear, prevMonth = y, m
		}
		if storage.Weekday(day) == 0 && day != 0 {
			weekSeq++
		}
		qoy := (m-1)/3 + 1
		quarterSeq = (y-1900)*4 + qoy
		dow := storage.Weekday(day)
		weekend := "N"
		if dow == 0 || dow == 6 {
			weekend = "Y"
		}
		holiday := "N"
		if (m == 12 && d == 25) || (m == 1 && d == 1) || (m == 7 && d == 4) || (m == 11 && d >= 22 && d <= 28 && dow == 4) {
			holiday = "Y"
		}
		firstDOM := storage.DaysFromYMD(y, m, 1)
		lastDOM := firstDOM + int64(daysInMonthOf(y, m)) - 1
		t.Append([]storage.Value{
			storage.Int(storage.DateSK(day)),          // d_date_sk
			storage.Str(bkey(storage.DateSK(day))),    // d_date_id
			storage.DateV(day),                        // d_date
			storage.Int(int64(monthSeq)),              // d_month_seq
			storage.Int(int64(weekSeq)),               // d_week_seq
			storage.Int(int64(quarterSeq)),            // d_quarter_seq
			storage.Int(int64(y)),                     // d_year
			storage.Int(int64(dow)),                   // d_dow
			storage.Int(int64(m)),                     // d_moy
			storage.Int(int64(d)),                     // d_dom
			storage.Int(int64(qoy)),                   // d_qoy
			storage.Int(int64(y)),                     // d_fy_year
			storage.Int(int64(quarterSeq)),            // d_fy_quarter_seq
			storage.Int(int64(weekSeq)),               // d_fy_week_seq
			storage.Str(storage.DayName(day)),         // d_day_name
			storage.Str(fmt.Sprintf("%dQ%d", y, qoy)), // d_quarter_name
			storage.Str(holiday),                      // d_holiday
			storage.Str(weekend),                      // d_weekend
			storage.Str("N"),                          // d_following_holiday
			storage.Int(storage.DateSK(firstDOM)),     // d_first_dom
			storage.Int(storage.DateSK(lastDOM)),      // d_last_dom
			storage.Int(storage.DateSK(day) - 365),    // d_same_day_ly
			storage.Int(storage.DateSK(day) - 91),     // d_same_day_lq
			storage.Str("N"), storage.Str("N"),        // d_current_day, d_current_week
			storage.Str("N"), storage.Str("N"), // d_current_month, d_current_quarter
			storage.Str("N"), // d_current_year
		})
	}
	return t
}

func daysInMonthOf(year, month int) int {
	days := [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	if month == 2 && storage.IsLeapYear(year) {
		return 29
	}
	return days[month-1]
}

// genTimeDim builds the static time-of-day dimension: one row per second
// of a day (86400 rows).
func (g *Generator) genTimeDim(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	t.Grow(86400)
	for sec := int64(0); sec < 86400; sec++ {
		h := sec / 3600
		m := (sec % 3600) / 60
		s := sec % 60
		amPM := "AM"
		if h >= 12 {
			amPM = "PM"
		}
		shift := "first"
		switch {
		case h >= 8 && h < 16:
			shift = "second"
		case h >= 16:
			shift = "third"
		}
		meal := ""
		switch {
		case h >= 6 && h < 9:
			meal = "breakfast"
		case h >= 11 && h < 14:
			meal = "lunch"
		case h >= 17 && h < 21:
			meal = "dinner"
		}
		mealVal := storage.Null
		if meal != "" {
			mealVal = storage.Str(meal)
		}
		t.Append([]storage.Value{
			storage.Int(sec + 1),       // t_time_sk
			storage.Str(bkey(sec + 1)), // t_time_id
			storage.Int(sec),           // t_time
			storage.Int(h),             // t_hour
			storage.Int(m),             // t_minute
			storage.Int(s),             // t_second
			storage.Str(amPM),          // t_am_pm
			storage.Str(shift),         // t_shift
			storage.Str(shift),         // t_sub_shift
			mealVal,                    // t_meal_time
		})
	}
	return t
}

// genIncomeBand builds the 20 income bands of 10,000 each.
func (g *Generator) genIncomeBand(def *schema.Table) *storage.Table {
	n := g.rows("income_band")
	var sk, lower, upper []storage.Value
	for i := int64(1); i <= n; i++ {
		lo := (i - 1) * 10000
		if i > 1 {
			lo++
		}
		sk, lower, upper = append(sk, storage.Int(i)), append(lower, storage.Int(lo)), append(upper, storage.Int(i*10000))
	}
	return crossProduct(def, crossCol{0, sk}, crossCol{0, lower}, crossCol{0, upper})
}

// genCustomerDemographics builds the full demographic cross product
// (1,920,800 rows = 2 genders x 5 marital x 7 education x 20 purchase
// estimates x 4 credit ratings x 7^3 dependent counts).
func (g *Generator) genCustomerDemographics(def *schema.Table) *storage.Table {
	return crossProduct(def,
		crossCol{surrogateKey, nil},
		crossCol{0, strVals(dist.Genders)},
		crossCol{1, strVals(dist.MaritalStatuses)},
		crossCol{2, strVals(dist.EducationStatuses)},
		crossCol{3, intVals(500, 10000, 500)},
		crossCol{4, strVals(dist.CreditRatings)},
		crossCol{5, intVals(0, 6, 1)},
		crossCol{6, intVals(0, 6, 1)},
		crossCol{7, intVals(0, 6, 1)},
	)
}

// genHouseholdDemographics builds the 7200-row household cross product
// (20 income bands x 6 buy potentials x 10 dep counts x 6 vehicles).
func (g *Generator) genHouseholdDemographics(def *schema.Table) *storage.Table {
	return crossProduct(def,
		crossCol{surrogateKey, nil},
		crossCol{0, intVals(1, 20, 1)},
		crossCol{1, strVals(dist.BuyPotentials)},
		crossCol{2, intVals(0, 9, 1)},
		crossCol{3, intVals(0, 5, 1)},
	)
}

// surrogateKey is the axis of a cross-product column that numbers the
// rows from 1.
const surrogateKey = -1

// crossCol is one column of a cross-product table: the values it takes
// along its axis, in order. Columns on the same axis vary together.
type crossCol struct {
	axis int
	vals []storage.Value
}

// crossProduct builds def as the cross product of its columns' axes,
// axis 0 outermost: the rows nested loops over the axes would append,
// the loop over axis 0 outside. It fills a column at a time, as runs
// of one value — a column on axis a holds each of its values for as
// many rows as the axes after a have combinations, and repeats that
// sequence once per combination of the axes before a — so each column
// is checked and dictionary-encoded once per run, not once per row.
func crossProduct(def *schema.Table, cols ...crossCol) *storage.Table {
	var sizes []int
	for _, c := range cols {
		if c.axis == surrogateKey {
			continue
		}
		for len(sizes) <= c.axis {
			sizes = append(sizes, 0)
		}
		if sizes[c.axis] != 0 && sizes[c.axis] != len(c.vals) {
			panic(fmt.Sprintf("datagen: %s: columns of axis %d differ in length", def.Name, c.axis))
		}
		sizes[c.axis] = len(c.vals)
	}
	rows := 1
	for _, n := range sizes {
		rows *= n
	}
	t := storage.NewTable(def)
	if len(cols) != t.NumCols() {
		panic(fmt.Sprintf("datagen: %s: %d cross-product columns for %d", def.Name, len(cols), t.NumCols()))
	}
	if rows == 0 {
		return t
	}
	t.Grow(rows)
	for i, c := range cols {
		col := t.Col(i)
		if c.axis == surrogateKey {
			for sk := 1; sk <= rows; sk++ {
				col.Append(storage.Int(int64(sk)))
			}
			continue
		}
		run := 1
		for _, n := range sizes[c.axis+1:] {
			run *= n
		}
		for rep := rows / (run * len(c.vals)); rep > 0; rep-- {
			for _, v := range c.vals {
				col.AppendN(v, run)
			}
		}
	}
	return t
}

// strVals returns the domain as values.
func strVals(domain []string) []storage.Value {
	out := make([]storage.Value, len(domain))
	for i, s := range domain {
		out[i] = storage.Str(s)
	}
	return out
}

// intVals returns lo, lo+step, ... up to hi as values.
func intVals(lo, hi, step int64) []storage.Value {
	var out []storage.Value
	for v := lo; v <= hi; v += step {
		out = append(out, storage.Int(v))
	}
	return out
}

// genReason builds the return-reason dimension; the domain scales mildly
// with SF (Table 2 regime for small dimensions).
func (g *Generator) genReason(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	n := g.rows("reason")
	for i := int64(1); i <= n; i++ {
		desc := dist.ReasonDescs[int(i-1)%len(dist.ReasonDescs)]
		if int(i) > len(dist.ReasonDescs) {
			desc = fmt.Sprintf("%s (%d)", desc, i)
		}
		t.Append([]storage.Value{
			storage.Int(i),
			storage.Str(bkey(i)),
			storage.Str(desc),
		})
	}
	return t
}

// genShipMode builds the 20-row ship mode dimension (5 types x 4 codes).
func (g *Generator) genShipMode(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	sk := int64(1)
	for _, typ := range dist.ShipModeTypes {
		for ci, code := range dist.ShipModeCodes {
			carrier := dist.Carriers[(int(sk)-1)%len(dist.Carriers)]
			t.Append([]storage.Value{
				storage.Int(sk),
				storage.Str(bkey(sk)),
				storage.Str(typ),
				storage.Str(code),
				storage.Str(carrier),
				storage.Str(fmt.Sprintf("contract-%d-%d", sk, ci)),
			})
			sk++
		}
	}
	return t
}
