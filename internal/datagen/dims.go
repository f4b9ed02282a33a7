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
	w := t.Writer()
	monthSeq, weekSeq, quarterSeq := 0, 1, 0
	prevYear, prevMonth := 0, 0
	quarterName := "" // the name of quarterSeq
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
		if seq := (y-1900)*4 + qoy; seq != quarterSeq {
			quarterSeq, quarterName = seq, fmt.Sprintf("%dQ%d", y, qoy)
		}
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
		sk := storage.DateSK(day)
		w.Int(sk)       // d_date_sk
		w.Str(bkey(sk)) // d_date_id
		w.Int(day)      // d_date
		for _, v := range [...]int{monthSeq, weekSeq, quarterSeq, y, dow, m, d, qoy, y, quarterSeq, weekSeq} {
			w.Int(int64(v)) // d_month_seq ... d_fy_week_seq
		}
		w.Str(storage.DayName(day))     // d_day_name
		w.Str(quarterName)              // d_quarter_name
		w.Str(holiday)                  // d_holiday
		w.Str(weekend)                  // d_weekend
		w.Str("N")                      // d_following_holiday
		w.Int(storage.DateSK(firstDOM)) // d_first_dom
		w.Int(storage.DateSK(lastDOM))  // d_last_dom
		w.Int(sk - 365)                 // d_same_day_ly
		w.Int(sk - 91)                  // d_same_day_lq
		for range 5 {
			w.Str("N") // d_current_day, _week, _month, _quarter, _year
		}
		w.EndRow()
	}
	w.Close()
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
	w := t.Writer()
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
		w.Int(sec + 1)       // t_time_sk
		w.Str(bkey(sec + 1)) // t_time_id
		w.Int(sec)           // t_time
		w.Int(h)             // t_hour
		w.Int(m)             // t_minute
		w.Int(s)             // t_second
		w.Str(amPM)          // t_am_pm
		w.Str(shift)         // t_shift
		w.Str(shift)         // t_sub_shift
		if meal != "" {      // t_meal_time
			w.Str(meal)
		} else {
			w.Null()
		}
		w.EndRow()
	}
	w.Close()
	return t
}

// genIncomeBand builds the 20 income bands of 10,000 each.
func (g *Generator) genIncomeBand(def *schema.Table) *storage.Table {
	n := g.rows("income_band")
	var sk, lower, upper []int64
	for i := int64(1); i <= n; i++ {
		lo := (i - 1) * 10000
		if i > 1 {
			lo++
		}
		sk, lower, upper = append(sk, i), append(lower, lo), append(upper, i*10000)
	}
	return crossProduct(def, crossCol{ints: sk}, crossCol{ints: lower}, crossCol{ints: upper})
}

// genCustomerDemographics builds the full demographic cross product
// (1,920,800 rows = 2 genders x 5 marital x 7 education x 20 purchase
// estimates x 4 credit ratings x 7^3 dependent counts).
func (g *Generator) genCustomerDemographics(def *schema.Table) *storage.Table {
	return crossProduct(def,
		crossCol{axis: surrogateKey},
		crossCol{axis: 0, strs: dist.Genders},
		crossCol{axis: 1, strs: dist.MaritalStatuses},
		crossCol{axis: 2, strs: dist.EducationStatuses},
		crossCol{axis: 3, ints: intRange(500, 10000, 500)},
		crossCol{axis: 4, strs: dist.CreditRatings},
		crossCol{axis: 5, ints: intRange(0, 6, 1)},
		crossCol{axis: 6, ints: intRange(0, 6, 1)},
		crossCol{axis: 7, ints: intRange(0, 6, 1)},
	)
}

// genHouseholdDemographics builds the 7200-row household cross product
// (20 income bands x 6 buy potentials x 10 dep counts x 6 vehicles).
func (g *Generator) genHouseholdDemographics(def *schema.Table) *storage.Table {
	return crossProduct(def,
		crossCol{axis: surrogateKey},
		crossCol{axis: 0, ints: intRange(1, 20, 1)},
		crossCol{axis: 1, strs: dist.BuyPotentials},
		crossCol{axis: 2, ints: intRange(0, 9, 1)},
		crossCol{axis: 3, ints: intRange(0, 5, 1)},
	)
}

// surrogateKey is the axis of a cross-product column that numbers the
// rows from 1.
const surrogateKey = -1

// crossCol is one column of a cross-product table: the values it takes
// along its axis, in order, as ints for an int column or strs for a
// string column. Columns on the same axis vary together.
type crossCol struct {
	axis int
	ints []int64
	strs []string
}

// crossProduct builds def as the cross product of its columns' axes,
// axis 0 outermost: the rows nested loops over the axes would append,
// the loop over axis 0 outside. It fills a column at a time, as runs
// of one value — a column on axis a holds each of its values for as
// many rows as the axes after a have combinations, and repeats that
// sequence once per combination of the axes before a — so a column on
// an inner axis is checked and dictionary-encoded once per run, not
// once per row. The surrogate key and the columns of the last axis
// (runs of one) are typed loops. Built a column at a time and never
// by row, the table keeps epoch 0.
func crossProduct(def *schema.Table, cols ...crossCol) *storage.Table {
	var sizes []int
	for _, c := range cols {
		if c.axis == surrogateKey {
			continue
		}
		for len(sizes) <= c.axis {
			sizes = append(sizes, 0)
		}
		n := len(c.ints) + len(c.strs)
		if sizes[c.axis] != 0 && sizes[c.axis] != n {
			panic(fmt.Sprintf("datagen: %s: columns of axis %d differ in length", def.Name, c.axis))
		}
		sizes[c.axis] = n
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
				col.AppendInt(int64(sk))
			}
			continue
		}
		run := 1
		for _, n := range sizes[c.axis+1:] {
			run *= n
		}
		for rep := rows / (run * sizes[c.axis]); rep > 0; rep-- {
			for _, v := range c.ints {
				if run == 1 {
					col.AppendInt(v)
				} else {
					col.AppendN(storage.Int(v), run)
				}
			}
			for _, v := range c.strs {
				if run == 1 {
					col.AppendString(v)
				} else {
					col.AppendN(storage.Str(v), run)
				}
			}
		}
	}
	return t
}

// intRange returns lo, lo+step, ... up to hi.
func intRange(lo, hi, step int64) []int64 {
	var out []int64
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// genReason builds the return-reason dimension; the domain scales mildly
// with SF (Table 2 regime for small dimensions).
func (g *Generator) genReason(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	n := g.rows("reason")
	w := t.Writer()
	for i := int64(1); i <= n; i++ {
		desc := dist.ReasonDescs[int(i-1)%len(dist.ReasonDescs)]
		if int(i) > len(dist.ReasonDescs) {
			desc = fmt.Sprintf("%s (%d)", desc, i)
		}
		w.Int(i)
		w.Str(bkey(i))
		w.Str(desc)
		w.EndRow()
	}
	w.Close()
	return t
}

// genShipMode builds the 20-row ship mode dimension (5 types x 4 codes).
func (g *Generator) genShipMode(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	w := t.Writer()
	sk := int64(1)
	for _, typ := range dist.ShipModeTypes {
		for ci, code := range dist.ShipModeCodes {
			carrier := dist.Carriers[(int(sk)-1)%len(dist.Carriers)]
			w.Int(sk)
			w.Str(bkey(sk))
			w.Str(typ)
			w.Str(code)
			w.Str(carrier)
			w.Str(fmt.Sprintf("contract-%d-%d", sk, ci))
			w.EndRow()
			sk++
		}
	}
	w.Close()
	return t
}
