package storage

import (
	"fmt"
	"time"
)

// The date epoch is 1900-01-01; date_dim spans 1900-01-01 .. 2100-01-01
// (73049 days), matching the official calendar dimension. Surrogate keys
// of date_dim are days-since-epoch + 1 so that key 1 is 1900-01-01 and
// keys are dense and join-friendly.

// DateDimRows is the number of calendar days covered by date_dim.
const DateDimRows = 73049

// epochUnixDays is 1900-01-01 expressed in days since 1970-01-01
// (70 years of which 17 are leap: -(70*365 + 17)).
const epochUnixDays = -25567

// DaysFromYMD converts a calendar date to days since 1900-01-01 with
// exact integer arithmetic. The previous implementation divided
// time.Duration hours by 24 and truncated, which is one day off for any
// date far enough from the epoch that the float quotient lands just
// below an integer.
func DaysFromYMD(year, month, day int) int64 {
	return daysFromCivil(year, month, day) - epochUnixDays
}

// YMDFromDays converts days since 1900-01-01 to calendar components.
func YMDFromDays(days int64) (year, month, day int) {
	return civilFromDays(days + epochUnixDays)
}

// daysFromCivil returns the day count since 1970-01-01 of a proleptic
// Gregorian date (Howard Hinnant's public-domain civil-calendar
// algorithm). Eras of 400 years (146097 days) make every division
// exact; no time package, no DST/leap-second surface.
func daysFromCivil(year, month, day int) int64 {
	y := int64(year)
	if month <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if month > 2 {
		mp = int64(month) - 3
	} else {
		mp = int64(month) + 9
	}
	doy := (153*mp+2)/5 + int64(day) - 1   // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // 719468 = days 0000-03-01 .. 1970-01-01
}

// civilFromDays is the inverse of daysFromCivil.
func civilFromDays(z int64) (year, month, day int) {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	day = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		month = int(mp + 3)
	} else {
		month = int(mp - 9)
	}
	if month <= 2 {
		y++
	}
	return int(y), month, day
}

// Weekday returns the 0-based day of week (0 = Sunday) for days since
// the epoch. 1900-01-01 was a Monday.
func Weekday(days int64) int {
	return int((days + 1) % 7)
}

// DayName returns the English day name for days since epoch.
func DayName(days int64) string {
	names := [...]string{"Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"}
	return names[Weekday(days)]
}

// FormatDate renders days since epoch as ISO yyyy-mm-dd.
func FormatDate(days int64) string {
	y, m, d := YMDFromDays(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// appendDate appends FormatDate(days) without the intermediate string.
func appendDate(buf []byte, days int64) []byte {
	y, m, d := YMDFromDays(days)
	if y < 0 || y > 9999 {
		return append(buf, FormatDate(days)...)
	}
	return append(buf,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}

// ParseDate parses an ISO yyyy-mm-dd string to days since epoch.
// time.Parse validates the calendar (rejecting month 13 or Feb 30); the
// day arithmetic itself is exact integer math.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("storage: bad date %q: %w", s, err)
	}
	return DaysFromYMD(t.Year(), int(t.Month()), t.Day()), nil
}

// DateSK converts days since epoch to the date_dim surrogate key
// (1-based, dense).
func DateSK(days int64) int64 { return days + 1 }

// DaysFromSK converts a date_dim surrogate key back to days since epoch.
func DaysFromSK(sk int64) int64 { return sk - 1 }

// daysIn returns the number of days of the month (1-12) in the year.
func daysIn(year, month int) int {
	if month == 2 && IsLeapYear(year) {
		return 29
	}
	return [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[month-1]
}

// IsLeapYear reports whether the year is a Gregorian leap year.
func IsLeapYear(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}
