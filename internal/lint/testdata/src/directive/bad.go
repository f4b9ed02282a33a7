// Package dirfix exercises the //lint:ignore directive machinery: a
// working suppression (counted, not reported), a malformed directive
// (reported), and a stale directive that matches nothing (reported).
package dirfix

import "fmt"

// Suppressed: the directive on the line above the finding silences it.
func suppressed(n int) {
	//lint:ignore strayio fixture exercises a counted suppression
	fmt.Println("rows:", n)
}

//lint:ignore
func malformed() {}

//lint:ignore errcheck nothing on this line returns an error
func stale() {}

//lint:ignore sharecap a directive naming a rule dslint does not have is reported
