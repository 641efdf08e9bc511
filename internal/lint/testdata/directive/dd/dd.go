// Package dd exercises directive validation: typos, malformed allows
// and allows with nothing left to excuse must surface instead of
// silently disabling a check.
package dd

//qbs:zeralloc is a typo and must be reported.
// want:-1 directive "unknown qbs directive"

func misplaced() {
	//qbs:zeroalloc
	// want:-1 directive "must be in a function's doc comment"
	_ = 0
}

// incomplete has an allow with no reason.
//
//qbs:allow zeroalloc
// want:-1 directive "needs an analyzer name and a reason"
func incomplete() {}

// stale excuses an allocation its body no longer makes.
//
//qbs:zeroalloc
//qbs:allow zeroalloc the make this excused was deleted
// want:-1 directive "stale //qbs:allow zeroalloc"
func stale(buf []int) int {
	//qbs:allow hotpath nothing below is in a hotpath function
	// want:-1 directive "stale //qbs:allow hotpath"
	return len(buf)
}

// live excuses one that it does: no finding, and no stale report.
//
//qbs:zeroalloc
func live(n int) []int {
	//qbs:allow zeroalloc fixture: cold-start buffer
	return make([]int, n)
}
