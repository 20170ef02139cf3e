//go:build race

package cg

// raceEnabled lets allocation budgets skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = true
