//go:build race

package ep

// raceEnabled trims the determinism test's repetitions under the race
// detector, which slows a class S run by an order of magnitude.
const raceEnabled = true
