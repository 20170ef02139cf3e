//go:build !race

package is

const raceEnabled = false
