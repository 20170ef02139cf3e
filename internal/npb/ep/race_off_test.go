//go:build !race

package ep

const raceEnabled = false
