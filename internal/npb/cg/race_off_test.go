//go:build !race

package cg

const raceEnabled = false
