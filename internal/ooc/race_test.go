//go:build race

package ooc

const raceEnabled = true
