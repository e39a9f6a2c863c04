//go:build !race

package softregex

const raceEnabled = false
