//go:build race

package matrix

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
