//go:build race

package montecarlo_test

// raceDetector reports whether the tests run under the race detector.
const raceDetector = true
