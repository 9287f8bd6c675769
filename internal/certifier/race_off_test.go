//go:build !race

package certifier

// raceEnabled mirrors race_on_test.go for normal builds.
const raceEnabled = false
