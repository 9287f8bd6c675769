//go:build race

package certifier

// raceEnabled reports that the race detector is active. It shadows
// every allocation, so heap figures taken under it mean nothing.
const raceEnabled = true
