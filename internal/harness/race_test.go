//go:build race

package harness

// raceEnabled skips allocation bounds: under the race detector sync.Pool
// drops items at random, so pooled machines are rebuilt at random.
const raceEnabled = true
