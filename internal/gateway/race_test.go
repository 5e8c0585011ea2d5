//go:build race

package gateway

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a quarter of its Puts and allocation counts are not meaningful.
const raceEnabled = true
