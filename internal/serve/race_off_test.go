//go:build !race

package serve

// raceEnabled reports a -race build, where sync.Pool drops pooled items at
// random on purpose, so allocation counts are not steady.
const raceEnabled = false
