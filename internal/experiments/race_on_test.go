//go:build race

package experiments

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
