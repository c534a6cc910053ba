//go:build race

package link

// raceEnabled lets allocation-accounting tests skip under -race, where the
// detector's own bookkeeping shows up in testing.AllocsPerRun.
const raceEnabled = true
