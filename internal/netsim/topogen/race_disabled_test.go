//go:build !race

package topogen_test

// raceEnabled is off in regular builds; see race_enabled_test.go.
const raceEnabled = false
