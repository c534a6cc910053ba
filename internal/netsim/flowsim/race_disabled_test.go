//go:build !race

package flowsim

// raceEnabled is off in regular builds; see race_enabled_test.go.
const raceEnabled = false
