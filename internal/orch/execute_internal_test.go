package orch

import (
	"fmt"
	"testing"
)

// TestPinCount pins the derived thread-pinning rule over (groups,
// GOMAXPROCS): never pin on a single core (an OS thread per group buys
// nothing and costs context switches), otherwise one pinned thread per
// group up to the core count.
func TestPinCount(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	for _, groups := range sizes {
		for _, procs := range sizes {
			want := groups
			if procs < groups {
				want = procs
			}
			if procs == 1 {
				want = 0
			}
			t.Run(fmt.Sprintf("groups%d/procs%d", groups, procs), func(t *testing.T) {
				if got := pinCount(groups, procs); got != want {
					t.Errorf("pinCount(%d, %d) = %d, want %d", groups, procs, got, want)
				}
			})
		}
	}
}
