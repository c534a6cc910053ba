package pci

import "testing"

func TestDefaultLatencyPositive(t *testing.T) {
	if DefaultLatency <= 0 {
		t.Fatal("PCI latency must be positive for conservative sync")
	}
}
