package hostsim

import (
	"math"

	"repro/internal/sim"
)

// FreqPPM returns the oscillator's instantaneous frequency error at true
// time t, in ppm: the analytic derivative of Read's phase error.
func (o *Oscillator) FreqPPM(t sim.Time) float64 {
	f := o.DriftPPM
	if o.WanderPPM != 0 && o.WanderPeriod > 0 {
		w := 2 * math.Pi / float64(o.WanderPeriod)
		f += o.WanderPPM * math.Sin(w*float64(t)+o.Phase)
	}
	return f
}

// CPUBusy returns the accumulated busy time of the simulated core.
func (h *Host) CPUBusy() sim.Time { return h.cpuBusy }
