package hostsim

import (
	"math"

	"repro/internal/sim"
)

// Oscillator models an imperfect clock source: a fixed frequency error
// (drift) plus a slow sinusoidal frequency wander standing in for
// temperature-driven variation. The model is deliberately deterministic —
// reads are pure functions of true time — so clock-synchronization results
// are exactly reproducible.
type Oscillator struct {
	// Offset is the initial phase error.
	Offset sim.Time
	// DriftPPM is the constant frequency error in parts per million.
	DriftPPM float64
	// WanderPPM is the amplitude of the sinusoidal frequency wander.
	WanderPPM float64
	// WanderPeriod is the wander period (0 disables wander).
	WanderPeriod sim.Time
	// Phase shifts the wander sinusoid so hosts don't wander in lockstep.
	Phase float64
}

// Read returns the oscillator's time at true time t.
func (o *Oscillator) Read(t sim.Time) sim.Time {
	err := o.DriftPPM * float64(t) / 1e6
	if o.WanderPPM != 0 && o.WanderPeriod > 0 {
		w := 2 * math.Pi / float64(o.WanderPeriod)
		// Phase error is the integral of the frequency wander
		// A*sin(w*t+phi): -(A/w)*cos(w*t+phi), normalized to start at 0.
		a := o.WanderPPM * 1e-6 / w
		err += a * (math.Cos(o.Phase) - math.Cos(w*float64(t)+o.Phase))
	}
	return t + o.Offset + sim.Time(err)
}

// DisciplinedClock is the guest's system clock: the raw oscillator plus the
// corrections a synchronization daemon (chrony) applies — a phase step/slew
// and a frequency adjustment, as clock_adjtime exposes.
type DisciplinedClock struct {
	Osc Oscillator

	corrOffset sim.Time // accumulated phase correction
	corrFreq   float64  // applied frequency correction, ppm
	corrBase   sim.Time // raw-clock time the frequency correction started at
}

// Read returns the disciplined system-clock time at true time t.
func (c *DisciplinedClock) Read(t sim.Time) sim.Time {
	raw := c.Osc.Read(t)
	return raw + c.corrOffset + sim.Time(c.corrFreq*float64(raw-c.corrBase)/1e6)
}

// Adjust applies a phase correction (step) and replaces the frequency
// correction, folding the old frequency term into the accumulated offset.
func (c *DisciplinedClock) Adjust(t sim.Time, offsetDelta sim.Time, freqPPM float64) {
	raw := c.Osc.Read(t)
	c.corrOffset += sim.Time(c.corrFreq*float64(raw-c.corrBase)/1e6) + offsetDelta
	c.corrFreq = freqPPM
	c.corrBase = raw
}

// FreqCorrPPM returns the currently applied frequency correction.
func (c *DisciplinedClock) FreqCorrPPM() float64 { return c.corrFreq }
