package clocksync

import (
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Chrony disciplines the host system clock from a measurement source (NTP
// exchanges or the local PHC as a reference clock) and tracks the clock
// error bound it would report — the "dynamic clock bound" the modified
// CockroachDB consumes for its commit-wait period.
type Chrony struct {
	// DriftUncertaintyPPM is the assumed residual frequency error; the
	// bound grows at this rate between measurements (chrony's maxerror).
	DriftUncertaintyPPM float64
	// SampleEvery controls bound sampling for reporting (0 = 10 ms).
	SampleEvery sim.Time
	// WarmMeasurements is how many measurements must pass before bounds
	// are recorded (servo warm-up, like the profiler's warm-up drop).
	WarmMeasurements int

	h *hostsim.Host

	lastAt    sim.Time
	lastBound sim.Time
	synced    bool

	lastOffset   sim.Time
	lastOffsetAt sim.Time
	haveLast     bool
	measurements int

	// Bounds records the reported bound over time (post first sync).
	Bounds stats.Latency
	// Offsets records applied phase corrections.
	Offsets stats.Latency
}

// NewChrony creates a daemon with chrony-like defaults.
func NewChrony() *Chrony {
	return &Chrony{DriftUncertaintyPPM: 1.0, SampleEvery: 10 * sim.Millisecond, WarmMeasurements: 5}
}

// Run starts bound sampling; feed it measurements via OnMeasurement.
func (c *Chrony) Run(h *hostsim.Host) {
	c.h = h
	var tick func()
	tick = func() {
		if c.synced && c.measurements > c.WarmMeasurements {
			c.Bounds.Add(c.Bound())
		}
		h.After(c.SampleEvery, tick)
	}
	h.After(c.SampleEvery, tick)
}

// OnMeasurement applies one time-source observation: step the phase, learn
// the frequency error, and reset the error bound.
func (c *Chrony) OnMeasurement(m Measurement) {
	now := c.h.Now()
	c.measurements++
	c.Offsets.Add(m.Offset)
	// Frequency correction from consecutive offsets (post-step residuals).
	if c.haveLast {
		dt := now - c.lastOffsetAt
		if dt > 0 {
			freqErrPPM := float64(m.Offset) / float64(dt) * 1e6
			c.h.Clock.Adjust(now, m.Offset, c.h.Clock.FreqCorrPPM()+0.5*freqErrPPM)
		} else {
			c.h.Clock.Adjust(now, m.Offset, c.h.Clock.FreqCorrPPM())
		}
	} else {
		c.h.Clock.Adjust(now, m.Offset, 0)
	}
	c.haveLast = true
	c.lastOffset = m.Offset
	c.lastOffsetAt = now

	resid := m.Offset
	if resid < 0 {
		resid = -resid
	}
	// After stepping, the remaining uncertainty is the measurement's own
	// error bound; the residual term covers servo transients.
	c.lastBound = m.ErrBound + resid/4
	c.lastAt = now
	c.synced = true
}

// Bound returns the current clock error bound: the last measurement's
// uncertainty grown by the drift uncertainty since.
func (c *Chrony) Bound() sim.Time {
	if !c.synced {
		return 10 * sim.Millisecond // unsynchronized default
	}
	elapsed := c.h.Now() - c.lastAt
	return c.lastBound + sim.Time(c.DriftUncertaintyPPM*1e-6*float64(elapsed))
}

// TrueError returns the actual system clock error right now (simulator
// ground truth, unavailable to the guest; used for validation).
func (c *Chrony) TrueError() sim.Time {
	now := c.h.Now()
	e := c.h.Clock.Read(now) - now
	if e < 0 {
		e = -e
	}
	return e
}

// PHCRefClock feeds chrony from the local NIC's PTP hardware clock — the
// configuration the paper uses for PTP: ptp4l disciplines the PHC, chrony
// uses the PHC as reference clock for the system clock.
type PHCRefClock struct {
	// Slave provides the PHC's own synchronization error bound.
	Slave *PTPSlave
	// Poll is the PHC comparison interval.
	Poll sim.Time
	// OnMeasurement receives each comparison (wired to Chrony).
	OnMeasurement func(Measurement)

	h *hostsim.Host
	// Reads counts completed PHC comparisons.
	Reads uint64
}

// Run starts polling the PHC.
func (r *PHCRefClock) Run(h *hostsim.Host) {
	r.h = h
	if r.Poll <= 0 {
		r.Poll = 250 * sim.Millisecond
	}
	var tick func()
	tick = func() {
		t0 := h.ClockNow()
		h.ReadPHC(func(hw sim.Time) {
			t1 := h.ClockNow()
			r.Reads++
			if r.OnMeasurement != nil {
				r.OnMeasurement(Measurement{
					At:     h.Now(),
					Offset: hw - (t0+t1)/2,
					// Read round-trip ambiguity plus the PHC's own bound.
					ErrBound: (t1-t0)/2 + r.Slave.Bound(),
				})
			}
		})
		h.After(r.Poll, tick)
	}
	h.After(r.Poll/3, tick)
}
