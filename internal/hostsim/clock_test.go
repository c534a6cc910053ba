package hostsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestOscillatorZeroIsPerfect(t *testing.T) {
	var o Oscillator
	f := func(raw uint32) bool {
		tt := sim.Time(raw) * sim.Microsecond
		return o.Read(tt) == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOscillatorDriftLinear(t *testing.T) {
	o := Oscillator{DriftPPM: 25}
	// Error grows linearly: 25us per second.
	for _, s := range []sim.Time{sim.Second, 2 * sim.Second, 4 * sim.Second} {
		err := o.Read(s) - s
		want := sim.Time(25*int64(s)/1_000_000) * 1
		diff := err - want
		if diff < 0 {
			diff = -diff
		}
		if diff > sim.Nanosecond {
			t.Fatalf("at %v: err %v want %v", s, err, want)
		}
	}
}

func TestWanderBounded(t *testing.T) {
	o := Oscillator{WanderPPM: 2, WanderPeriod: sim.Second}
	// Phase error from sinusoidal wander is bounded by 2A/w = 2*2e-6*T/2pi.
	bound := 2 * 2e-6 * float64(sim.Second) / (2 * math.Pi)
	for tt := sim.Time(0); tt < 5*sim.Second; tt += 37 * sim.Millisecond {
		err := float64(o.Read(tt) - tt)
		if math.Abs(err) > bound*1.01 {
			t.Fatalf("wander error %v exceeds bound %v at %v", err, bound, tt)
		}
	}
}

func TestFreqPPMMatchesDerivative(t *testing.T) {
	o := Oscillator{DriftPPM: 10, WanderPPM: 3, WanderPeriod: 2 * sim.Second, Phase: 0.7}
	// Numeric derivative of the phase error matches FreqPPM.
	at := 700 * sim.Millisecond
	const h = sim.Millisecond
	num := float64(o.Read(at+h)-o.Read(at-h))/float64(2*h) - 1
	ana := o.FreqPPM(at) * 1e-6
	if math.Abs(num-ana) > 1e-7 {
		t.Fatalf("numeric %v vs analytic %v", num, ana)
	}
}

func TestDisciplinedClockFoldsFrequencyHistory(t *testing.T) {
	c := DisciplinedClock{Osc: Oscillator{DriftPPM: 30}}
	// Apply a frequency correction at t1, then replace it at t2; the phase
	// accumulated under the first correction must be preserved.
	t1 := sim.Second
	c.Adjust(t1, 0, -30)
	t2 := 2 * sim.Second
	readBefore := c.Read(t2)
	c.Adjust(t2, 0, -30) // re-apply same frequency: no phase jump allowed
	readAfter := c.Read(t2)
	if readBefore != readAfter {
		t.Fatalf("Adjust jumped the clock: %v -> %v", readBefore, readAfter)
	}
	if c.FreqCorrPPM() != -30 {
		t.Fatalf("freq corr = %v", c.FreqCorrPPM())
	}
}

func TestComputeSerializationProperty(t *testing.T) {
	// N Compute calls of random durations finish in order, back to back.
	f := func(dursRaw []uint8) bool {
		if len(dursRaw) == 0 || len(dursRaw) > 20 {
			return true
		}
		h := New("h", 1, QemuParams(), 1)
		s := sim.NewScheduler(0)
		h.Attach(core.Env{Sched: s, Src: 1})
		var finishes []sim.Time
		var total sim.Time
		for _, d := range dursRaw {
			dur := sim.Time(int(d)+1) * sim.Microsecond
			total += dur
			h.Compute(dur, func() { finishes = append(finishes, s.Now()) })
		}
		s.Run()
		if len(finishes) != len(dursRaw) {
			return false
		}
		for i := 1; i < len(finishes); i++ {
			if finishes[i] <= finishes[i-1] {
				return false
			}
		}
		return finishes[len(finishes)-1] == total && h.CPUBusy() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
