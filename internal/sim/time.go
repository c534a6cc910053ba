// Package sim provides the discrete-event simulation kernel shared by every
// component simulator in SplitSim-Go: virtual time, a deterministic event
// queue, seeded random-number generation, and host-cycle cost accounting.
//
// Virtual time is measured in integer picoseconds. Picosecond resolution
// lets the kernel express single CPU cycles at multi-GHz clock rates (a
// 4 GHz cycle is 250 ps) while an int64 still covers roughly 106 days of
// simulated time, far beyond the tens of seconds the experiments need.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in picoseconds since simulation start.
// The same type doubles as a duration; arithmetic is plain integer math.
type Time int64

// Common durations expressed in Time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a sentinel meaning "no bound"; it is larger than any time the
// kernel will ever schedule.
const Infinity Time = math.MaxInt64

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String renders t with a unit chosen by magnitude, e.g. "1.500ms".
func (t Time) String() string {
	if t == Infinity {
		return "inf"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	switch {
	case t >= Second:
		return fmt.Sprintf("%s%.3fs", neg, t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%s%.3fms", neg, float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%s%.3fus", neg, float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%s%.3fns", neg, float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%s%dps", neg, int64(t))
	}
}

// TransmitTime returns the serialization delay of sending size bytes over a
// link of rate bits per second. It rounds up to whole picoseconds so that a
// positive size on a finite-rate link always consumes time.
func TransmitTime(sizeBytes int, bitsPerSecond int64) Time {
	if bitsPerSecond <= 0 {
		return 0
	}
	bits := int64(sizeBytes) * 8
	ps := (bits*int64(Second) + bitsPerSecond - 1) / bitsPerSecond
	return Time(ps)
}

// BitsPerSecond helpers for readable topology configuration.
const (
	Kbps int64 = 1000
	Mbps int64 = 1000 * Kbps
	Gbps int64 = 1000 * Mbps
)
