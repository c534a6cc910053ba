package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConstants(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond ||
		Microsecond != 1000*Nanosecond || Nanosecond != 1000*Picosecond {
		t.Fatal("time unit ladder broken")
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds() = %v, want 0.5", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5ms in ps", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{250 * Picosecond, "250ps"},
		{3 * Nanosecond, "3.000ns"},
		{7 * Microsecond, "7.000us"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
		{-3 * Nanosecond, "-3.000ns"},
		{Infinity, "inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransmitTime(t *testing.T) {
	// 1500 bytes at 10 Gbps = 1.2 us.
	if got := TransmitTime(1500, 10*Gbps); got != 1200*Nanosecond {
		t.Errorf("TransmitTime = %v, want 1.2us", got)
	}
	// 1 byte at 1 Gbps = 8 ns.
	if got := TransmitTime(1, 1*Gbps); got != 8*Nanosecond {
		t.Errorf("TransmitTime = %v, want 8ns", got)
	}
	if got := TransmitTime(1500, 0); got != 0 {
		t.Errorf("zero-rate link should transmit instantly in the model, got %v", got)
	}
}

func TestTransmitTimeMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := int(a)%5000+1, int(b)%5000+1
		if sa > sb {
			sa, sb = sb, sa
		}
		return TransmitTime(sa, 10*Gbps) <= TransmitTime(sb, 10*Gbps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransmitTimePositive(t *testing.T) {
	f := func(size uint16, rate uint32) bool {
		s := int(size)%9000 + 1
		r := int64(rate)%int64(100*Gbps) + 1
		return TransmitTime(s, r) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
