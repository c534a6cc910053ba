package clocksync_test

import (
	"testing"

	"repro/internal/apps/clocksync"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// rig builds a time server (perfect oscillator / reference PHC) and a
// client with a drifting clock, both detailed hosts on one TC switch.
type rig struct {
	sim    *orch.Simulation
	server *instantiate.DetailedHost
	client *instantiate.DetailedHost
}

func buildRig() *rig {
	n := netsim.New("net", 3)
	sw := n.AddSwitch("sw")
	sw.TransparentClock = true
	sIP, cIP := proto.HostIP(10), proto.HostIP(20)
	extS := n.AddExternal(sw, "tsrv", 10*sim.Gbps, sIP)
	extC := n.AddExternal(sw, "cli", 10*sim.Gbps, cIP)
	n.ComputeRoutes()

	s := orch.New()
	s.Add(n)
	srv := instantiate.NewDetailedHost("tsrv", sIP, hostsim.QemuParams(), nicsim.DefaultParams(), 1)
	cliNIC := nicsim.DefaultParams()
	cliNIC.PHCDriftPPM = 35 // the client NIC's oscillator is off by 35 ppm
	cli := instantiate.NewDetailedHost("cli", cIP, hostsim.QemuParams(), cliNIC, 2)
	// Client system clock: 2 ms initial offset, +40 ppm drift, slow wander.
	cli.Host.Clock.Osc = hostsim.Oscillator{
		Offset:   2 * sim.Millisecond,
		DriftPPM: 40, WanderPPM: 1, WanderPeriod: 5 * sim.Second,
	}
	srv.Wire(s, n, extS)
	cli.Wire(s, n, extC)
	return &rig{sim: s, server: srv, client: cli}
}

func TestNTPSyncConverges(t *testing.T) {
	r := buildRig()
	ntpd := &clocksync.NTPServer{}
	r.server.Host.AddApp(hostsim.AppFunc(ntpd.Run))

	ch := clocksync.NewChrony()
	nc := &clocksync.NTPClient{
		Server: r.server.Host.LocalIP(),
		Poll:   200 * sim.Millisecond,
	}
	nc.OnMeasurement = ch.OnMeasurement
	r.client.Host.AddApp(hostsim.AppFunc(ch.Run))
	r.client.Host.AddApp(hostsim.AppFunc(nc.Run))

	r.sim.RunSequential(10 * sim.Second)

	if ntpd.Served == 0 || nc.Exchanges < 40 {
		t.Fatalf("NTP exchanges = %d", nc.Exchanges)
	}
	// The 2ms initial offset and 40ppm drift must be disciplined away.
	if e := ch.TrueError(); e > 5*sim.Microsecond {
		t.Fatalf("true clock error %v after NTP discipline, want < 5us", e)
	}
	// Reported bound is on the order of half the RTT (~10us over the
	// detailed path), never absurdly small or large.
	bound := ch.Bounds.Mean()
	if bound < 2*sim.Microsecond || bound > 50*sim.Microsecond {
		t.Fatalf("NTP bound %v, want ~10us scale", bound)
	}
}

func TestPTPConvergesMuchTighter(t *testing.T) {
	r := buildRig()
	gm := &clocksync.PTPMaster{
		Slaves:   []proto.IP{r.client.Host.LocalIP()},
		Interval: 200 * sim.Millisecond,
	}
	r.server.Host.AddApp(hostsim.AppFunc(gm.Run))

	slave := &clocksync.PTPSlave{
		Master: r.server.Host.LocalIP(),
		NIC:    r.client.NIC,
	}
	ch := clocksync.NewChrony()
	ref := &clocksync.PHCRefClock{Slave: slave, NIC: r.client.NIC, Poll: 200 * sim.Millisecond}
	ref.OnMeasurement = ch.OnMeasurement
	r.client.Host.AddApp(hostsim.AppFunc(slave.Run))
	r.client.Host.AddApp(hostsim.AppFunc(ch.Run))
	r.client.Host.AddApp(hostsim.AppFunc(ref.Run))

	r.sim.RunSequential(10 * sim.Second)

	if slave.Exchanges < 40 {
		t.Fatalf("PTP exchanges = %d", slave.Exchanges)
	}
	// The PHC must be disciplined to well under a microsecond.
	if b := slave.Bound(); b > 500*sim.Nanosecond {
		t.Fatalf("ptp4l bound %v, want sub-500ns", b)
	}
	// System clock disciplined from the PHC: bound ~ PHC read RTT/2 +
	// slave bound, i.e. around a microsecond — the paper reports 943ns.
	bound := ch.Bounds.Mean()
	if bound < 100*sim.Nanosecond || bound > 3*sim.Microsecond {
		t.Fatalf("PTP system-clock bound %v, want ~1us scale", bound)
	}
	if e := ch.TrueError(); e > 2*sim.Microsecond {
		t.Fatalf("true clock error %v after PTP discipline", e)
	}
}

func TestPTPBeatsNTP(t *testing.T) {
	// Run both configurations and compare mean bounds: PTP must be around
	// an order of magnitude tighter, as in the paper (11us -> 943ns).
	ntpBound := func() sim.Time {
		r := buildRig()
		ntpd := &clocksync.NTPServer{}
		r.server.Host.AddApp(hostsim.AppFunc(ntpd.Run))
		ch := clocksync.NewChrony()
		nc := &clocksync.NTPClient{Server: r.server.Host.LocalIP(), Poll: 200 * sim.Millisecond}
		nc.OnMeasurement = ch.OnMeasurement
		r.client.Host.AddApp(hostsim.AppFunc(ch.Run))
		r.client.Host.AddApp(hostsim.AppFunc(nc.Run))
		r.sim.RunSequential(8 * sim.Second)
		return ch.Bounds.Mean()
	}()
	ptpBound := func() sim.Time {
		r := buildRig()
		gm := &clocksync.PTPMaster{Slaves: []proto.IP{r.client.Host.LocalIP()}, Interval: 200 * sim.Millisecond}
		r.server.Host.AddApp(hostsim.AppFunc(gm.Run))
		slave := &clocksync.PTPSlave{Master: r.server.Host.LocalIP(), NIC: r.client.NIC}
		ch := clocksync.NewChrony()
		ref := &clocksync.PHCRefClock{Slave: slave, NIC: r.client.NIC, Poll: 200 * sim.Millisecond}
		ref.OnMeasurement = ch.OnMeasurement
		r.client.Host.AddApp(hostsim.AppFunc(slave.Run))
		r.client.Host.AddApp(hostsim.AppFunc(ch.Run))
		r.client.Host.AddApp(hostsim.AppFunc(ref.Run))
		r.sim.RunSequential(8 * sim.Second)
		return ch.Bounds.Mean()
	}()
	if ptpBound*5 > ntpBound {
		t.Fatalf("PTP bound %v should be far tighter than NTP bound %v", ptpBound, ntpBound)
	}
}

func TestOscillatorModel(t *testing.T) {
	o := hostsim.Oscillator{Offset: sim.Millisecond, DriftPPM: 100}
	// After 1s, a +100ppm clock has gained 100us on top of the offset.
	got := o.Read(1 * sim.Second)
	want := 1*sim.Second + sim.Millisecond + 100*sim.Microsecond
	if got != want {
		t.Fatalf("Read = %v, want %v", got, want)
	}
}

func TestDisciplinedClockAdjust(t *testing.T) {
	c := hostsim.DisciplinedClock{Osc: hostsim.Oscillator{DriftPPM: 50}}
	now := 1 * sim.Second
	raw := c.Osc.Read(now)
	err := raw - now // 50us fast
	c.Adjust(now, -err, -50)
	// Immediately after: corrected to true time.
	if got := c.Read(now); got != now {
		t.Fatalf("post-adjust Read = %v, want %v", got, now)
	}
	// Much later: frequency correction cancels the drift (to first order).
	later := 10 * sim.Second
	diff := c.Read(later) - later
	if diff < 0 {
		diff = -diff
	}
	if diff > 100*sim.Nanosecond {
		t.Fatalf("drift residual after freq correction: %v", diff)
	}
}
