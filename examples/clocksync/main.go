// Clock synchronization: a time server and a client with a drifting,
// wandering oscillator, synchronized first with NTP (software timestamps)
// and then with PTP (NIC hardware timestamps, ptp4l-style PHC servo,
// transparent-clock switch). Prints the clock error bound chrony would
// report — the quantity the commit-wait database consumes.
package main

import (
	"fmt"

	splitsim "repro"
	"repro/internal/apps/clocksync"
	"repro/internal/hostsim"
)

const dur = 10 * splitsim.Second

func build() (*splitsim.Simulation, *splitsim.DetailedHost, *splitsim.DetailedHost) {
	s := splitsim.NewSimulation()
	net := splitsim.NewNetwork("net", 3)
	sw := net.AddSwitch("sw")
	sw.TransparentClock = true
	srvIP, cliIP := splitsim.HostIP(10), splitsim.HostIP(20)
	extS := net.AddExternal(sw, "tsrv", 10*splitsim.Gbps, srvIP)
	extC := net.AddExternal(sw, "cli", 10*splitsim.Gbps, cliIP)
	net.ComputeRoutes()
	s.Add(net)

	srv := splitsim.NewDetailedHost("tsrv", srvIP,
		splitsim.QemuParams(), splitsim.DefaultNICParams(), 1)
	np := splitsim.DefaultNICParams()
	np.PHCDriftPPM = 35
	cli := splitsim.NewDetailedHost("cli", cliIP, splitsim.QemuParams(), np, 2)
	cli.Host.Clock.Osc = hostsim.Oscillator{
		Offset: 2 * splitsim.Millisecond, DriftPPM: 40,
		WanderPPM: 1, WanderPeriod: 5 * splitsim.Second,
	}
	srv.Wire(s, net, extS)
	cli.Wire(s, net, extC)

	// Background chatter congests the path a little.
	bg := net.AddHost("bg", splitsim.HostIP(30))
	net.ConnectHostSwitch(bg, sw, splitsim.Gbps, 500*splitsim.Nanosecond)
	_ = bg
	return s, srv, cli
}

func main() {
	// NTP.
	s, srv, cli := build()
	ntpd := &clocksync.NTPServer{}
	srv.Host.AddApp(hostsim.AppFunc(ntpd.Run))
	chNTP := clocksync.NewChrony()
	nc := &clocksync.NTPClient{Server: srv.Host.LocalIP(), Poll: 200 * splitsim.Millisecond}
	nc.OnMeasurement = chNTP.OnMeasurement
	cli.Host.AddApp(hostsim.AppFunc(chNTP.Run))
	cli.Host.AddApp(hostsim.AppFunc(nc.Run))
	s.RunSequential(dur)
	fmt.Printf("NTP: bound=%v true-error=%v rtt=%v\n",
		chNTP.Bounds.Mean(), chNTP.TrueError(), nc.Delay.Mean())

	// PTP.
	s, srv, cli = build()
	gm := &clocksync.PTPMaster{Slaves: []splitsim.IP{cli.Host.LocalIP()},
		Interval: 200 * splitsim.Millisecond}
	srv.Host.AddApp(hostsim.AppFunc(gm.Run))
	slave := &clocksync.PTPSlave{Master: srv.Host.LocalIP(), NIC: cli.NIC}
	chPTP := clocksync.NewChrony()
	ref := &clocksync.PHCRefClock{Slave: slave, Poll: 200 * splitsim.Millisecond}
	ref.OnMeasurement = chPTP.OnMeasurement
	cli.Host.AddApp(hostsim.AppFunc(slave.Run))
	cli.Host.AddApp(hostsim.AppFunc(chPTP.Run))
	cli.Host.AddApp(hostsim.AppFunc(ref.Run))
	s.RunSequential(dur)
	fmt.Printf("PTP: bound=%v true-error=%v path-delay=%v\n",
		chPTP.Bounds.Mean(), chPTP.TrueError(), slave.PathDelay)

	fmt.Printf("hardware timestamping + transparent clocks tighten the bound %.0fx\n",
		float64(chNTP.Bounds.Mean())/float64(chPTP.Bounds.Mean()))
}
