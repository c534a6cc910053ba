// Declarative configuration: describe a key-value system once — switches,
// hosts and links by name into the System's Topology, applications on the
// hosts — and instantiate it three different ways (all protocol-level;
// mixed fidelity; partitioned network), the paper's separation of system
// configuration from simulator choices.
package main

import (
	"fmt"

	splitsim "repro"
	"repro/internal/apps/kv"
	"repro/internal/stats"
)

// describe builds the system configuration: one server and two clients
// across two switches. The same description drives every instantiation.
func describe() (*splitsim.System, []*kv.Client) {
	sys := &splitsim.System{}
	sys.AddSwitch("tor0")
	sys.AddSwitch("tor1")
	sys.Connect("tor0", "tor1", 40*splitsim.Gbps, splitsim.Microsecond)

	srv := kv.NewServer(kv.DefaultServerParams())
	server := sys.AddHost("server", "tor0", 10*splitsim.Gbps, splitsim.Microsecond)
	server.Apps = append(server.Apps, srv.Run)

	var clients []*kv.Client
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("client%d", i)
		host := sys.AddHost(name, "tor1", 10*splitsim.Gbps, splitsim.Microsecond)
		cp := kv.DefaultClientParams(uint32(i), []splitsim.IP{splitsim.HostIP(1)})
		cp.Outstanding = 8
		cp.WarmUp = splitsim.Millisecond
		cli := kv.NewClient(cp)
		clients = append(clients, cli)
		host.Apps = append(host.Apps, cli.Run)
	}
	return sys, clients
}

func run(name string, choices splitsim.Choices) {
	sys, clients := describe()
	inst, err := sys.Instantiate(choices)
	if err != nil {
		panic(err)
	}
	const dur = 20 * splitsim.Millisecond
	inst.Sim.RunSequential(dur)
	var done uint64
	for _, c := range clients {
		done += c.Completed
	}
	fmt.Printf("%-22s cores=%d tput=%s p50=%v\n", name, inst.Sim.NumComponents(),
		stats.FmtRate(stats.Rate(int(done), dur-splitsim.Millisecond)),
		clients[0].Lat.Percentile(50))
}

func main() {
	fmt.Println("one system description, three instantiations:")
	run("protocol-level", splitsim.Choices{Seed: 1})
	run("mixed fidelity", splitsim.Choices{
		Seed:             1,
		FidelityOverride: map[string]splitsim.Fidelity{"server": splitsim.Coarse},
	})
	run("partitioned network", splitsim.Choices{
		Seed:      1,
		Partition: []int{0, 1}, // one partition per switch
	})
}
