// Resilient: the reliability extension. A node swaps to a mirrored pair
// of memory servers; one server dies mid-run and paging continues from
// the survivor. (examples/multiserver shows growing the fleet online.)
package main

import (
	"fmt"
	"log"

	"hpbd/internal/blockdev"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/mirror"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

func mirrorDemo() {
	env := sim.NewEnv()
	fabric := ib.NewFabric(env, ib.DefaultConfig())
	var servers [2]*hpbd.Server
	var devs [2]*hpbd.Device
	for i := 0; i < 2; i++ {
		servers[i] = hpbd.NewServer(fabric, fmt.Sprintf("mem%d", i), hpbd.DefaultServerConfig(32<<20))
		devs[i] = hpbd.NewDevice(fabric, fmt.Sprintf("hpbd%d", i), hpbd.DefaultClientConfig())
		if err := devs[i].ConnectServer(servers[i], 32<<20); err != nil {
			log.Fatal(err)
		}
	}
	md, err := mirror.New(env, "md0", devs[0], devs[1])
	if err != nil {
		log.Fatal(err)
	}
	cfg := vm.DefaultConfig(8 << 20)
	sys := vm.NewSystem(env, cfg)
	sys.AddSwap(blockdev.NewQueue(env, cfg.Host, md), 0)

	as := sys.NewAddressSpace("app", 4096) // 16 MB over 8 MB memory
	env.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4096; i++ {
			if err := as.Touch(p, i, true); err != nil {
				log.Fatalf("touch: %v", err)
			}
			if i == 2500 {
				fmt.Println("  !! memory server mem0 crashes")
				servers[0].DropClients()
			}
		}
		// Re-read everything: early pages come back from the survivor.
		for i := 0; i < 4096; i++ {
			if err := as.Touch(p, i, false); err != nil {
				log.Fatalf("re-touch after failover: %v", err)
			}
		}
		fmt.Printf("  all %d pages intact after failover (degraded=%v, failovers=%d)\n",
			4096, md.Degraded(), md.Stats().ReadFailovers)
	})
	env.Run()
	env.Close()
}

func main() {
	fmt.Println("mirrored swap surviving a memory-server crash:")
	mirrorDemo()
}
