// Resilient: the reliability extension. A node swaps to a mirrored pair
// of memory servers; one server dies mid-run and paging continues from
// the survivor. (examples/multiserver shows growing the fleet online.)
package main

import (
	"fmt"
	"log"

	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
)

func mirrorDemo() {
	// The paper's fail-stop client, pinned: the mirror alone carries the
	// node through the crash, with no request retry underneath it.
	client := hpbd.DefaultClientConfig()
	_, _, err := cluster.Run(cluster.Config{
		MemBytes:  8 << 20,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 32 << 20,
		Servers:   1, // per replica: mem0 backs hpbd0, mem1 backs hpbd1
		Mirror:    true,
		Client:    &client,
	}, func(node *cluster.Node) []cluster.Proc {
		as := node.VM.NewAddressSpace("app", 4096) // 16 MB over 8 MB memory
		return []cluster.Proc{{Name: "app", Run: func(p *sim.Proc) error {
			for i := 0; i < 4096; i++ {
				if err := as.Touch(p, i, true); err != nil {
					return fmt.Errorf("touch: %w", err)
				}
				if i == 2500 {
					fmt.Println("  !! memory server mem0 crashes")
					node.HPBDServers[0].DropClients()
				}
			}
			// Re-read everything: early pages come back from the survivor.
			for i := 0; i < 4096; i++ {
				if err := as.Touch(p, i, false); err != nil {
					return fmt.Errorf("re-touch after failover: %w", err)
				}
			}
			fmt.Printf("  all %d pages intact after failover (degraded=%v, failovers=%d)\n",
				4096, node.Mirror.Degraded(), node.Mirror.Stats().ReadFailovers)
			return nil
		}}}
	})
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	fmt.Println("mirrored swap surviving a memory-server crash:")
	mirrorDemo()
}
