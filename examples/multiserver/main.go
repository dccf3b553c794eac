// Multiserver: the paper's Figures 9 and 10, plus fleet resizing. Two
// quick sort instances run concurrently on one node whose swap area is
// distributed across several memory servers in blocked (non-striped)
// ranges; a single sort sweeps the server count from 1 to 16 to show the
// HCA QP-scaling effect; and an elastic node grows its fleet mid-sort
// and decommissions a founder, with the placement directory printed at
// each step.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

const elems = 4 << 20 // 16 MB per instance

// sorts runs n concurrent quick sorts of elems integers each on the node
// cfg describes and returns the node and each sort's virtual time.
func sorts(cfg cluster.Config, n, elems int, seed int64) (*cluster.Node, []sim.Duration) {
	node, times, err := cluster.Run(cfg, func(node *cluster.Node) []cluster.Proc {
		var procs []cluster.Proc
		for k := 0; k < n; k++ {
			q := workload.NewQuicksort(node.VM, fmt.Sprintf("qsort%d", k), elems,
				rand.New(rand.NewSource(seed+int64(k))))
			procs = append(procs, cluster.Proc{Name: fmt.Sprintf("inst%d", k), Run: q.Run})
		}
		return procs
	})
	if err != nil {
		log.Fatal(err)
	}
	return node, times
}

func twoSorts(mem int64, servers int) []sim.Duration {
	_, times := sorts(cluster.Config{
		MemBytes:  mem,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 64 << 20,
		Servers:   servers,
	}, 2, elems, 1)
	return times
}

// oneSort sorts 32 MB on a 16 MB node whose 32 MB swap area is spread
// over servers, playing the given membership schedule.
func oneSort(servers int, ops []cluster.MemberOp) (*cluster.Node, sim.Duration) {
	node, times := sorts(cluster.Config{
		MemBytes:   16 << 20,
		Swap:       cluster.SwapHPBD,
		SwapBytes:  32 << 20,
		Servers:    servers,
		Membership: ops,
	}, 1, 8<<20, 7)
	return node, times[0]
}

// resizeFleet runs a sort on an elastic two-server node, grows the fleet
// mid-run, then drains and removes a founding server — the full resize
// lifecycle with swap traffic flowing, written as a membership schedule.
func resizeFleet() {
	const start = 20 * sim.Millisecond // let the sort start swapping
	node, elapsed := oneSort(2, []cluster.MemberOp{
		// The newcomer is twice a founder's size: big enough that its
		// leftover headroom can absorb a founder's ranges when mem0 is
		// decommissioned (founders boot fully allocated).
		{At: start, Kind: cluster.Grow, Area: 32 << 20},
		{At: start, Kind: cluster.Decommission, Server: "mem0"},
	})
	grow, retire := node.Ops[0], node.Ops[1]
	fmt.Printf("  grew to 3 servers, rebalanced in %v\n", grow.End.Sub(grow.Start))
	fmt.Printf("  drained and removed mem0 in %v\n", retire.End.Sub(retire.Start))
	fmt.Printf("  sort finished in %v (fleet grew mid-run)\n", elapsed)
	fmt.Println("  final placement directory:")
	node.HPBD.Directory().Dump(os.Stdout)
}

func main() {
	fmt.Println("two concurrent sorts (16 MB each) across 4 memory servers:")
	for _, mem := range []int64{40 << 20, 16 << 20, 8 << 20} {
		t := twoSorts(mem, 4)
		fmt.Printf("  local memory %2d MB: inst0 %v, inst1 %v\n", mem>>20, t[0], t[1])
	}
	fmt.Println("\none sort (32 MB) with the swap area over N servers:")
	for _, n := range []int{1, 2, 4, 8, 16} {
		_, t := oneSort(n, nil)
		fmt.Printf("  %2d servers: %v\n", n, t)
	}
	fmt.Println("\nresizing the fleet under a running sort (2 -> 3 -> 2 servers):")
	resizeFleet()
}
