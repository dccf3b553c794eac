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

func twoSorts(mem int64, servers int) [2]sim.Duration {
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes:  mem,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 64 << 20,
		Servers:   servers,
	})
	if err != nil {
		log.Fatalf("build node: %v", err)
	}
	var times [2]sim.Duration
	for k := 0; k < 2; k++ {
		k := k
		q := workload.NewQuicksort(node.VM, fmt.Sprintf("qsort%d", k), elems,
			rand.New(rand.NewSource(int64(k+1))))
		env.Go(fmt.Sprintf("inst%d", k), func(p *sim.Proc) {
			node.Ready.Wait(p)
			t0 := p.Now()
			if err := q.Run(p); err != nil {
				log.Fatalf("qsort %d: %v", k, err)
			}
			times[k] = p.Now().Sub(t0)
		})
	}
	env.Run()
	env.Close()
	return times
}

func oneSortServers(servers int) sim.Duration {
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes:  16 << 20,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 32 << 20,
		Servers:   servers,
	})
	if err != nil {
		log.Fatalf("build node: %v", err)
	}
	q := workload.NewQuicksort(node.VM, "qsort", 8<<20, rand.New(rand.NewSource(7)))
	var elapsed sim.Duration
	env.Go("qsort", func(p *sim.Proc) {
		node.Ready.Wait(p)
		t0 := p.Now()
		if err := q.Run(p); err != nil {
			log.Fatalf("qsort: %v", err)
		}
		elapsed = p.Now().Sub(t0)
	})
	env.Run()
	env.Close()
	return elapsed
}

// resizeFleet runs a sort on an elastic two-server node, grows the
// fleet mid-run, then drains and removes a founding server once the
// sort is done — the full resize lifecycle with swap traffic flowing.
func resizeFleet() {
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes:  16 << 20,
		Swap:      cluster.SwapHPBD,
		SwapBytes: 32 << 20,
		Servers:   2,
	})
	if err != nil {
		log.Fatalf("build node: %v", err)
	}
	q := workload.NewQuicksort(node.VM, "qsort", 8<<20, rand.New(rand.NewSource(7)))
	env.Go("qsort", func(p *sim.Proc) {
		node.Ready.Wait(p)
		t0 := p.Now()
		if err := q.Run(p); err != nil {
			log.Fatalf("qsort: %v", err)
		}
		fmt.Printf("  sort finished in %v (fleet grew mid-run)\n", p.Now().Sub(t0))
	})
	env.Go("membership", func(p *sim.Proc) {
		node.Ready.Wait(p)
		p.Sleep(20 * sim.Millisecond) // let the sort start swapping
		t0 := p.Now()
		// The newcomer is twice a founder's size: big enough that its
		// leftover headroom can absorb a founder's ranges when we
		// decommission mem0 below (founders boot fully allocated).
		if _, err := node.GrowFleet(p, 32<<20); err != nil {
			log.Fatalf("grow fleet: %v", err)
		}
		fmt.Printf("  grew to 3 servers, rebalanced in %v\n", p.Now().Sub(t0))
		t0 = p.Now()
		if err := node.Decommission(p, "mem0"); err != nil {
			log.Fatalf("decommission mem0: %v", err)
		}
		fmt.Printf("  drained and removed mem0 in %v\n", p.Now().Sub(t0))
	})
	env.Run()
	env.Close()
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
		fmt.Printf("  %2d servers: %v\n", n, oneSortServers(n))
	}
	fmt.Println("\nresizing the fleet under a running sort (2 -> 3 -> 2 servers):")
	resizeFleet()
}
