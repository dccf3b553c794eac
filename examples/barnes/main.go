// Barnes: the paper's SPLASH-2 workload. A Barnes-Hut N-body simulation
// whose footprint slightly exceeds local memory runs over HPBD and over
// the disk; the light, scattered paging shows a smaller (but still real)
// remote-memory win than the sort.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

func run(kind cluster.SwapKind, mem int64, bodies int) sim.Duration {
	_, elapsed, err := cluster.Run(cluster.Config{
		MemBytes:  mem,
		Swap:      kind,
		SwapBytes: 32 << 20,
		Servers:   1,
	}, func(node *cluster.Node) []cluster.Proc {
		b := workload.NewBarnes(node.VM, "barnes", bodies, 2, rand.New(rand.NewSource(3)))
		return []cluster.Proc{{Name: "barnes", Run: b.Run}}
	})
	if err != nil {
		log.Fatal(err)
	}
	return elapsed[0]
}

func main() {
	const bodies = 74_900 // ~220 B/body: footprint a couple percent past 16 MB (light paging)
	fmt.Printf("Barnes-Hut: %d bodies, 2 steps, 16 MB local memory\n", bodies)
	local := run(cluster.SwapNone, 64<<20, bodies)
	fmt.Printf("  %-16s %v\n", "local memory:", local)
	for _, kind := range []cluster.SwapKind{cluster.SwapHPBD, cluster.SwapDisk} {
		e := run(kind, 16<<20, bodies)
		fmt.Printf("  %-16s %v  (%.2fx local)\n", kind.String()+":", e, float64(e)/float64(local))
	}
}
