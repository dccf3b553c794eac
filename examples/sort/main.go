// Sort: the paper's application benchmark. Sort 8 Mi random integers
// (32 MB) with only 16 MB of local memory and compare every swap backing
// the paper evaluates: abundant local memory, HPBD remote memory, NBD
// over IPoIB and GigE, and the local disk.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

const elems = 8 << 20 // 8 Mi int32 = 32 MB

func run(kind cluster.SwapKind, mem int64) sim.Duration {
	var q *workload.Quicksort
	_, elapsed, err := cluster.Run(cluster.Config{
		MemBytes:  mem,
		Swap:      kind,
		SwapBytes: 64 << 20,
		Servers:   1,
	}, func(node *cluster.Node) []cluster.Proc {
		q = workload.NewQuicksort(node.VM, "qsort", elems, rand.New(rand.NewSource(42)))
		return []cluster.Proc{{Name: "qsort", Run: q.Run}}
	})
	if err != nil {
		log.Fatal(err)
	}
	if !q.Sorted() {
		log.Fatal("output not sorted!")
	}
	return elapsed[0]
}

func main() {
	fmt.Println("quick sort: 8 Mi integers (32 MB), 16 MB local memory")
	local := run(cluster.SwapNone, 72<<20)
	fmt.Printf("  %-28s %v\n", "local memory (fits):", local)
	for _, kind := range []cluster.SwapKind{
		cluster.SwapHPBD, cluster.SwapNBDIPoIB, cluster.SwapNBDGigE, cluster.SwapDisk,
	} {
		e := run(kind, 16<<20)
		fmt.Printf("  %-28s %v  (%.2fx local)\n", kind.String()+":", e, float64(e)/float64(local))
	}
}
