// Quickstart: build a two-node simulated InfiniBand cluster — a compute
// node with 16 MB of memory and one memory server — register HPBD as the
// swap device, and run the paper's testswap microbenchmark against it,
// then against the local disk for comparison. With -trace, the HPBD run
// records a span timeline and writes it as Chrome trace-event JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/workload"
)

func run(kind cluster.SwapKind, trace bool) (sim.Duration, *telemetry.Registry) {
	node, elapsed, err := cluster.Run(cluster.Config{
		MemBytes:  16 << 20, // 16 MB of local memory
		Swap:      kind,
		SwapBytes: 32 << 20, // 32 MB swap area
		Servers:   1,
		Trace:     trace,
	}, func(node *cluster.Node) []cluster.Proc {
		// testswap writes a 32 MB array sequentially: twice local memory,
		// so half of it must stream out to the swap device.
		return []cluster.Proc{{Name: "testswap", Run: workload.NewTestswap(node.VM, 32<<20).Run}}
	})
	if err != nil {
		log.Fatal(err)
	}
	return elapsed[0], node.Tel
}

func main() {
	tracePath := flag.String("trace", "", "write a Chrome trace of the HPBD run to this path")
	flag.Parse()

	fmt.Println("testswap: 32 MB sequential store, 16 MB local memory")
	hpbd, traced := run(cluster.SwapHPBD, *tracePath != "")
	disk, _ := run(cluster.SwapDisk, false)
	fmt.Printf("  swap to remote memory (HPBD/InfiniBand): %v\n", hpbd)
	fmt.Printf("  swap to local disk:                      %v\n", disk)
	fmt.Printf("  remote memory is %.1fx faster\n", float64(disk)/float64(hpbd))

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := traced.Tracer().WriteJSON(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("  wrote %s (%d events; open at chrome://tracing)\n",
			*tracePath, traced.Tracer().Len())
	}
}
