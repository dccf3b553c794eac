package hpbd

import (
	"math/rand"
	"testing"

	"hpbd/internal/sim"
)

// fig6Mix models the testswap request-size distribution (Fig. 6): mostly
// near-128K writes with a tail of page-cluster-sized reads. Sizes are
// sector-aligned like real pool traffic.
func fig6Mix(rnd *rand.Rand) int {
	if rnd.Intn(100) < 70 {
		return (120 + rnd.Intn(9)) * 1024 // 120K..128K
	}
	return (4 + 4*rnd.Intn(8)) * 1024 // 4K..32K
}

// benchPool exercises alloc/free churn with up to outstanding buffers in
// flight. outstanding=16 is the regime the client's credit window
// produces; larger values model a shared pool under many devices, where
// the free list fragments and the first-fit scan lengthens.
func benchPool(b *testing.B, poolBytes, outstanding int) {
	env := sim.NewEnv()
	pool := NewBufferPool(env, poolBytes)
	rnd := rand.New(rand.NewSource(1))
	held := make([]int, 0, outstanding)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(held) == cap(held) || (len(held) > 0 && rnd.Intn(3) == 0) {
			k := rnd.Intn(len(held))
			pool.Free(held[k])
			held = append(held[:k], held[k+1:]...)
			continue
		}
		off, err := pool.TryAlloc(fig6Mix(rnd))
		if err != nil {
			// Pool momentarily exhausted: drain one and retry next round.
			k := rnd.Intn(len(held))
			pool.Free(held[k])
			held = append(held[:k], held[k+1:]...)
			continue
		}
		held = append(held, off)
	}
	b.StopTimer()
	for _, off := range held {
		pool.Free(off)
	}
	env.Close()
}

// BenchmarkPool measures the allocator on the Fig. 6 mix at the paper's
// scale (1 MB pool, credit-window concurrency).
func BenchmarkPool(b *testing.B) {
	benchPool(b, 1<<20, 16)
}

// BenchmarkPoolFragmented runs the same mix on a large shared pool with
// 1024 buffers in flight, where hundreds of free extents accumulate.
func BenchmarkPoolFragmented(b *testing.B) {
	benchPool(b, 512<<20, 1024)
}
