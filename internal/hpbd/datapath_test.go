package hpbd

import (
	"bytes"
	"fmt"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/placement"
	"hpbd/internal/sim"
)

// checkSegs validates the shared split invariants: segments cover the
// request contiguously, in order, with no overlap and no spill past a
// server area.
func checkSegs(t *testing.T, d *Device, segs []placement.Segment, n int) {
	t.Helper()
	off := 0
	for i, sg := range segs {
		if sg.Off != off {
			t.Errorf("seg %d starts at request offset %d, want %d", i, sg.Off, off)
		}
		if sg.Length <= 0 {
			t.Errorf("seg %d has length %d", i, sg.Length)
		}
		size := d.dir.Servers()[sg.Server].AreaBytes
		if sg.Offset < 0 || sg.Offset+int64(sg.Length) > size {
			t.Errorf("seg %d [%d,+%d) spills out of its %d-byte area",
				i, sg.Offset, sg.Length, size)
		}
		off += sg.Length
	}
	if off != n {
		t.Errorf("segments cover %d bytes, want %d", off, n)
	}
}

// The blocked layout's boundary cases: a request that straddles exactly
// two server ranges symmetrically, and single-sector requests hugging
// both sides of a range edge.
func TestSplitExactBoundaries(t *testing.T) {
	const area = 1 << 20
	tb := newBed(t, bedOpts{servers: 2, area: area})
	defer tb.env.Close()
	d := tb.dev

	// 8 KB centred on the boundary: exactly 4 KB to each server.
	segs := d.dir.SplitInto(nil, area-4096, 8192)
	checkSegs(t, d, segs, 8192)
	if len(segs) != 2 {
		t.Fatalf("straddle split into %d segments, want 2", len(segs))
	}
	if segs[0].Server != 0 || segs[0].Offset != area-4096 || segs[0].Length != 4096 {
		t.Errorf("left piece = {server %d off %d len %d}, want {0, %d, 4096}",
			segs[0].Server, segs[0].Offset, segs[0].Length, area-4096)
	}
	if segs[1].Server != 1 || segs[1].Offset != 0 || segs[1].Length != 4096 {
		t.Errorf("right piece = {off %d len %d}, want {0, 4096}", segs[1].Offset, segs[1].Length)
	}

	// One sector each side of the edge must not split.
	last := d.dir.SplitInto(nil, area-blockdev.SectorSize, blockdev.SectorSize)
	if len(last) != 1 || last[0].Server != 0 || last[0].Offset != area-blockdev.SectorSize {
		t.Errorf("last sector of range 0 split wrong: %+v", last)
	}
	first := d.dir.SplitInto(nil, area, blockdev.SectorSize)
	if len(first) != 1 || first[0].Server != 1 || first[0].Offset != 0 {
		t.Errorf("first sector of range 1 split wrong: %+v", first)
	}

	// The device's last sector is reachable; one byte past it is not.
	if segs := d.dir.SplitInto(nil, 2*area-blockdev.SectorSize, blockdev.SectorSize); len(segs) != 1 {
		t.Errorf("device-tail sector split into %d segments", len(segs))
	}
	if segs := d.dir.SplitInto(nil, 2*area-blockdev.SectorSize, 2*blockdev.SectorSize); segs != nil {
		t.Error("split past the device end did not fail")
	}
}

// The Figure 10 layout: 16 servers, blocked. A device-spanning range
// yields exactly one segment per server in address order, and every
// boundary sector lands on the right store.
func TestSplitSixteenServerLayout(t *testing.T) {
	const area = 256 * 1024
	tb := newBed(t, bedOpts{servers: 16, area: area})
	d := tb.dev

	segs := d.dir.SplitInto(nil, 0, 16*area)
	checkSegs(t, d, segs, 16*area)
	if len(segs) != 16 {
		t.Fatalf("full-device split into %d segments, want 16", len(segs))
	}
	for i, sg := range segs {
		if sg.Server != i || sg.Offset != 0 || sg.Length != area {
			t.Errorf("seg %d = {offset %d len %d}, want full area %d on server %d",
				i, sg.Offset, sg.Length, area, i)
		}
	}

	// Integration: write one page to the last page of every range; each
	// must land at the tail of its own server's store.
	tb.run(func(p *sim.Proc) {
		var ios []*blockdev.IO
		for i := 0; i < 16; i++ {
			sector := (int64(i+1)*area - 4096) / blockdev.SectorSize
			io, err := tb.queue.Submit(true, sector, pattern(4096, byte(i)))
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			ios = append(ios, io)
			tb.queue.Unplug()
		}
		for i, io := range ios {
			if err := io.Wait(p); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	})
	for i, srv := range tb.servers {
		if st := srv.Stats(); st.Writes != 1 {
			t.Errorf("server %d writes = %d, want 1", i, st.Writes)
		}
		if !bytes.Equal(srv.Store().Peek(area-4096, 4096), pattern(4096, byte(i))) {
			t.Errorf("server %d tail page corrupted", i)
		}
	}
	if tb.dev.Stats().Splits != 0 {
		t.Error("page-sized edge writes must not split")
	}
}

// The striped ablation layout: chunks rotate across servers, and a
// request crossing a stripe boundary splits at it.
func TestSplitStripedBoundaries(t *testing.T) {
	const area = 1 << 20
	const stripe = 64 * 1024
	ccfg := DefaultClientConfig()
	ccfg.StripeBytes = stripe
	tb := newBed(t, bedOpts{servers: 2, area: area, client: ccfg})
	defer tb.env.Close()
	d := tb.dev

	// Two full stripes starting at a stripe boundary alternate servers.
	segs := d.dir.SplitInto(nil, 0, 2*stripe)
	checkSegs(t, d, segs, 2*stripe)
	if len(segs) != 2 || segs[0].Server != 0 || segs[1].Server != 1 {
		t.Fatalf("striped split = %+v, want chunk 0 on server 0, chunk 1 on server 1", segs)
	}

	// A straddle of the stripe edge splits there; the second chunk of a
	// round maps to server 1 at the same row offset.
	segs = d.dir.SplitInto(nil, stripe-4096, 8192)
	checkSegs(t, d, segs, 8192)
	if len(segs) != 2 {
		t.Fatalf("stripe straddle split into %d segments, want 2", len(segs))
	}
	if segs[0].Server != 0 || segs[0].Offset != stripe-4096 {
		t.Errorf("left piece offset %d on wrong server", segs[0].Offset)
	}
	if segs[1].Server != 1 || segs[1].Offset != 0 {
		t.Errorf("right piece offset %d on wrong server", segs[1].Offset)
	}

	// Chunk 2 wraps to server 0, row 1: area offset stripe.
	segs = d.dir.SplitInto(nil, 2*stripe, 4096)
	if len(segs) != 1 || segs[0].Server != 0 || segs[0].Offset != stripe {
		t.Errorf("round-robin wrap = %+v, want server 0 at area offset %d", segs, stripe)
	}
}

// The hybrid data path must route large requests around the pool: data
// stays correct, the pool is never touched, and the MR reuse cache turns
// repeat traffic into hits.
func TestHybridLargeBypassesPool(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.HybridDataPath = true
	tb := newBed(t, bedOpts{area: 8 << 20, client: ccfg})
	const size = 128 * 1024
	const reps = 6
	tb.run(func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			want := pattern(size, byte(i))
			sector := int64(i) * 2 * size / blockdev.SectorSize
			if err := tb.do(p, true, sector, append([]byte(nil), want...)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			buf := make([]byte, size)
			if err := tb.do(p, false, sector, buf); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("rep %d: hybrid round trip corrupted data", i)
			}
		}
	})
	st := tb.dev.Stats()
	if st.HybridLarge != 2*reps {
		t.Errorf("HybridLarge = %d, want %d (every request is at the crossover)", st.HybridLarge, 2*reps)
	}
	if peak := tb.dev.Pool().PeakInUse; peak != 0 {
		t.Errorf("pool peak = %d bytes; large requests must bypass the pool entirely", peak)
	}
	if tb.dev.mrc.Idle() == 0 {
		t.Error("MR cache idle list empty after traffic; buffers are not being reused")
	}
	// Sequential 128K requests reuse one cached MR: one cold miss, the
	// rest hits.
	if hits, misses := tb.dev.mrc.hits.Value(), tb.dev.mrc.misses.Value(); misses != 1 || hits != 2*reps-1 {
		t.Errorf("MR cache hits/misses = %d/%d, want %d/1", hits, misses, 2*reps-1)
	}
}

// Below the threshold the hybrid device must behave exactly like the
// default: pool-staged, no MR cache activity.
func TestHybridSmallStaysOnPool(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.HybridDataPath = true
	tb := newBed(t, bedOpts{client: ccfg})
	want := pattern(4096, 5)
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, append([]byte(nil), want...)); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	if st := tb.dev.Stats(); st.HybridLarge != 0 {
		t.Errorf("HybridLarge = %d for a 4K request, want 0", st.HybridLarge)
	}
	if tb.dev.Pool().PeakInUse == 0 {
		t.Error("small request did not stage through the pool")
	}
	if !bytes.Equal(tb.servers[0].Store().Peek(0, 4096), want) {
		t.Error("server store does not hold the written bytes")
	}
}

// Doorbell batching on the client sender: a backlog of small requests
// must reach the server in fewer doorbells than requests, with data
// intact; unbatched, doorbells equal physical requests.
func TestClientDoorbellBatching(t *testing.T) {
	const writes = 64
	run := func(batch int) DeviceStats {
		ccfg := DefaultClientConfig()
		ccfg.Credits = 8
		ccfg.DoorbellBatch = batch
		tb := newBed(t, bedOpts{area: 16 << 20, client: ccfg})
		tb.run(func(p *sim.Proc) {
			var ios []*blockdev.IO
			for i := 0; i < writes; i++ {
				// Discontiguous sectors so the queue cannot merge.
				io, err := tb.queue.Submit(true, int64(i*64), pattern(4096, byte(i)))
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				ios = append(ios, io)
			}
			tb.queue.Unplug()
			for i, io := range ios {
				if err := io.Wait(p); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			// Read everything back.
			for i := 0; i < writes; i++ {
				buf := make([]byte, 4096)
				if err := tb.do(p, false, int64(i*64), buf); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(buf, pattern(4096, byte(i))) {
					t.Fatalf("page %d corrupted under batch=%d", i, batch)
				}
			}
		})
		return tb.dev.Stats()
	}
	plain := run(1)
	if plain.Doorbells != plain.PhysReqs {
		t.Errorf("unbatched doorbells = %d, want %d (one per request)",
			plain.Doorbells, plain.PhysReqs)
	}
	batched := run(8)
	if batched.PhysReqs != plain.PhysReqs {
		t.Fatalf("batched run sent %d phys reqs vs %d; not comparable",
			batched.PhysReqs, plain.PhysReqs)
	}
	if batched.Doorbells >= plain.Doorbells {
		t.Errorf("batched doorbells = %d, want < %d", batched.Doorbells, plain.Doorbells)
	}
}

// A request whose link is declared dead while it waits for a credit must
// be rerouted, not posted to the closed QP: six concurrent writes against
// a server that crashed before any traffic, two credits, no watchdog.
// The first two post and are flushed back; failLink requeues what was
// sent. The request stalled on a credit at that instant was not yet
// marked sent — a chained issue that posts it anyway strands it in
// pending for ever, holding its credit.
func TestCreditStallLinkDeathSettles(t *testing.T) {
	const writers = 6
	for _, batch := range []int{0, 2} {
		ccfg := DefaultClientConfig()
		ccfg.Credits = 2
		ccfg.DoorbellBatch = batch
		cb := newBed(t, bedOpts{client: ccfg, shared: true, fallback: true, faults: "crash@1us=mem0"})
		settled := 0
		for i := 0; i < writers; i++ {
			sector := int64(i * 8)
			cb.env.Go("writer", func(p *sim.Proc) {
				p.Sleep(10 * sim.Microsecond)
				r := blockdev.NewRequest(cb.env, true, sector, pattern(4096, byte(sector)))
				cb.dev.Submit(p, r)
				if err := r.Wait(p); err != nil {
					t.Errorf("batch=%d: write at sector %d: %v", batch, sector, err)
				}
				settled++
			})
		}
		cb.env.Run()
		cb.env.Close()
		if settled != writers {
			t.Errorf("batch=%d: %d of %d writes settled", batch, settled, writers)
		}
		if got := cb.dev.Stats().Fallbacks; got != writers {
			t.Errorf("batch=%d: Fallbacks = %d, want %d", batch, got, writers)
		}
		assertMergeClean(t, cb)
	}
}

// The guard for the single data path: every combination of doorbell
// chaining, WR merging, the hybrid MR path and pinned or on-demand-paging
// MRs — with and without a server crash absorbed by the fallback disk —
// must keep the protocol invariants:
// read-back equals written, credits restored, nothing pending, no pool
// leak, and the lifecycle stages of every record sum to its end-to-end.
func TestDataPathFeatureMatrix(t *testing.T) {
	const (
		blocks     = 24
		blockBytes = 32 * 1024
		credits    = 4
	)
	secPerBlock := int64(blockBytes / blockdev.SectorSize)
	for _, doorbell := range []int{0, 4} {
		for _, merge := range []int{0, 4} {
			for _, hybrid := range []bool{false, true} {
				for _, spec := range []string{"", "crash@600us=mem0"} {
					for _, odp := range []bool{false, true} {
						if odp && !hybrid && merge <= 1 {
							continue // no MR path for ODP to act on
						}
						name := fmt.Sprintf("doorbell=%d/merge=%d/hybrid=%v/odp=%v/fault=%q", doorbell, merge, hybrid, odp, spec)
						t.Run(name, func(t *testing.T) {
							ccfg := DefaultClientConfig()
							if spec != "" {
								// In-flight requests die silently with the server;
								// only the watchdog can reclaim their credits.
								ccfg = recoveryConfig()
							}
							ccfg.Credits = credits
							ccfg.DoorbellBatch = doorbell
							ccfg.MergeWindow = merge
							ccfg.HybridDataPath = hybrid
							ccfg.HybridThresholdBytes = blockBytes / 2
							ccfg.ODP = odp
							cb := newBed(t, bedOpts{area: 2 << 20, client: ccfg, shared: true, fallback: spec != "", faults: spec})
							// Straight into the driver, all at once: the elevator
							// would pre-merge these, and the backlog is what gives
							// the sender runs to merge and chains to batch.
							writeAll := func(p *sim.Proc, seed byte) {
								reqs := make([]*blockdev.Request, blocks)
								for i := range reqs {
									reqs[i] = blockdev.NewRequest(cb.env, true, int64(i)*secPerBlock, pattern(blockBytes, seed+byte(i)))
									cb.dev.Submit(p, reqs[i])
								}
								for i, r := range reqs {
									if err := r.Wait(p); err != nil {
										t.Errorf("write %d: %v", i, err)
									}
								}
							}
							cb.run(func(p *sim.Proc) {
								writeAll(p, 3)
								seed := byte(3)
								if spec != "" {
									// Ranges that lived only on the dead server
									// regain an authoritative copy.
									seed = 11
									writeAll(p, seed)
								}
								cb.verifyBlocks(t, p, blocks, blockBytes, seed)
							})
							st := cb.dev.Stats()
							if cb.servers[0].Stats().Writes == 0 {
								t.Error("no write reached the server; the case exercises nothing")
							}
							if merge > 1 && cb.reg.Counter("hpbd.merge.wrs").Value() == 0 {
								t.Error("merge window armed but no carrier WR was built")
							}
							if doorbell > 1 && merge <= 1 && st.Doorbells >= st.PhysReqs {
								t.Errorf("doorbells = %d for %d requests; chaining never engaged", st.Doorbells, st.PhysReqs)
							}
							if hybrid && st.HybridLarge == 0 && merge <= 1 {
								t.Error("hybrid path armed but never taken")
							}
							// After a crash the cached MRs may be ones the server
							// never touched, so residency is only required without.
							if windows := cb.dev.InvalidateODP(); !odp && windows > 0 || odp && spec == "" && windows == 0 {
								t.Errorf("odp=%v but %d ODP windows were resident after MR-path traffic", odp, windows)
							}
							if spec != "" && (st.LinkFailures != 1 || st.Fallbacks == 0 || cb.dev.Failed()) {
								t.Errorf("crash not absorbed: link failures=%d fallbacks=%d failed=%v",
									st.LinkFailures, st.Fallbacks, cb.dev.Failed())
							}
							assertMergeClean(t, cb)
							assertExactPartition(t, cb.dev)
						})
					}
				}
			}
		}
	}
}
