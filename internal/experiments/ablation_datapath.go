package experiments

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
)

// runDatapath drives an HPBD device directly through the block queue of
// a VM-less node, which is what the data-path ablations need: the copy vs
// register decision and the doorbell cost live entirely below the VM. fn
// is the rig's only workload process; its virtual time is returned.
func runDatapath(ibcfg ib.Config, ccfg hpbd.ClientConfig, scfg func(int64) hpbd.ServerConfig, areaBytes int64,
	fn func(p *sim.Proc, rig *cluster.Node) error) (sim.Duration, *cluster.Node, error) {
	cfg := cluster.Config{
		Swap: cluster.SwapHPBD, SwapBytes: areaBytes, Servers: 1,
		IB: &ibcfg, Client: &ccfg, ServerCfg: scfg,
	}
	rig, elapsed, err := cluster.Run(cfg, func(rig *cluster.Node) []cluster.Proc {
		return []cluster.Proc{{Name: "workload", Run: func(p *sim.Proc) error { return fn(p, rig) }}}
	})
	if err != nil {
		return 0, rig, err
	}
	return elapsed[0], rig, nil
}

// AblationHybrid compares the paper's copy-into-pool data path against the
// hybrid path that registers large payloads on the fly through a reusable
// MR cache. Sequential round trips expose the client-side copy, which
// pipelined throughput hides behind the wire time; the hybrid win should
// appear at 128 K (above the Fig. 3 crossover) and nowhere below it.
func AblationHybrid(c Config) (*Result, error) {
	res := &Result{
		ID:    "ablation-hybrid",
		Title: "Sequential request latency: copy-into-pool vs hybrid copy/register",
		Unit:  "us",
		PaperNote: "extension of §4.1: with MR reuse the Fig. 3 crossover drops " +
			"below 128K, so the largest swap requests should favor registration",
	}
	const reps = 16
	for _, mode := range []struct {
		label  string
		hybrid bool
	}{{"copy", false}, {"hybrid", true}} {
		for _, size := range []int{4 << 10, 32 << 10, 64 << 10, 128 << 10} {
			ccfg := hpbd.DefaultClientConfig()
			ccfg.HybridDataPath = mode.hybrid
			data := make([]byte, size)
			elapsed, rig, err := runDatapath(ib.DefaultConfig(), ccfg, hpbd.DefaultServerConfig, 8<<20, func(p *sim.Proc, rig *cluster.Node) error {
				for i := 0; i < reps; i++ {
					off := int64(i*size) / blockdev.SectorSize
					w, serr := rig.Queue.Submit(true, off, data)
					if serr != nil {
						return serr
					}
					rig.Queue.Unplug()
					if werr := w.Wait(p); werr != nil {
						return werr
					}
					rd, serr := rig.Queue.Submit(false, off, data)
					if serr != nil {
						return serr
					}
					rig.Queue.Unplug()
					if rerr := rd.Wait(p); rerr != nil {
						return rerr
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%d: %w", res.ID, mode.label, size, err)
			}
			st := rig.HPBD.Stats()
			row := Row{
				Label: fmt.Sprintf("%s/%dK", mode.label, size/1024),
				Value: elapsed.Micros() / (2 * reps),
			}
			if mode.hybrid {
				row.Stat = fmt.Sprintf("large %d", st.HybridLarge)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// AblationDoorbell measures the host CPU spent ringing doorbells with and
// without chained submission, under a burst of small writes that keeps the
// credit window full (which is what builds client-side chains) and all
// four server workers busy (which builds server-side chains).
func AblationDoorbell(c Config) (*Result, error) {
	res := &Result{
		ID:    "ablation-doorbell",
		Title: "Doorbell host overhead: per-WQE posts vs chained submission",
		Unit:  "us",
		PaperNote: "extension of §4.2: one doorbell per chain cuts per-request " +
			"host cost; the wire time is unchanged",
	}
	const (
		writes = 256
		size   = 4 << 10
	)
	for _, batch := range []int{1, 8} {
		ibcfg := ib.DefaultConfig()
		ibcfg.PerDoorbell = ibcfg.PerWQE
		ccfg := hpbd.DefaultClientConfig()
		ccfg.Credits = 8
		ccfg.DoorbellBatch = batch
		scfg := func(area int64) hpbd.ServerConfig {
			sc := hpbd.DefaultServerConfig(area)
			sc.DoorbellBatch = batch
			return sc
		}
		data := make([]byte, size)
		// Stride double the request size so the block queue cannot merge
		// neighbors back into 128K requests: the burst must reach the
		// driver as `writes` individual small requests.
		stride := int64(2*size) / blockdev.SectorSize
		elapsed, rig, err := runDatapath(ibcfg, ccfg, scfg, 8<<20, func(p *sim.Proc, rig *cluster.Node) error {
			ios := make([]*blockdev.IO, 0, writes)
			for i := 0; i < writes; i++ {
				w, serr := rig.Queue.Submit(true, int64(i)*stride, data)
				if serr != nil {
					return serr
				}
				ios = append(ios, w)
			}
			rig.Queue.Unplug()
			for _, w := range ios {
				if werr := w.Wait(p); werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s/batch-%d: %w", res.ID, batch, err)
		}
		st := rig.HPBD.Stats()
		doorbells := st.Doorbells
		for _, srv := range rig.HPBDServers {
			doorbells += srv.Stats().Doorbells
		}
		overhead := sim.Duration(doorbells) * ibcfg.PerDoorbell
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("batch-%d", batch),
			Value: overhead.Micros() / float64(st.PhysReqs),
			Stat: fmt.Sprintf("doorbells %d reqs %d elapsed %.3fms",
				doorbells, st.PhysReqs, elapsed.Seconds()*1e3),
		})
	}
	return res, nil
}
