package experiments

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// AblationODP compares pinned registration against on-demand paging on
// the register-transfer-deregister cycle every cache-missing large request
// pays. Sequential cycles put the register path on the critical path
// (pipelined throughput hides it behind the wire — the hybrid device's MR
// cache exists for exactly that reason): pinned mode pays the full
// Figure 3 pin-down before the first byte moves, ODP mode starts the wire
// almost immediately and pays bounded first-touch faults instead.
func AblationODP(c Config) (*Result, error) {
	res := &Result{
		ID:    "ablation-odp",
		Title: "Register-transfer-deregister cycle: pinned MRs vs on-demand paging",
		Unit:  "us",
		PaperNote: "extension of §4.1: ODP removes the pin-down from the register " +
			"path, so cache-missing large requests stop paying Fig. 3 prices",
	}
	const reps = 32
	for _, mode := range []struct {
		label string
		odp   bool
	}{{"pinned", false}, {"odp", true}} {
		for _, size := range []int{32 << 10, 128 << 10} {
			env := sim.NewEnv()
			icfg := ib.DefaultConfig()
			reg := telemetry.New(env)
			icfg.Telemetry = reg
			f := ib.NewFabric(env, icfg)
			cli, srv := f.NewHCA("cli"), f.NewHCA("srv")
			sendCQ, recvCQ := cli.CreateCQ("cli-send"), cli.CreateCQ("cli-recv")
			qp := cli.CreateQP(sendCQ, recvCQ)
			ib.Connect(qp, srv.CreateQP(srv.CreateCQ("srv-send"), srv.CreateCQ("srv-recv")))
			dst := srv.RegisterMRAtSetup(make([]byte, size))
			data := make([]byte, size)
			var elapsed sim.Duration
			var runErr error
			env.Go("cycle", func(p *sim.Proc) {
				start := p.Now()
				for i := 0; i < reps; i++ {
					var mr *ib.MR
					if mode.odp {
						mr = cli.RegisterODP(p, data)
					} else {
						mr = cli.RegisterMR(p, data)
					}
					err := qp.PostSend(p, ib.SendWR{
						ID: uint64(i), Op: ib.OpRDMAWrite,
						Local:     ib.Segment{MR: mr, Off: 0, Len: size},
						RemoteKey: dst.RKey,
					})
					if err != nil {
						runErr = err
						return
					}
					if e := sendCQ.WaitPoll(p); e.Status != ib.StatusSuccess {
						runErr = fmt.Errorf("write %d: %v", i, e.Status)
						return
					}
					cli.DeregisterMR(p, mr)
				}
				elapsed = p.Now().Sub(start)
			})
			env.Run()
			env.Close()
			if runErr != nil {
				return nil, fmt.Errorf("%s/%s/%d: %w", res.ID, mode.label, size, runErr)
			}
			res.Rows = append(res.Rows, Row{
				Label: fmt.Sprintf("%s/%dK", mode.label, size/1024),
				Value: elapsed.Micros() / reps,
				Stat:  fmt.Sprintf("faults %d", reg.Counter("odp.faults").Value()),
			})
		}
	}
	return res, nil
}

// AblationMerge compares one-WR-per-request issue against adjacent-WR
// merging under a backlog of contiguous maximum-size requests. The merged
// mode folds runs of block-layer requests into single carrier WRs: one
// credit, one WQE, one server store op per run instead of per request,
// with the payload gathered through the HCA instead of copied.
func AblationMerge(c Config) (*Result, error) {
	res := &Result{
		ID:    "ablation-merge",
		Title: "Swap-out backlog: per-request WRs vs adjacent-WR merging",
		Unit:  "us",
		PaperNote: "beyond §4.2: the block elevator stops at the 128K request " +
			"bound; merging adjacent requests at the driver recovers the rest",
	}
	const (
		writes = 64
		size   = 4 << 10
		// Submission pacing just above the block layer's per-request
		// dispatch cost: each page reaches the driver as its own request
		// (the elevator merges only what is pending together), leaving the
		// driver-level merge window as the only coalescing stage — the
		// paced trickle a swap-out stream produces under memory pressure.
		pace = 10 * sim.Microsecond
	)
	for _, mode := range []struct {
		label  string
		window int
	}{{"merge-off", 1}, {"merge-8", 8}} {
		ccfg := hpbd.DefaultClientConfig()
		ccfg.Credits = 2 // tight window: the backlog is what builds runs
		ccfg.MergeWindow = mode.window
		data := make([]byte, size)
		elapsed, rig, err := runDatapath(ib.DefaultConfig(), ccfg, hpbd.DefaultServerConfig, 64<<20, func(p *sim.Proc, rig *cluster.Node) error {
			ios := make([]*blockdev.IO, 0, writes)
			for i := 0; i < writes; i++ {
				w, serr := rig.Queue.Submit(true, int64(i*size)/blockdev.SectorSize, data)
				if serr != nil {
					return serr
				}
				ios = append(ios, w)
				rig.Queue.Unplug()
				p.Sleep(pace)
			}
			for _, w := range ios {
				if werr := w.Wait(p); werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, mode.label, err)
		}
		res.Rows = append(res.Rows, Row{
			Label: mode.label,
			Value: elapsed.Micros() / writes,
			Stat:  fmt.Sprintf("wire ops %d", rig.HPBDServers[0].Stats().Writes),
		})
	}
	return res, nil
}

// AblationCrossover compares the static Figure 3 hybrid threshold against
// the adaptive controller on a workload the static point misroutes:
// repeated 64K transfers sit below the 127K design point, so the static
// device copies every one of them through the pool, while the controller
// measures the MR cache's reuse and pulls the threshold under them.
func AblationCrossover(c Config) (*Result, error) {
	res := &Result{
		ID:    "ablation-crossover",
		Title: "64K request stream: static Fig. 3 threshold vs adaptive controller",
		Unit:  "us",
		PaperNote: "the Fig. 3 crossover assumes one-shot registration; measured " +
			"reuse moves it, and the controller follows the measurement",
	}
	const (
		smalls = 16 // no-signal phase: the controller must probe, not stall
		larges = 128
		size   = 64 << 10
	)
	for _, mode := range []struct {
		label    string
		adaptive bool
	}{{"static", false}, {"adaptive", true}} {
		ccfg := hpbd.DefaultClientConfig()
		ccfg.HybridDataPath = true
		ccfg.AdaptiveCrossover = mode.adaptive
		ccfg.CrossoverWindow = 8
		elapsed, rig, err := runDatapath(ib.DefaultConfig(), ccfg, hpbd.DefaultServerConfig, 64<<20, func(p *sim.Proc, rig *cluster.Node) error {
			small := make([]byte, 4096)
			for i := 0; i < smalls; i++ {
				w, serr := rig.Queue.Submit(true, int64(i*64), small)
				if serr != nil {
					return serr
				}
				rig.Queue.Unplug()
				if werr := w.Wait(p); werr != nil {
					return werr
				}
			}
			data := make([]byte, size)
			off := int64(8<<20) / blockdev.SectorSize
			for i := 0; i < larges; i++ {
				w, serr := rig.Queue.Submit(true, off, data)
				if serr != nil {
					return serr
				}
				rig.Queue.Unplug()
				if werr := w.Wait(p); werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, mode.label, err)
		}
		res.Rows = append(res.Rows, Row{
			Label: mode.label,
			Value: elapsed.Micros() / (smalls + larges),
			Stat: fmt.Sprintf("large %d thr %d", rig.HPBD.Stats().HybridLarge,
				rig.HPBD.HybridThreshold()),
		})
	}
	return res, nil
}
