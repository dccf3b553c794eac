package traceio

import (
	"bytes"
	"math/rand"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

// capture runs a paging workload over HPBD with logging and returns the
// captured trace.
func capture(t *testing.T) *Trace {
	t.Helper()
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes: 2 << 20, Swap: cluster.SwapHPBD, SwapBytes: 16 << 20,
		Servers: 1, LogRequests: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	q := workload.NewQuicksort(node.VM, "qs", 1<<20, rand.New(rand.NewSource(3)))
	env.Go("qs", func(p *sim.Proc) {
		node.Ready.Wait(p)
		if err := q.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	tr := FromLog(node.Queue.Stats().Log)
	if len(tr.Ops) == 0 {
		t.Fatal("captured empty trace")
	}
	return tr
}

func TestCaptureSaveLoadRoundTrip(t *testing.T) {
	tr := capture(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("ops %d != %d", len(got.Ops), len(tr.Ops))
	}
	for i := range got.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	r, w := tr.Bytes()
	if r <= 0 || w <= 0 {
		t.Errorf("trace traffic %d/%d; a paged sort must read and write", r, w)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(bytes.NewBufferString(`{"ops":[{"at":-5,"bytes":4096}]}`)); err == nil {
		t.Error("negative timestamp accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"ops":[{"at":0,"bytes":100}]}`)); err == nil {
		t.Error("non-sector-multiple size accepted")
	}
	if _, err := Load(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// Replaying a captured trace against different devices reproduces the
// paper's device ordering without re-running the workload.
// unpaced drops a trace's recorded pacing: replayed, every op is
// submitted as soon as its predecessor allows, measuring pure device
// capability.
func unpaced(t *Trace) *Trace {
	flat := &Trace{Ops: append([]Op(nil), t.Ops...)}
	for i := range flat.Ops {
		flat.Ops[i].At = 0
	}
	return flat
}

func TestReplayAcrossDevices(t *testing.T) {
	tr := capture(t)
	run := func(kind cluster.SwapKind) sim.Duration {
		env := sim.NewEnv()
		node, err := cluster.Build(env, cluster.Config{
			MemBytes: 2 << 20, Swap: kind, SwapBytes: 16 << 20, Servers: 1,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		var elapsed sim.Duration
		env.Go("replay", func(p *sim.Proc) {
			node.Ready.Wait(p)
			st, err := Replay(p, node.Queue, unpaced(tr))
			if err != nil {
				t.Errorf("replay on %v: %v", kind, err)
				return
			}
			elapsed = st.Elapsed
		})
		env.Run()
		env.Close()
		return elapsed
	}
	hpbdT := run(cluster.SwapHPBD)
	diskT := run(cluster.SwapDisk)
	if hpbdT <= 0 || diskT <= 0 {
		t.Fatal("replay did not run")
	}
	if diskT <= hpbdT {
		t.Errorf("disk replay (%v) should be slower than HPBD (%v)", diskT, hpbdT)
	}
}

func TestReplayPacingRespectsTimestamps(t *testing.T) {
	// A trace with two ops 10ms apart must take at least 10ms to replay
	// with pacing, and far less as-fast-as-possible.
	tr := &Trace{Ops: []Op{
		{At: 0, Write: true, Sector: 0, Bytes: 4096},
		{At: 10 * sim.Millisecond, Write: true, Sector: 8, Bytes: 4096, Sync: true},
	}}
	run := func(paced bool) sim.Duration {
		env := sim.NewEnv()
		node, err := cluster.Build(env, cluster.Config{
			MemBytes: 1 << 20, Swap: cluster.SwapHPBD, SwapBytes: 4 << 20, Servers: 1,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		var elapsed sim.Duration
		env.Go("replay", func(p *sim.Proc) {
			node.Ready.Wait(p)
			var st ReplayStats
			var rerr error
			if paced {
				st, rerr = Replay(p, node.Queue, tr)
			} else {
				st, rerr = Replay(p, node.Queue, unpaced(tr))
			}
			if rerr != nil {
				t.Errorf("replay: %v", rerr)
			}
			elapsed = st.Elapsed
		})
		env.Run()
		env.Close()
		return elapsed
	}
	paced, fast := run(true), run(false)
	if paced < 10*sim.Millisecond {
		t.Errorf("paced replay %v < trace span 10ms", paced)
	}
	if fast >= 10*sim.Millisecond {
		t.Errorf("fast replay %v should ignore the 10ms gap", fast)
	}
}

func TestReplayBeyondDeviceFails(t *testing.T) {
	tr := &Trace{Ops: []Op{{At: 0, Write: true, Sector: 1 << 30, Bytes: 4096}}}
	env := sim.NewEnv()
	node, err := cluster.Build(env, cluster.Config{
		MemBytes: 1 << 20, Swap: cluster.SwapHPBD, SwapBytes: 4 << 20, Servers: 1,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	env.Go("replay", func(p *sim.Proc) {
		node.Ready.Wait(p)
		if _, err := Replay(p, node.Queue, tr); err != ErrTraceTooLarge {
			t.Errorf("err = %v, want ErrTraceTooLarge", err)
		}
	})
	env.Run()
	env.Close()
	_ = blockdev.SectorSize
}
