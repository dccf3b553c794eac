package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/faultsim"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

func mustSpec(t *testing.T, spec string) *faultsim.Schedule {
	t.Helper()
	s, err := faultsim.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return s
}

func chaosPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

// TestMirroredCrashNoCorruption is the RAID-layer integrity check:
// writes stream through the mirrored swap device while one replica's
// only server crashes mid-stream, and every block must read back intact
// from the survivor — zero corruption, with the loss visible as degraded
// writes on the mirror and a link failure on the dead replica.
func TestMirroredCrashNoCorruption(t *testing.T) {
	const (
		blocks     = 32
		blockBytes = 4096
	)
	secPerBlock := int64(blockBytes / blockdev.SectorSize)
	node, _, err := Run(Config{
		MemBytes:  1 << 20,
		Swap:      SwapHPBD,
		SwapBytes: 4 << 20,
		Servers:   1,
		Mirror:    true,
		Faults:    mustSpec(t, "crash@300us=mem0"),
	}, func(node *Node) []Proc {
		return []Proc{{Name: "chaos", Run: func(p *sim.Proc) error {
			for i := 0; i < blocks; i++ {
				w, err := node.Queue.Submit(true, int64(i)*secPerBlock, chaosPattern(blockBytes, byte(i)))
				if err != nil {
					return fmt.Errorf("submit write %d: %w", i, err)
				}
				node.Queue.Unplug()
				if err := w.Wait(p); err != nil {
					return fmt.Errorf("write %d: %w", i, err)
				}
				p.Sleep(20 * sim.Microsecond) // stretch the stream across the crash
			}
			for i := 0; i < blocks; i++ {
				buf := make([]byte, blockBytes)
				r, err := node.Queue.Submit(false, int64(i)*secPerBlock, buf)
				if err != nil {
					return fmt.Errorf("submit read %d: %w", i, err)
				}
				node.Queue.Unplug()
				if err := r.Wait(p); err != nil {
					return fmt.Errorf("read %d: %w", i, err)
				}
				if !bytes.Equal(buf, chaosPattern(blockBytes, byte(i))) {
					t.Errorf("block %d corrupted after replica loss", i)
				}
			}
			return nil
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := node.Tel.Counter("faultsim.injected").Value(); got != 1 {
		t.Errorf("faults injected = %d, want 1", got)
	}
	if got := node.Tel.Counter("hpbd.link_failures").Value(); got < 1 {
		t.Errorf("link failures = %d, want >= 1", got)
	}
	ms := node.Mirror.Stats()
	if ms.DegradedWrites == 0 {
		t.Error("no degraded writes despite a replica crash mid-stream")
	}
	if !node.HPBD.Failed() {
		t.Error("replica 0 lost its only server but is not marked failed")
	}
	if node.HPBD2.Failed() {
		t.Error("surviving replica is marked failed")
	}
	assertNodeExactPartition(t, node)
}

// assertNodeExactPartition checks the lifecycle invariant over every
// request the node recorded, recovered and degraded ones included: the
// per-stage durations must sum to the end-to-end latency exactly.
func assertNodeExactPartition(t *testing.T, node *Node) {
	t.Helper()
	lc := node.Tel.Lifecycle()
	if lc == nil {
		t.Fatal("no lifecycle analyzer on the node registry")
	}
	if lc.Count() == 0 {
		t.Fatal("no request lifecycles recorded")
	}
	for _, rec := range lc.Flight().Records() {
		var sum sim.Duration
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			if rec.Stages[s] < 0 {
				t.Errorf("req %d: stage %v negative: %v", rec.ID, s, rec.Stages[s])
			}
			sum += rec.Stages[s]
		}
		if sum != rec.Total() {
			t.Errorf("req %d: stages sum %v != total %v", rec.ID, sum, rec.Total())
		}
	}
}

// TestMirroredWorkloadSurvivesCrash is the acceptance-criterion run: a
// fig5-style overcommitted workload on a mirrored two-server node with a
// one-server-crash schedule completes, and the recovery shows up in the
// trace (fault injection and link failure instants) and in the lifecycle
// records.
func TestMirroredWorkloadSurvivesCrash(t *testing.T) {
	const pages = 1024 // 4 MB through 2 MB of RAM: must swap
	node, elapsed, err := Run(Config{
		MemBytes:  2 << 20,
		Swap:      SwapHPBD,
		SwapBytes: 8 << 20,
		Servers:   1, // per replica: mem0 backs hpbd0, mem1 backs hpbd1
		Mirror:    true,
		Faults:    mustSpec(t, "crash@3ms=mem0"),
		Trace:     true,
	}, func(node *Node) []Proc {
		as := node.VM.NewAddressSpace("w", pages)
		return []Proc{{Name: "w", Run: func(p *sim.Proc) error {
			for i := 0; i < pages; i++ {
				if err := as.Touch(p, i, true); err != nil {
					return fmt.Errorf("Touch %d: %w", i, err)
				}
				p.Sleep(10 * sim.Microsecond)
			}
			// Second pass re-reads everything, forcing swap-ins that must
			// now be served by the surviving replica.
			return touchAll(p, as, pages, false)
		}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed[0] <= 3*sim.Millisecond {
		t.Fatalf("workload finished in %v, before the 3ms crash — it never exercised recovery", elapsed[0])
	}
	if got := node.Tel.Counter("faultsim.injected").Value(); got != 1 {
		t.Errorf("faults injected = %d, want 1", got)
	}
	if got := node.Tel.Counter("hpbd.link_failures").Value(); got < 1 {
		t.Errorf("link failures = %d, want >= 1", got)
	}
	if node.VM.Stats().SwapOuts == 0 {
		t.Error("workload never swapped; not a fig5-style run")
	}
	assertNodeExactPartition(t, node)

	var buf bytes.Buffer
	if err := node.Tel.Tracer().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	tr := buf.String()
	for _, want := range []string{"fault:crash", "link-failed"} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace missing %q instant", want)
		}
	}
}

// TestFaultConfigRequiresHPBD pins the config validation: fault
// schedules, mirroring and disk fallback are HPBD-only knobs.
func TestFaultConfigRequiresHPBD(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	bad := []Config{
		{MemBytes: 1 << 20, Swap: SwapDisk, SwapBytes: 4 << 20, Mirror: true},
		{MemBytes: 1 << 20, Swap: SwapDisk, SwapBytes: 4 << 20, Faults: mustSpec(t, "crash@1ms=mem0")},
		{MemBytes: 1 << 20, Swap: SwapNBDGigE, SwapBytes: 4 << 20, FallbackDisk: true},
	}
	for i, cfg := range bad {
		if _, err := Build(env, cfg); err == nil {
			t.Errorf("config %d: Build accepted a non-HPBD fault/mirror config", i)
		}
	}
}
