package placement

import (
	"strings"
	"testing"
)

const mb = int64(1 << 20)

// grow builds a 2-server directory and adds one larger empty server.
// Founders bootstrap fully allocated, so all migration headroom — and
// any later drain capacity — comes from the newcomer.
func grow(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	d.Bootstrap("mem0", 8*mb)
	d.Bootstrap("mem1", 8*mb)
	d.AddServer("mem2", 24*mb)
	return d
}

// executePlan runs a planned move list to completion the way the
// migration engine would: reserve, then commit.
func executePlan(t *testing.T, d *Directory, moves []Move) {
	t.Helper()
	for _, m := range moves {
		off, err := d.Reserve(m)
		if err != nil {
			t.Fatalf("Reserve(%+v): %v", m, err)
		}
		d.Commit(m, off)
	}
}

func TestRebalancePlanMovesOnlyExcess(t *testing.T) {
	d := grow(t)
	if d.Epoch() != 1 {
		t.Errorf("epoch after AddServer = %d, want 1", d.Epoch())
	}
	moves := d.PlanRebalance()
	if len(moves) == 0 {
		t.Fatal("adding an empty server planned no moves")
	}
	var moved int64
	for _, m := range moves {
		if m.To != 2 {
			t.Errorf("move %+v targets server %d, want the new server", m, m.To)
		}
		moved += m.Sectors
	}
	want := d.TotalSectors() * 24 / 40 // capacity-proportional share (24 MB of 40 MB)
	if diff := moved - want; diff < -2 || diff > 2 {
		t.Errorf("plan moves %d sectors, want ~%d (24/40 of device)", moved, want)
	}

	executePlan(t, d, moves)
	if again := d.PlanRebalance(); len(again) != 0 {
		t.Errorf("directory still unbalanced after executing the plan: %+v", again)
	}
	// The map must still cover [0, total) exactly, in order.
	var at int64
	for _, r := range d.Ranges() {
		if r.Start != at {
			t.Fatalf("range table has a gap/overlap at sector %d", at)
		}
		at += r.Sectors
	}
	if at != d.TotalSectors() {
		t.Fatalf("ranges cover %d sectors, want %d", at, d.TotalSectors())
	}
}

func TestSplitUnchangedByPureRemaps(t *testing.T) {
	d := grow(t)
	before := make(map[int64]Segment)
	for s := int64(0); s < d.TotalSectors(); s += 97 {
		before[s] = d.SplitInto(nil, s*SectorSize, SectorSize)[0]
	}
	d.PlanRebalance() // plans carve ranges (pure remaps), commit nothing
	for s, want := range before {
		got := d.SplitInto(nil, s*SectorSize, SectorSize)[0]
		// Off/DevByte unchanged trivially; the owner and area offset must
		// also be untouched by planning alone.
		if got != want {
			t.Fatalf("sector %d remapped by planning: %+v -> %+v", s, want, got)
		}
	}
}

func TestDrainEmptiesServerAndRemove(t *testing.T) {
	d := grow(t)
	executePlan(t, d, d.PlanRebalance())

	if err := d.Remove(0); err == nil {
		t.Fatal("Remove of a non-empty server must fail")
	}
	moves, err := d.Drain(0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, m := range moves {
		if m.From != 0 {
			t.Errorf("drain move %+v does not come from the drained server", m)
		}
		if m.To == 0 {
			t.Errorf("drain move %+v targets the drained server", m)
		}
	}
	executePlan(t, d, moves)
	if n := d.SectorsOn(0); n != 0 {
		t.Fatalf("server 0 still owns %d sectors after drain", n)
	}
	if err := d.Remove(0); err != nil {
		t.Fatalf("Remove after drain: %v", err)
	}
	if st := d.Servers()[0].State; st != Removed {
		t.Errorf("server 0 state = %v, want removed", st)
	}
	// A removed server is never a rebalance recipient.
	for _, m := range d.PlanRebalance() {
		if m.To == 0 {
			t.Errorf("rebalance targets removed server: %+v", m)
		}
	}
}

func TestDrainWithoutCapacityFails(t *testing.T) {
	d := NewDirectory()
	d.Bootstrap("mem0", 8*mb)
	d.Bootstrap("mem1", 8*mb)
	// Both founders are fully allocated; nothing can absorb a drain.
	if _, err := d.Drain(0); err == nil {
		t.Fatal("drain with zero fleet headroom must fail")
	}
}

func TestCommitBumpsEpochAndStampsRanges(t *testing.T) {
	d := grow(t)
	moves := d.PlanRebalance()
	e0 := d.Epoch()
	executePlan(t, d, moves[:1])
	if d.Epoch() != e0+1 {
		t.Errorf("epoch after one commit = %d, want %d", d.Epoch(), e0+1)
	}
	m := moves[0]
	for s := m.Start; s < m.Start+m.Sectors; s += 64 {
		sg := d.SplitInto(nil, s*SectorSize, SectorSize)[0]
		if sg.Server != m.To {
			t.Fatalf("sector %d maps to server %d after commit, want %d", s, sg.Server, m.To)
		}
	}
	for _, r := range d.Ranges() {
		if r.Server == m.To && r.Epoch != d.Epoch() {
			t.Errorf("moved range %+v not stamped with the commit epoch %d", r, d.Epoch())
		}
	}
}

func TestDumpDeterministic(t *testing.T) {
	mk := func() string {
		d := grow(t)
		executePlan(t, d, d.PlanRebalance())
		var b strings.Builder
		d.Dump(&b)
		return b.String()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("two identical histories dumped differently:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"epoch", "mem0", "mem2", "active"} {
		if !strings.Contains(a, want) {
			t.Errorf("dump missing %q:\n%s", want, a)
		}
	}
}
