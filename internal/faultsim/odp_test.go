package faultsim

import (
	"reflect"
	"testing"

	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

func TestParseSpecODPInval(t *testing.T) {
	s, err := ParseSpec("odpinval@3ms=hpbd0")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{{At: 3 * sim.Millisecond, Kind: KindODPInval, Target: "hpbd0"}}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Errorf("parsed faults = %+v, want %+v", s.Faults, want)
	}
	// The text round trip preserves the new kind.
	s2, err := ParseSpec(s.Spec())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.Spec(), err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("spec round-trip changed schedule: %+v vs %+v", s, s2)
	}
}

// odpHost is a fake client that additionally exposes the optional
// ODPHost surface.
type odpHost struct {
	fakeClient
	invals int
}

func (h *odpHost) InvalidateODP() int { h.invals++; return 3 }

func TestInjectorODPInval(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	reg := telemetry.New(env)
	sched, err := ParseSpec("odpinval@1ms=hpbd0,odpinval@2ms=hpbd1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(env, *sched, reg)
	withODP := &odpHost{fakeClient: fakeClient{name: "hpbd0"}}
	in.AddClient(withODP)
	// hpbd1 exists but has no ODP surface: the fault must count as
	// skipped, not panic or misfire.
	in.AddClient(&fakeClient{name: "hpbd1"})
	in.Start()
	env.Run()

	if withODP.invals != 1 {
		t.Errorf("ODP-capable client invalidated %d times, want 1", withODP.invals)
	}
	if got := reg.Counter("faultsim.injected").Value(); got != 1 {
		t.Errorf("injected = %d, want 1", got)
	}
	if got := reg.Counter("faultsim.skipped").Value(); got != 1 {
		t.Errorf("skipped = %d, want 1 (target without ODP surface)", got)
	}
}
