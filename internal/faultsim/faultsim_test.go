package faultsim

import (
	"reflect"
	"strings"
	"testing"

	"hpbd/internal/ib"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("delay@2ms+4ms~200us=mem1, crash@5ms=mem0,senderr@1msx3=hpbd0")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{At: 1 * sim.Millisecond, Kind: KindSendErr, Target: "hpbd0", Count: 3},
		{At: 2 * sim.Millisecond, Kind: KindDelay, Target: "mem1", Dur: 4 * sim.Millisecond, Extra: 200 * sim.Microsecond},
		{At: 5 * sim.Millisecond, Kind: KindCrash, Target: "mem0"},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Errorf("parsed faults = %+v, want %+v", s.Faults, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"crash5ms=mem0",                   // missing @
		"boom@5ms=mem0",                   // unknown kind
		"crash@5ms",                       // missing target
		"crash@5ms=",                      // empty target
		"crash@xyz=mem0",                  // bad duration
		"senderr@1msx0=mem0",              // zero count
		"senderr@1msxq=mem0",              // bad count
		"delay@1ms~zz=mem0",               // bad extra
		"hang@1ms+zz=mem0",                // bad dur
		"crash@5 ms=mem0",                 // inner space
		"crash@9999999999999999999s=mem0", // overflow
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", spec)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	const spec = "senderr@1msx3=hpbd0,delay@2ms+4ms~200us=mem1,crash@5ms=mem0,starve@6ms+500us=mem1,hang@7ms+1ms=mem0,poolx@8ms+2ms=hpbd1"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(s.Spec())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.Spec(), err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("spec round-trip changed schedule:\n  %+v\nvs\n  %+v", s, s2)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	servers := []string{"mem0", "mem1"}
	clients := []string{"hpbd0"}
	a := Generate(7, 20, 10*sim.Millisecond, servers, clients)
	b := Generate(7, 20, 10*sim.Millisecond, servers, clients)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	c := Generate(8, 20, 10*sim.Millisecond, servers, clients)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	last := sim.Duration(-1)
	for _, f := range a.Faults {
		if f.Kind == KindCrash {
			t.Error("Generate produced a crash fault")
		}
		if f.At < last {
			t.Error("generated schedule not sorted by At")
		}
		last = f.At
		if f.At < 0 || f.At >= 10*sim.Millisecond {
			t.Errorf("fault at %v outside horizon", f.At)
		}
	}
}

// fakeServer records the sim-times at which each fault surface was hit.
type fakeServer struct {
	name    string
	env     *sim.Env
	crashes []sim.Time
	hangs   []sim.Duration
	starves []sim.Duration
}

func (f *fakeServer) Name() string              { return f.name }
func (f *fakeServer) Crash()                    { f.crashes = append(f.crashes, f.env.Now()) }
func (f *fakeServer) HangFor(d sim.Duration)    { f.hangs = append(f.hangs, d) }
func (f *fakeServer) StarveRecv(d sim.Duration) { f.starves = append(f.starves, d) }

type fakeClient struct {
	name     string
	exhausts []sim.Duration
}

func (f *fakeClient) Name() string               { return f.name }
func (f *fakeClient) ExhaustPool(d sim.Duration) { f.exhausts = append(f.exhausts, d) }

func TestInjectorReplay(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	reg := telemetry.New(env)
	sched, err := ParseSpec("crash@5ms=mem0,hang@2ms+1ms=mem1,poolx@3ms+1ms=hpbd0,starve@4ms+2ms=mem1,crash@6ms=ghost")
	if err != nil {
		t.Fatal(err)
	}
	in := New(env, *sched, reg)
	srv0 := &fakeServer{name: "mem0", env: env}
	srv1 := &fakeServer{name: "mem1", env: env}
	cli := &fakeClient{name: "hpbd0"}
	in.AddServer(srv0)
	in.AddServer(srv1)
	in.AddClient(cli)
	in.Start()
	env.Run()

	if len(srv0.crashes) != 1 || srv0.crashes[0] != sim.Time(5*sim.Millisecond) {
		t.Errorf("mem0 crashes = %v, want one at 5ms", srv0.crashes)
	}
	if len(srv1.hangs) != 1 || srv1.hangs[0] != sim.Millisecond {
		t.Errorf("mem1 hangs = %v, want [1ms]", srv1.hangs)
	}
	if len(srv1.starves) != 1 || srv1.starves[0] != 2*sim.Millisecond {
		t.Errorf("mem1 starves = %v, want [2ms]", srv1.starves)
	}
	if len(cli.exhausts) != 1 || cli.exhausts[0] != sim.Millisecond {
		t.Errorf("hpbd0 exhausts = %v, want [1ms]", cli.exhausts)
	}
	if got := reg.Counter("faultsim.injected").Value(); got != 4 {
		t.Errorf("injected = %d, want 4", got)
	}
	// The ghost target is counted as skipped, not applied or panicked.
	if got := reg.Counter("faultsim.skipped").Value(); got != 1 {
		t.Errorf("skipped = %d, want 1", got)
	}
	if got := strings.Join(in.Targets(), ","); got != "hpbd0,mem0,mem1" {
		t.Errorf("Targets() = %q", got)
	}
}

func TestInjectorSendFault(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	sched, err := ParseSpec("senderr@1msx2=mem0,delay@2ms+1ms~100us=mem1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(env, *sched, nil)
	in.AddServer(&fakeServer{name: "mem0", env: env})
	in.AddServer(&fakeServer{name: "mem1", env: env})
	in.Start()
	env.RunUntil(sim.Time(2500 * sim.Microsecond))

	// Two one-shot send errors on mem0, then clean.
	for i := 0; i < 2; i++ {
		if _, st := in.SendFault("mem0", ib.OpSend); st != ib.StatusRNR {
			t.Fatalf("senderr %d: status %v, want RNR", i, st)
		}
	}
	if _, st := in.SendFault("mem0", ib.OpSend); st != ib.StatusSuccess {
		t.Errorf("third send: status %v, want success", st)
	}
	// Inside mem1's delay window (now = 2.5ms in [2ms, 3ms)).
	extra, st := in.SendFault("mem1", ib.OpRDMAWrite)
	if st != ib.StatusSuccess || extra != 100*sim.Microsecond {
		t.Errorf("delayed send: extra=%v st=%v, want 100us success", extra, st)
	}
	// An HCA with no active fault is untouched.
	if extra, st := in.SendFault("mem0", ib.OpRDMAWrite); st != ib.StatusSuccess || extra != 0 {
		t.Errorf("clean send: extra=%v st=%v", extra, st)
	}
}
