package blockdev

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
)

// memDriver is a trivial instant driver backed by a byte slice, recording
// a copy of every request it sees (the record itself goes back to the
// queue at Complete).
type memDriver struct {
	store []byte
	seen  []Request
	delay sim.Duration
	fail  error // completes every request with this
}

func (m *memDriver) Name() string   { return "mem" }
func (m *memDriver) Sectors() int64 { return int64(len(m.store) / SectorSize) }
func (m *memDriver) Submit(p *sim.Proc, r *Request) {
	if m.delay > 0 {
		p.Sleep(m.delay)
	}
	m.seen = append(m.seen, *r)
	off := r.Sector * SectorSize
	if r.Write {
		copy(m.store[off:], r.Data())
	} else {
		r.Scatter(m.store[off : off+int64(r.Bytes())])
	}
	r.Complete(m.fail)
}

// nullDriver completes every request at once and keeps nothing.
type nullDriver struct{}

func (nullDriver) Name() string                   { return "null" }
func (nullDriver) Sectors() int64                 { return 1 << 20 / SectorSize }
func (nullDriver) Submit(_ *sim.Proc, r *Request) { r.Complete(nil) }

func newQueue(size int, delay sim.Duration) (*sim.Env, *Queue, *memDriver) {
	env := sim.NewEnv()
	d := &memDriver{store: make([]byte, size), delay: delay}
	q := NewQueue(env, netmodel.DefaultHost(), d)
	return env, q, d
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, q, _ := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		w := make([]byte, 4096)
		for i := range w {
			w[i] = byte(i % 251)
		}
		io, err := q.Submit(true, 8, w)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		q.Unplug()
		if err := io.Wait(p); err != nil {
			t.Errorf("write: %v", err)
		}
		r := make([]byte, 4096)
		io2, _ := q.Submit(false, 8, r)
		q.Unplug()
		if err := io2.Wait(p); err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(r, w) {
			t.Error("round trip mismatch")
		}
	})
	env.Run()
	env.Close()
}

func TestAdjacentWritesMergeUpTo128K(t *testing.T) {
	env, q, d := newQueue(1<<22, 0)
	env.Go("io", func(p *sim.Proc) {
		// 64 sequential 4K pages = 256 KB: must become exactly two 128 KB
		// requests.
		var last *IO
		for i := 0; i < 64; i++ {
			io, err := q.Submit(true, int64(i*8), make([]byte, 4096))
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
			}
			last = io
		}
		q.Unplug()
		last.Wait(p)
	})
	env.Run()
	env.Close()
	if len(d.seen) != 2 {
		t.Fatalf("dispatched %d requests, want 2", len(d.seen))
	}
	for _, r := range d.seen {
		if r.Bytes() != MaxRequestBytes {
			t.Errorf("request bytes = %d, want %d", r.Bytes(), MaxRequestBytes)
		}
		if r.NumIOs() != 32 {
			t.Errorf("request merged %d IOs, want 32", r.NumIOs())
		}
	}
}

func TestFrontMerge(t *testing.T) {
	env, q, d := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		a, _ := q.Submit(true, 8, make([]byte, 4096))
		b, _ := q.Submit(true, 0, make([]byte, 4096)) // front-merges
		q.Unplug()
		a.Wait(p)
		b.Wait(p)
	})
	env.Run()
	env.Close()
	if len(d.seen) != 1 || d.seen[0].Sector != 0 || d.seen[0].Bytes() != 8192 {
		t.Fatalf("requests = %+v, want one 8K request at sector 0", d.seen)
	}
}

func TestNoMergeAcrossDirection(t *testing.T) {
	env, q, d := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		a, _ := q.Submit(true, 0, make([]byte, 4096))
		b, _ := q.Submit(false, 8, make([]byte, 4096))
		q.Unplug()
		a.Wait(p)
		b.Wait(p)
	})
	env.Run()
	env.Close()
	if len(d.seen) != 2 {
		t.Fatalf("dispatched %d requests, want 2 (no read/write merge)", len(d.seen))
	}
}

func TestNonAdjacentDoNotMerge(t *testing.T) {
	env, q, d := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		a, _ := q.Submit(true, 0, make([]byte, 4096))
		b, _ := q.Submit(true, 16, make([]byte, 4096)) // gap of one page
		q.Unplug()
		a.Wait(p)
		b.Wait(p)
	})
	env.Run()
	env.Close()
	if len(d.seen) != 2 {
		t.Fatalf("dispatched %d requests, want 2", len(d.seen))
	}
}

func TestPlugHoldsDispatchUntilUnplug(t *testing.T) {
	env, q, d := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		q.Submit(true, 0, make([]byte, 4096))
		p.Sleep(sim.Millisecond)
		if len(d.seen) != 0 {
			t.Error("request dispatched while plugged")
		}
		q.Unplug()
		p.Sleep(sim.Millisecond)
		if len(d.seen) != 1 {
			t.Error("request not dispatched after unplug")
		}
	})
	env.Run()
	env.Close()
}

func TestOutOfRangeAndBadSize(t *testing.T) {
	env, q, _ := newQueue(1<<20, 0)
	if _, err := q.Submit(true, 1<<20/SectorSize, make([]byte, 4096)); err != ErrOutOfRange {
		t.Errorf("out of range err = %v", err)
	}
	if _, err := q.Submit(true, -1, make([]byte, 4096)); err != ErrOutOfRange {
		t.Errorf("negative sector err = %v", err)
	}
	if _, err := q.Submit(true, 0, make([]byte, 100)); err == nil {
		t.Error("non-sector-multiple size accepted")
	}
	if _, err := q.Submit(true, 0, nil); err == nil {
		t.Error("empty I/O accepted")
	}
	env.Close()
}

// A caller-owned record goes round: refused while in flight, then, once
// its Wait has returned, resubmitted with nothing left of the first trip —
// not the error, not the request it was merged into, not the chain link.
func TestSubmitIORecyclesRecord(t *testing.T) {
	env, q, d := newQueue(1<<20, 10*sim.Microsecond)
	env.Go("io", func(p *sim.Proc) {
		io := &IO{Write: true, Sector: 8, Data: bytes.Repeat([]byte{7}, 4096)}
		other := &IO{Write: true, Sector: 16, Data: make([]byte, 4096)}
		d.fail = ErrOutOfRange // any error will do
		if err := q.SubmitIO(io); err != nil {
			t.Fatalf("SubmitIO: %v", err)
		}
		if err := q.SubmitIO(other); err != nil { // back-merges: io.next = other
			t.Fatalf("SubmitIO: %v", err)
		}
		if err := q.SubmitIO(io); err != ErrInFlight {
			t.Errorf("SubmitIO of a queued record = %v, want ErrInFlight", err)
		}
		q.Unplug()
		p.Yield()
		if err := q.SubmitIO(io); err != ErrInFlight { // the driver holds it for 10us
			t.Errorf("SubmitIO of a dispatched record = %v, want ErrInFlight", err)
		}
		if err := io.Wait(p); err != ErrOutOfRange {
			t.Errorf("first trip completed with %v, want the driver's error", err)
		}
		first := io.RequestID()

		d.fail = nil
		io.Write, io.Sector = false, 0
		if err := q.SubmitIO(io); err != nil {
			t.Fatalf("SubmitIO of a completed record: %v", err)
		}
		if io.Done() || io.Err() != nil || io.next != nil {
			t.Errorf("resubmitted record: done=%v err=%v next=%p, want a clean slate", io.Done(), io.Err(), io.next)
		}
		q.Unplug()
		if err := io.Wait(p); err != nil {
			t.Errorf("second trip completed with %v", err)
		}
		if id := io.RequestID(); id == 0 || id == first {
			t.Errorf("second trip rode request %d, the first %d: want a fresh one", id, first)
		}
		if io.Data[0] != 0 {
			t.Error("second trip did not read the (unwritten) device into the record's buffer")
		}
	})
	env.Run()
	env.Close()
	if st := q.Stats(); st.IOsSubmitted != 3 || st.RequestsDispatched != 2 {
		t.Errorf("stats = %+v, want 3 I/Os (refusals not counted) in 2 requests", st)
	}
}

// Recycled records through SubmitIO leave no allocation per dispatched
// request, however many I/Os merge into it: no I/O record, no chain
// storage, no event, no wait ring, no regrown pending queue, and the
// Request comes off the queue's free list.
func TestSubmitIOAllocBudget(t *testing.T) {
	env := sim.NewEnv()
	q := NewQueue(env, netmodel.DefaultHost(), nullDriver{})
	ios := make([]IO, 32)
	for i := range ios {
		ios[i] = IO{Write: true, Sector: int64(i) * 8, Data: make([]byte, 4096)}
	}
	const warmup, measured = 50, 500
	var before, after runtime.MemStats
	env.Go("io", func(p *sim.Proc) {
		for round := 0; round < warmup+measured; round++ {
			if round == warmup {
				runtime.ReadMemStats(&before)
			}
			for i := range ios {
				k := 16 + i // 16..31 merge at the back, then 15..0 at the front
				if k >= 32 {
					k = 47 - k
				}
				if err := q.SubmitIO(&ios[k]); err != nil {
					t.Errorf("SubmitIO: %v", err)
					return
				}
			}
			q.Unplug()
			for i := range ios {
				ios[i].Wait(p)
			}
		}
		runtime.ReadMemStats(&after)
	})
	env.Run()
	env.Close()
	if st := q.Stats(); st.RequestsDispatched != warmup+measured {
		t.Fatalf("%d requests for %d rounds: want each round's 32 I/Os merged into one", st.RequestsDispatched, warmup+measured)
	}
	if perRequest := float64(after.Mallocs-before.Mallocs) / measured; perRequest > 0.05 {
		t.Errorf("%.2f allocs per 32-I/O request, want none", perRequest)
	}
}

// An I/O keeps the id of the request it rode after that request's record
// has gone back to the queue and out again: vm reads RequestID after Wait,
// when the founding I/O of the same request may already be on its next trip.
func TestRequestIDSurvivesFounderResubmit(t *testing.T) {
	env, q, _ := newQueue(1<<20, 0)
	env.Go("io", func(p *sim.Proc) {
		founder := &IO{Write: true, Sector: 0, Data: make([]byte, 4096)}
		rider := &IO{Write: true, Sector: 8, Data: make([]byte, 4096)}
		if err := q.SubmitIO(founder); err != nil {
			t.Fatal(err)
		}
		if err := q.SubmitIO(rider); err != nil { // back-merges into the founder's request
			t.Fatal(err)
		}
		q.Unplug()
		founder.Wait(p)
		first := founder.RequestID()
		if first == 0 || rider.RequestID() != first {
			t.Fatalf("founder rode request %d, rider %d: want one merged request", first, rider.RequestID())
		}
		// The founder's next trip reuses the recycled request record.
		rec := q.freeReqs
		founder.Sector = 64
		if err := q.SubmitIO(founder); err != nil {
			t.Fatal(err)
		}
		if founder.req != rec {
			t.Fatalf("resubmitted founder rides %p, want the recycled record %p", founder.req, rec)
		}
		if got := rider.RequestID(); got != first {
			t.Errorf("rider's request id reads %d after the founder's resubmission, want %d", got, first)
		}
		if founder.RequestID() == first {
			t.Error("resubmitted founder still reports its previous request")
		}
		q.Unplug()
		founder.Wait(p)
		if got := rider.RequestID(); got != first {
			t.Errorf("rider's request id reads %d after the record's second trip, want %d", got, first)
		}
	})
	env.Run()
	env.Close()
}

func TestStatsAndLog(t *testing.T) {
	env, q, _ := newQueue(1<<20, 0)
	q.EnableLog()
	env.Go("io", func(p *sim.Proc) {
		var last *IO
		for i := 0; i < 8; i++ {
			last, _ = q.Submit(true, int64(i*8), make([]byte, 4096))
		}
		q.Unplug()
		last.Wait(p)
		r, _ := q.Submit(false, 0, make([]byte, 4096))
		q.Unplug()
		r.Wait(p)
	})
	env.Run()
	env.Close()
	st := q.Stats()
	if st.IOsSubmitted != 9 {
		t.Errorf("IOsSubmitted = %d, want 9", st.IOsSubmitted)
	}
	if st.RequestsDispatched != 2 {
		t.Errorf("RequestsDispatched = %d, want 2", st.RequestsDispatched)
	}
	if st.BytesWritten != 8*4096 || st.BytesRead != 4096 {
		t.Errorf("bytes = %d/%d", st.BytesWritten, st.BytesRead)
	}
	if st.Merges != 7 {
		t.Errorf("Merges = %d, want 7", st.Merges)
	}
	if len(st.Log) != 2 {
		t.Errorf("log entries = %d, want 2", len(st.Log))
	}
}

// Property: any batch of distinct in-range page writes is eventually
// dispatched covering exactly the submitted sectors, each request is
// <= MaxRequestBytes, and requests are contiguous runs.
func TestQuickMergeInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		// Distinct page indices in [0, 256).
		pages := map[int]bool{}
		for _, r := range raw {
			pages[int(r)] = true
		}
		if len(pages) == 0 {
			return true
		}
		env, q, d := newQueue(256*4096, 0)
		ok := true
		env.Go("io", func(p *sim.Proc) {
			var ios []*IO
			for pg := range pages {
				io, err := q.Submit(true, int64(pg*8), make([]byte, 4096))
				if err != nil {
					ok = false
					return
				}
				ios = append(ios, io)
			}
			q.Unplug()
			for _, io := range ios {
				if io.Wait(p) != nil {
					ok = false
				}
			}
		})
		env.Run()
		env.Close()
		if !ok {
			return false
		}
		covered := map[int64]bool{}
		for _, r := range d.seen {
			if r.Bytes() > MaxRequestBytes || r.Bytes()%4096 != 0 {
				return false
			}
			for s := r.Sector; s < r.End(); s += 8 {
				if covered[s] {
					return false // double dispatch
				}
				covered[s] = true
			}
		}
		if len(covered) != len(pages) {
			return false
		}
		for pg := range pages {
			if !covered[int64(pg*8)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSlowDriverAccumulatesMerges(t *testing.T) {
	// While the driver is busy with one request, later adjacent I/Os keep
	// merging — the mechanism that builds large swap-out requests under
	// a slow disk.
	env, q, d := newQueue(1<<22, 10*sim.Millisecond)
	env.Go("io", func(p *sim.Proc) {
		var ios []*IO
		for i := 0; i < 40; i++ {
			io, _ := q.Submit(true, int64(i*8), make([]byte, 4096))
			ios = append(ios, io)
			q.Unplug()
			p.Sleep(100 * sim.Microsecond) // trickle in during service
		}
		for _, io := range ios {
			io.Wait(p)
		}
	})
	env.Run()
	env.Close()
	if len(d.seen) >= 40 {
		t.Errorf("no merging under slow driver: %d requests", len(d.seen))
	}
	fmt.Printf("slow-driver merging: 40 IOs -> %d requests\n", len(d.seen))
}

// OnDone's callback is scheduled by Complete, not run inside it, in the
// slot the wake of a sole process in Wait takes: the same scenario with a
// process and with a callback orders identically against events queued
// around the completion. It fires once, and off an I/O that is not in
// flight it arms nothing.
func TestOnDoneTakesTheWaitersSlot(t *testing.T) {
	run := func(callback bool) []string {
		env := sim.NewEnv()
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }
		data := make([]byte, SectorSize)
		r := NewRequest(env, false, 0, data)
		io := r.head
		if callback {
			env.After(0, func() {
				if !io.OnDone(note("follower")) {
					t.Error("OnDone refused an I/O in flight")
				}
			})
		} else {
			env.Go("follower", func(p *sim.Proc) {
				io.Wait(p)
				order = append(order, "follower")
			})
		}
		env.After(sim.Microsecond, func() {
			env.After(0, note("queued before"))
			r.Complete(nil)
			order = append(order, "complete returned")
			env.After(0, note("queued after"))
		})
		env.Run()
		if io.OnDone(note("late")) {
			t.Error("OnDone armed a callback on a completed I/O")
		}
		env.Run()
		return order
	}
	want := []string{"complete returned", "queued before", "follower", "queued after"}
	if got := run(true); !slices.Equal(got, want) {
		t.Errorf("callback order = %v, want %v", got, want)
	}
	if got := run(false); !slices.Equal(got, want) {
		t.Errorf("process order = %v, want %v", got, want)
	}
	if fresh := new(IO); fresh.OnDone(func() {}) {
		t.Error("OnDone armed a callback on an I/O never submitted")
	}
}
