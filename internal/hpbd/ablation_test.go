package hpbd

import (
	"bytes"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

func TestStripedLayoutRoundTrip(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.StripeBytes = 64 * 1024
	tb := newBed(t, bedOpts{servers: 4, client: ccfg})
	// A 128K write covers two 64K stripes on two servers.
	want := pattern(128*1024, 5)
	var got []byte
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, append([]byte(nil), want...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		buf := make([]byte, len(want))
		if err := tb.do(p, false, 0, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		got = buf
	})
	if !bytes.Equal(got, want) {
		t.Error("striped round trip corrupted data")
	}
	if tb.dev.Stats().Splits == 0 {
		t.Error("128K over 64K stripes did not split")
	}
	// The two stripes must land on different servers.
	if tb.servers[0].Stats().Writes == 0 || tb.servers[1].Stats().Writes == 0 {
		t.Errorf("stripe distribution: server writes = %d,%d,%d,%d",
			tb.servers[0].Stats().Writes, tb.servers[1].Stats().Writes,
			tb.servers[2].Stats().Writes, tb.servers[3].Stats().Writes)
	}
}

func TestStripedCoversWholeDevice(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.StripeBytes = 64 * 1024
	tb := newBed(t, bedOpts{servers: 4, client: ccfg})
	last := tb.dev.Sectors() - 8 // final page of the device
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, last, pattern(4096, 9)); err != nil {
			t.Fatalf("write at device end: %v", err)
		}
	})
}

func TestRegisterOnTheFlySlowerButCorrect(t *testing.T) {
	run := func(fly bool) (sim.Duration, []byte) {
		ccfg := DefaultClientConfig()
		ccfg.RegisterOnTheFly = fly
		tb := newBed(t, bedOpts{area: 4 << 20, client: ccfg})
		want := pattern(128*1024, 3)
		var got []byte
		var elapsed sim.Duration
		tb.run(func(p *sim.Proc) {
			t0 := p.Now()
			var ios []*blockdev.IO
			for i := 0; i < 8; i++ {
				io, _ := tb.queue.Submit(true, int64(i*600), append([]byte(nil), want...))
				tb.queue.Unplug()
				ios = append(ios, io)
			}
			for _, io := range ios {
				if err := io.Wait(p); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			buf := make([]byte, len(want))
			if err := tb.do(p, false, 0, buf); err != nil {
				t.Fatalf("read: %v", err)
			}
			got = buf
			elapsed = p.Now().Sub(t0)
		})
		return elapsed, got
	}
	poolTime, poolData := run(false)
	flyTime, flyData := run(true)
	want := pattern(128*1024, 3)
	if !bytes.Equal(poolData, want) || !bytes.Equal(flyData, want) {
		t.Fatal("data corrupted in one of the modes")
	}
	if flyTime <= poolTime {
		t.Errorf("register-on-the-fly (%v) should be slower than pool copy (%v) in the 4K-128K range",
			flyTime, poolTime)
	}
}

func TestPollingReceiverWorks(t *testing.T) {
	ccfg := DefaultClientConfig()
	ccfg.PollingReceiver = true
	tb := newBed(t, bedOpts{client: ccfg})
	want := pattern(4096, 8)
	var got []byte
	tb.run(func(p *sim.Proc) {
		if err := tb.do(p, true, 0, append([]byte(nil), want...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		buf := make([]byte, 4096)
		if err := tb.do(p, false, 0, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		got = buf
	})
	if !bytes.Equal(got, want) {
		t.Error("polling receiver corrupted data")
	}
}
