package netblock

import (
	"bytes"
	"errors"
	"io"
	"log"
	"runtime"
	"sync"
	"testing"
	"time"

	"hpbd/internal/wire"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func startServer(t *testing.T, capacity int64) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", ServerConfig{CapacityBytes: capacity, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ seed
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 1<<20, 8)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	want := pattern(128*1024, 7)
	if _, err := c.WriteAt(want, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("round trip corrupted data")
	}
}

func TestManyPagesConcurrent(t *testing.T) {
	s := startServer(t, 4<<20)
	c, err := Dial(s.Addr(), 4<<20, 16)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	const pages = 256
	var wg sync.WaitGroup
	errs := make(chan error, pages)
	for i := 0; i < pages; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := pattern(4096, byte(i))
			if _, err := c.WriteAt(buf, int64(i)*4096); err != nil {
				errs <- err
				return
			}
			got := make([]byte, 4096)
			if _, err := c.ReadAt(got, int64(i)*4096); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, buf) {
				errs <- ErrRemote
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent I/O: %v", err)
	}
}

func TestPipelinedWrites(t *testing.T) {
	s := startServer(t, 4<<20)
	c, err := Dial(s.Addr(), 4<<20, 8)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var waits []func() error
	for i := 0; i < 32; i++ {
		w, err := c.WriteAsync(pattern(32*1024, byte(i)), int64(i)*32*1024)
		if err != nil {
			t.Fatalf("WriteAsync %d: %v", i, err)
		}
		waits = append(waits, w)
	}
	for i, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	got := make([]byte, 32*1024)
	if _, err := c.ReadAt(got, 5*32*1024); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, pattern(32*1024, 5)) {
		t.Error("pipelined write corrupted data")
	}
}

func TestRangeAndSizeErrors(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteAt(make([]byte, 4096), 1<<20); err != ErrOutOfRange {
		t.Errorf("tail write err = %v", err)
	}
	if _, err := c.ReadAt(make([]byte, 4096), -1); err != ErrOutOfRange {
		t.Errorf("negative read err = %v", err)
	}
	if _, err := c.WriteAt(nil, 0); err != ErrBadSize {
		t.Errorf("empty write err = %v", err)
	}
	if _, err := c.WriteAt(make([]byte, MaxRequestBytes+1), 0); err != ErrBadSize {
		t.Errorf("oversize write err = %v", err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	s := startServer(t, 1<<20)
	c1, err := Dial(s.Addr(), 768*1024, 4)
	if err != nil {
		t.Fatalf("first Dial: %v", err)
	}
	defer c1.Close()
	if _, err := Dial(s.Addr(), 768*1024, 4); err == nil {
		t.Error("second attach should exceed capacity")
	}
	if s.Allocated() != 768*1024 {
		t.Errorf("Allocated = %d", s.Allocated())
	}
}

func TestOversubscribedAreaRejected(t *testing.T) {
	s := startServer(t, 1<<20)
	if _, err := Dial(s.Addr(), 2<<20, 4); err == nil {
		t.Error("area larger than capacity accepted")
	}
}

func TestServerCloseFailsClients(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{CapacityBytes: 1 << 20, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	s.Close()
	// Subsequent I/O must fail, not hang.
	if _, err := c.ReadAt(make([]byte, 4096), 0); err == nil {
		t.Error("read after server close should fail")
	}
}

func TestTwoClientsIsolated(t *testing.T) {
	s := startServer(t, 2<<20)
	c1, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial1: %v", err)
	}
	defer c1.Close()
	c2, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial2: %v", err)
	}
	defer c2.Close()
	a, b := pattern(4096, 1), pattern(4096, 2)
	if _, err := c1.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := c1.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Error("client 1 sees client 2's data (or lost its own)")
	}
	if _, err := c2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Error("client 2 data wrong")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got := make([]byte, 4096)
	for i := range got {
		got[i] = 0xFF
	}
	if _, err := c.ReadAt(got, 512*1024); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten area not zero")
		}
	}
}

func TestStat(t *testing.T) {
	s := startServer(t, 2<<20)
	c, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	capacity, allocated, err := c.Stat()
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if capacity != 2<<20 {
		t.Errorf("capacity = %d", capacity)
	}
	if allocated != 1<<20 {
		t.Errorf("allocated = %d", allocated)
	}
	// Stat interleaves correctly with data traffic.
	if _, err := c.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if _, _, err := c.Stat(); err != nil {
		t.Fatalf("second Stat: %v", err)
	}
}

// TestOpsAfterCloseReturnErrClosed: once Close has returned, every
// operation reports the client closed, not the connection Close itself
// tore down.
func TestOpsAfterCloseReturnErrClosed(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	page := pattern(4096, 3)
	if _, err := c.WriteAt(page, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.ReadAt(page, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadAt after Close: %v, want ErrClosed", err)
	}
	if _, err := c.WriteAt(page, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteAt after Close: %v, want ErrClosed", err)
	}
	if _, err := c.WriteAsync(page, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteAsync after Close: %v, want ErrClosed", err)
	}
	if _, _, err := c.Stat(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stat after Close: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRequestPathAllocsPerRun pins a steady-state request at zero
// allocations on both ends: the client's recycled records and the
// server's pooled reply frames. The count is process-wide, so it covers
// the server's goroutines as well as the caller's.
func TestRequestPathAllocsPerRun(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 1<<20, 16)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	page, mid, big := make([]byte, 4096), make([]byte, 32*1024), make([]byte, MaxRequestBytes)
	ops := []struct {
		name string
		run  func() error
	}{
		{"WriteAt 4K", func() error { _, err := c.WriteAt(page, 0); return err }},
		{"ReadAt 4K", func() error { _, err := c.ReadAt(page, 0); return err }},
		{"ReadAt 32K", func() error { _, err := c.ReadAt(mid, 0); return err }},
		{"WriteAsync 128K + wait", func() error {
			wait, err := c.WriteAsync(big, 0)
			if err != nil {
				return err
			}
			return wait()
		}},
		{"Stat", func() error { _, _, err := c.Stat(); return err }},
	}
	for _, op := range ops {
		var opErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := op.run(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", op.name, opErr)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per request, want 0", op.name, allocs)
		}
	}
}

// TestReplyFramesSurviveGC: reply frames belong to their connection, not
// to a process-wide pool that every garbage collection empties, so
// collections between requests do not send the server back to allocating
// a 128 KB frame for each reply. A frame returns to the free list only
// after the writer has sent it, and a request that lands before then takes
// a second frame: the connection is warmed with a window of reads sent
// before any reply is read, so that one-time frame is not counted against
// the collections.
func TestReplyFramesSurviveGC(t *testing.T) {
	s := startServer(t, 1<<20)
	conn := rawAttach(t, s, 1<<20)
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	hdr := make([]byte, wire.RequestSize)
	rep := make([]byte, wire.ReplySize)
	payload := make([]byte, MaxRequestBytes)
	send := func(h uint64, n int) {
		wire.MarshalRequest(hdr, &wire.Request{Type: wire.ReqRead, Handle: h, Length: uint32(n)})
		if _, err := conn.Write(hdr); err != nil {
			t.Fatalf("request %d: %v", h, err)
		}
	}
	recv := func(h uint64, n int) {
		if _, err := io.ReadFull(conn, rep); err != nil {
			t.Fatalf("reply %d: %v", h, err)
		}
		if r, err := wire.UnmarshalReply(rep); err != nil || r.Handle != h || r.Status != wire.StatusOK {
			t.Fatalf("reply %d = %+v, %v", h, r, err)
		}
		if _, err := io.ReadFull(conn, payload[:n]); err != nil {
			t.Fatalf("payload %d: %v", h, err)
		}
	}
	const window = 64
	for h := uint64(1); h <= window; h++ {
		send(h, MaxRequestBytes)
	}
	for h := uint64(1); h <= window; h++ {
		recv(h, MaxRequestBytes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < 50; i++ {
		runtime.GC()
		runtime.GC()
		send(window+1+i, 32<<10)
		recv(window+1+i, 32<<10)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("50 reads across garbage collections allocated %d bytes, want < %d", grew, 64<<10)
	}
}
