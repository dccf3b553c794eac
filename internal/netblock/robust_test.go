package netblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpbd/internal/wire"
)

// TestGarbageHelloRejected: a client that sends junk instead of a Hello
// must be rejected without disturbing the server.
func TestGarbageHelloRejected(t *testing.T) {
	s := startServer(t, 1<<20)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	junk := make([]byte, wire.HelloSize)
	for i := range junk {
		junk[i] = 0xEE
	}
	if _, err := conn.Write(junk); err != nil {
		t.Fatalf("write: %v", err)
	}
	rep := make([]byte, wire.HelloReplySize)
	if _, err := io.ReadFull(conn, rep); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	hr, err := wire.UnmarshalHelloReply(rep)
	if err != nil {
		t.Fatalf("UnmarshalHelloReply: %v", err)
	}
	if hr.Status == wire.StatusOK {
		t.Error("garbage hello accepted")
	}
	// The server must still serve legitimate clients.
	c, err := Dial(s.Addr(), 64*1024, 4)
	if err != nil {
		t.Fatalf("Dial after garbage client: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Errorf("WriteAt: %v", err)
	}
}

// TestOversizedRequestDropsConnection: a request header with an absurd
// length cannot be resynchronized, so the server must drop the stream
// rather than trust it.
func TestOversizedRequestDropsConnection(t *testing.T) {
	s := startServer(t, 1<<20)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hb := make([]byte, wire.HelloSize)
	wire.MarshalHello(hb, &wire.Hello{AreaBytes: 64 * 1024})
	conn.Write(hb)
	hrb := make([]byte, wire.HelloReplySize)
	io.ReadFull(conn, hrb)

	hdr := make([]byte, wire.RequestSize)
	wire.MarshalRequest(hdr, &wire.Request{
		Type: wire.ReqWrite, Handle: 1, Offset: 0, Length: 1 << 30,
	})
	conn.Write(hdr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Error("server kept the connection after an unresyncable request")
	}
}

// TestOutOfRangeWritePayloadDrained: a rejected write whose payload is
// still sane in size must not desynchronize the stream.
func TestOutOfRangeWritePayloadDrained(t *testing.T) {
	s := startServer(t, 1<<20)
	c, err := Dial(s.Addr(), 64*1024, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Issue a raw out-of-range write through the client's own plumbing is
	// blocked by checkRange, so go raw.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hb := make([]byte, wire.HelloSize)
	wire.MarshalHello(hb, &wire.Hello{AreaBytes: 64 * 1024})
	conn.Write(hb)
	hrb := make([]byte, wire.HelloReplySize)
	io.ReadFull(conn, hrb)

	hdr := make([]byte, wire.RequestSize)
	wire.MarshalRequest(hdr, &wire.Request{
		Type: wire.ReqWrite, Handle: 7, Offset: 60 * 1024, Length: 8192, // tail overrun
	})
	conn.Write(hdr)
	conn.Write(make([]byte, 8192))
	rep := make([]byte, wire.ReplySize)
	if _, err := io.ReadFull(conn, rep); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	r, err := wire.UnmarshalReply(rep)
	if err != nil || r.Status != wire.StatusOutOfRange {
		t.Errorf("reply = %+v, %v; want out-of-range", r, err)
	}
	// Stream still in sync: a good request must work.
	wire.MarshalRequest(hdr, &wire.Request{Type: wire.ReqRead, Handle: 8, Offset: 0, Length: 4096})
	conn.Write(hdr)
	if _, err := io.ReadFull(conn, rep); err != nil {
		t.Fatalf("read second reply: %v", err)
	}
	if r, _ := wire.UnmarshalReply(rep); r.Status != wire.StatusOK || r.Handle != 8 {
		t.Errorf("second reply = %+v", r)
	}
	data := make([]byte, 4096)
	if _, err := io.ReadFull(conn, data); err != nil {
		t.Fatalf("read payload: %v", err)
	}
}

// TestRandomOpsAgainstModel drives random reads/writes concurrently and
// checks the store against an in-memory model.
func TestRandomOpsAgainstModel(t *testing.T) {
	const size = 1 << 20
	const pageSz = 4096
	s := startServer(t, size)
	c, err := Dial(s.Addr(), size, 8)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	model := make([]byte, size)
	var mu sync.Mutex // serialize per-page ownership in the model
	rnd := rand.New(rand.NewSource(99))
	type op struct {
		page int
		val  uint64
	}
	ops := make([]op, 400)
	for i := range ops {
		ops[i] = op{page: rnd.Intn(size / pageSz), val: rnd.Uint64()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ops))
	for _, o := range ops {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSz)
			binary.LittleEndian.PutUint64(buf, o.val)
			mu.Lock() // model and store must agree per page
			defer mu.Unlock()
			if _, err := c.WriteAt(buf, int64(o.page)*pageSz); err != nil {
				errs <- err
				return
			}
			copy(model[o.page*pageSz:], buf)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("op: %v", err)
	}
	// Verify every touched page.
	got := make([]byte, pageSz)
	for _, o := range ops {
		if _, err := c.ReadAt(got, int64(o.page)*pageSz); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, model[o.page*pageSz:(o.page+1)*pageSz]) {
			t.Fatalf("page %d diverged from model", o.page)
		}
	}
}

// fakeServer accepts one client on a raw listener, completes the hello and
// hands the connection to serve, which plays a misbehaving server; the
// connection drops when serve returns. It returns the address to Dial.
func fakeServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, wire.HelloSize)); err != nil {
			return
		}
		hr := make([]byte, wire.HelloReplySize)
		wire.MarshalHelloReply(hr, &wire.HelloReply{Status: wire.StatusOK})
		if _, err := conn.Write(hr); err != nil {
			return
		}
		serve(conn)
	}()
	return ln.Addr().String()
}

// readRequest reads one request header, and a write's payload, off conn.
func readRequest(conn net.Conn) (wire.Request, error) {
	hdr := make([]byte, wire.RequestSize)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return wire.Request{}, err
	}
	req, err := wire.UnmarshalRequest(hdr)
	if err == nil && req.Type == wire.ReqWrite {
		_, err = io.CopyN(io.Discard, conn, int64(req.Length))
	}
	return req, err
}

// replyFrame is a reply header for handle followed by payload bytes.
func replyFrame(handle uint64, payload int) []byte {
	f := make([]byte, wire.ReplySize+payload)
	wire.MarshalReply(f, &wire.Reply{Handle: handle, Status: wire.StatusOK})
	return f
}

// TestReadReturnsOnlyAfterPayloadLands: the server cuts the connection
// halfway through a read's payload. ReadAt must not return until the
// receive loop has stopped writing the caller's buffer; the race detector
// sees the caller's write below otherwise.
func TestReadReturnsOnlyAfterPayloadLands(t *testing.T) {
	const n = 32 * 1024
	addr := fakeServer(t, func(conn net.Conn) {
		req, err := readRequest(conn)
		if err != nil {
			t.Errorf("fake server: %v", err)
			return
		}
		conn.Write(replyFrame(req.Handle, n/2))
	})
	c, err := Dial(addr, 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	p := make([]byte, n)
	if _, err := c.ReadAt(p, 0); !errors.Is(err, ErrLostConn) {
		t.Fatalf("ReadAt of a cut payload: %v, want ErrLostConn", err)
	}
	for i := range p {
		p[i] = 0xAA
	}
}

// TestStaleHandleFailsConnection: a server that answers one handle twice
// is not trusted further. The first reply completes its write. The second
// arrives after the write's record has been reused under a new generation,
// so it must not complete the reuse: it fails the connection with the
// unknown-handle error, and every pending request gets ErrLostConn
// instead of hanging.
func TestStaleHandleFailsConnection(t *testing.T) {
	const pending = 3
	addr := fakeServer(t, func(conn net.Conn) {
		var first uint64
		for i := 0; i < pending; i++ {
			req, err := readRequest(conn)
			if err != nil {
				t.Errorf("fake server: %v", err)
				return
			}
			if i == 0 {
				first = req.Handle
			}
		}
		conn.Write(replyFrame(first, 0))
		reuse, err := readRequest(conn)
		if err != nil {
			t.Errorf("fake server: %v", err)
			return
		}
		if uint32(reuse.Handle) != uint32(first) || reuse.Handle == first {
			t.Errorf("handle %#x does not reuse %#x's record under a new generation", reuse.Handle, first)
		}
		conn.Write(replyFrame(first, 0))
		io.Copy(io.Discard, conn) // hold the connection until the client closes it
	})
	c, err := Dial(addr, 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// A hang fails the test instead of stalling the suite: Close settles
	// what is still pending, and the checks below then fail.
	defer time.AfterFunc(10*time.Second, func() { c.Close() }).Stop()
	var waits []func() error
	write := func(i int) {
		w, err := c.WriteAsync(pattern(4096, byte(i)), int64(i)*4096)
		if err != nil {
			t.Fatalf("WriteAsync %d: %v", i, err)
		}
		waits = append(waits, w)
	}
	for i := 0; i < pending; i++ {
		write(i)
	}
	if err := waits[0](); err != nil {
		t.Errorf("answered write: %v", err)
	}
	write(pending)
	for i, w := range waits[1:] {
		if err := w(); !errors.Is(err, ErrLostConn) {
			t.Errorf("unanswered write %d: %v, want ErrLostConn", i+1, err)
		}
	}
	if _, err := c.ReadAt(make([]byte, 4096), 0); err == nil || !strings.Contains(err.Error(), "unknown handle") {
		t.Errorf("ReadAt after a duplicate reply: %v, want the unknown-handle error", err)
	}
}

// TestCloseLeavesNoGoroutines: Client.Close and Server.Close wait for
// every goroutine they started — receive loop, connection handler, reply
// writer, accept loop — even with records reaped late and a client left
// attached when the server goes.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{CapacityBytes: 2 << 20, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c1, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c2, err := Dial(s.Addr(), 1<<20, 4)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var waits []func() error
	for i := 0; i < 8; i++ {
		w, err := c1.WriteAsync(pattern(32*1024, byte(i)), int64(i)*32*1024)
		if err != nil {
			t.Fatalf("WriteAsync %d: %v", i, err)
		}
		waits = append(waits, w)
	}
	if _, err := c2.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for _, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	c1.Close()
	s.Close()
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond) // a goroutine past its wg.Done has yet to exit
	}
}

// rawAttach dials s and attaches an area of areaBytes by hand, for tests
// that must send what Client never would.
func rawAttach(t *testing.T, s *Server, areaBytes uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	hb := make([]byte, wire.HelloSize)
	wire.MarshalHello(hb, &wire.Hello{AreaBytes: areaBytes})
	if _, err := conn.Write(hb); err != nil {
		t.Fatalf("hello: %v", err)
	}
	hrb := make([]byte, wire.HelloReplySize)
	if _, err := io.ReadFull(conn, hrb); err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	return conn
}

// TestWrappingRangeRefused: a read whose Offset+Length wraps past 2^64
// once passed the server's range test and panicked it, taking every
// client down. It is refused out of range, and the server goes on serving
// this connection and new ones.
func TestWrappingRangeRefused(t *testing.T) {
	s := startServer(t, 1<<20)
	conn := rawAttach(t, s, 64<<10)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, wire.RequestSize)
	rep := make([]byte, wire.ReplySize)
	for i, req := range []wire.Request{
		{Type: wire.ReqRead, Handle: 1, Offset: math.MaxUint64 - 100, Length: 4096},
		{Type: wire.ReqRead, Handle: 2, Offset: 0, Length: 4096},
	} {
		wire.MarshalRequest(hdr, &req)
		if _, err := conn.Write(hdr); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := io.ReadFull(conn, rep); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		want := wire.Reply{Handle: req.Handle, Status: wire.StatusOutOfRange}
		if i == 1 {
			want.Status = wire.StatusOK
			if _, err := io.ReadFull(conn, make([]byte, req.Length)); err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
		}
		if r, err := wire.UnmarshalReply(rep); err != nil || r.Handle != want.Handle || r.Status != want.Status {
			t.Errorf("reply %d = %+v, %v; want %+v", i, r, err, want)
		}
	}
	c, err := Dial(s.Addr(), 64<<10, 4)
	if err != nil {
		t.Fatalf("Dial after the wrapping request: %v", err)
	}
	defer c.Close()
	if _, err := c.WriteAt(pattern(4096, 1), 0); err != nil {
		t.Errorf("WriteAt after the wrapping request: %v", err)
	}
}
