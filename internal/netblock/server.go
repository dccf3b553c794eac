// Package netblock is the runnable, real-network incarnation of HPBD: a
// user-space remote-memory block store speaking the same wire protocol as
// the simulated system, over stdlib TCP. A memory server exports part of
// its RAM; clients mount it as a block device and read/write pages with
// multiple outstanding requests (the credit-based flow control and
// request/reply framing of the paper, with the RDMA data movement
// replaced by inline payloads, which is what RDMA-less transports do).
//
// It is the piece a downstream user can deploy today: run
// cmd/hpbd-server on a memory-rich host and mount it with Client.
package netblock

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"

	"hpbd/internal/wire"
)

// MaxRequestBytes bounds a single transfer (the block layer's 128 KB).
const MaxRequestBytes = 128 * 1024

// ServerConfig parameterizes a memory server.
type ServerConfig struct {
	// CapacityBytes is the total memory the server will export.
	CapacityBytes int64
	// Logger receives connection lifecycle messages (nil: log.Default).
	Logger *log.Logger
}

// Server is the user-space memory server daemon.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	log *log.Logger

	mu        sync.Mutex
	allocated int64
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// Serve starts a server listening on addr ("host:port"; ":0" picks a free
// port). It returns immediately; Addr reports the bound address.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, errors.New("netblock: capacity must be positive")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{cfg: cfg, ln: ln, log: logger, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Allocated returns the bytes currently exported to clients.
func (s *Server) Allocated() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocated
}

// Close stops the listener and all connections and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// reserve claims area bytes from the capacity, returning false if the
// server is fully subscribed.
func (s *Server) reserve(n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.allocated+n > s.cfg.CapacityBytes {
		return false
	}
	s.allocated += n
	return true
}

func (s *Server) release(n int64) {
	s.mu.Lock()
	s.allocated -= n
	s.mu.Unlock()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn handles the handshake and then the request stream for one
// client.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	hbuf := make([]byte, wire.HelloSize)
	if _, err := io.ReadFull(conn, hbuf); err != nil {
		return
	}
	hello, err := wire.UnmarshalHello(hbuf)
	hrep := wire.HelloReply{Status: wire.StatusOK}
	var area []byte
	switch {
	case err != nil:
		hrep.Status = wire.StatusBadRequest
	case hello.AreaBytes == 0 || hello.AreaBytes > uint64(s.cfg.CapacityBytes):
		hrep.Status = wire.StatusOutOfRange
	case !s.reserve(int64(hello.AreaBytes)):
		hrep.Status = wire.StatusServerError
	default:
		area = make([]byte, hello.AreaBytes)
		defer s.release(int64(hello.AreaBytes))
	}
	hrbuf := make([]byte, wire.HelloReplySize)
	wire.MarshalHelloReply(hrbuf, &hrep)
	if _, err := conn.Write(hrbuf); err != nil || hrep.Status != wire.StatusOK {
		return
	}
	s.log.Printf("netblock: client %s attached, area %d bytes", conn.RemoteAddr(), len(area))
	defer s.log.Printf("netblock: client %s detached", conn.RemoteAddr())

	// Request loop. Replies go through a dedicated writer goroutine so
	// request processing never blocks on a slow reply path. The writer
	// coalesces whatever has queued up into one writev per wakeup and puts
	// the frames back on the connection's own free list (bounded like the
	// queue: a miss allocates, a frame that finds it full is dropped), so
	// a garbage collection takes no frame away. After a write error it
	// keeps draining (and discarding) so the request loop never blocks on
	// a dead socket.
	replies := make(chan *[]byte, 64)
	free := make(chan *[]byte, cap(replies))
	frame := func(n int) *[]byte {
		select {
		case f := <-free:
			*f = (*f)[:n]
			return f
		default:
			f := make([]byte, n, wire.ReplySize+MaxRequestBytes)
			return &f
		}
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		var failed bool
		// bw is the writev's shadow of batch: WriteTo consumes its
		// receiver, which escapes, so it is declared once per connection
		// and batch's backing array is reused every wakeup.
		var batch, bw net.Buffers
		var rec []*[]byte
		for f := range replies {
			batch = append(batch[:0], *f)
			rec = append(rec[:0], f)
		drain:
			for len(batch) < cap(replies) {
				select {
				case f2, ok := <-replies:
					if !ok {
						break drain
					}
					batch = append(batch, *f2)
					rec = append(rec, f2)
				default:
					break drain
				}
			}
			if !failed {
				bw = batch
				if _, err := bw.WriteTo(conn); err != nil {
					failed = true
				}
			}
			for _, f := range rec {
				select {
				case free <- f:
				default:
				}
			}
			clear(batch)
			clear(rec)
		}
	}()
	defer wwg.Wait()
	defer close(replies)

	hdr := make([]byte, wire.RequestSize)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		req, err := wire.UnmarshalRequest(hdr)
		if err != nil {
			return // corrupted stream: drop the connection
		}
		if req.Type == wire.ReqStat {
			out := frame(wire.ReplySize + wire.StatPayloadSize)
			wire.MarshalReply(*out, &wire.Reply{Handle: req.Handle, Status: wire.StatusOK})
			wire.MarshalStat((*out)[wire.ReplySize:], &wire.Stat{
				CapacityBytes:  uint64(s.cfg.CapacityBytes),
				AllocatedBytes: uint64(s.Allocated()),
			})
			replies <- out
			continue
		}
		n := int(req.Length)
		st := wire.Check(req, uint64(len(area)), MaxRequestBytes)
		out := frame(wire.ReplySize)
		switch {
		case req.Type == wire.ReqWrite && st == wire.StatusOK:
			if _, err := io.ReadFull(conn, area[req.Offset:req.Offset+uint64(n)]); err != nil {
				return
			}
		case req.Type == wire.ReqWrite:
			// Payload follows even for rejected writes, to keep the stream
			// in sync; a length beyond any request's cannot be trusted.
			if n == 0 || n > MaxRequestBytes {
				return
			}
			if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
				return
			}
		case st == wire.StatusOK: // a read
			*out = (*out)[:wire.ReplySize+n]
			copy((*out)[wire.ReplySize:], area[req.Offset:req.Offset+uint64(n)])
		}
		wire.MarshalReply(*out, &wire.Reply{Handle: req.Handle, Status: st})
		replies <- out
	}
}
