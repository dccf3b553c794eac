// Package wire defines the HPBD protocol messages exchanged between the
// client block driver and the memory servers, with a fixed binary layout.
// The same encoding is used by the simulated InfiniBand implementation
// (internal/hpbd) and the real TCP implementation (internal/netblock), and
// its message signature field is the validation mechanism the paper
// mentions for request/response integrity.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic values guard against corrupted or misrouted messages.
const (
	ReqMagic = 0x48504244 // "HPBD"
	RepMagic = 0x44425048 // "DBPH"
)

// ReqType distinguishes request directions.
type ReqType uint8

const (
	// ReqWrite is a swap-out: the server pulls page data from the client
	// (RDMA READ) and stores it.
	ReqWrite ReqType = 1
	// ReqRead is a swap-in: the server pushes stored page data to the
	// client (RDMA WRITE).
	ReqRead ReqType = 2
	// ReqStat asks the server for capacity/allocation counters (real TCP
	// implementation only; an operations aid, not part of the paper).
	ReqStat ReqType = 3
)

func (t ReqType) String() string {
	switch t {
	case ReqWrite:
		return "write"
	case ReqRead:
		return "read"
	case ReqStat:
		return "stat"
	}
	return fmt.Sprintf("ReqType(%d)", uint8(t))
}

// StatPayloadSize is the payload following a successful ReqStat reply:
// capacity and allocated bytes as two big-endian uint64s.
const StatPayloadSize = 16

// Stat is the payload of a successful ReqStat reply.
type Stat struct {
	CapacityBytes  uint64
	AllocatedBytes uint64
}

// MarshalStat encodes s into buf (StatPayloadSize bytes).
func MarshalStat(buf []byte, s *Stat) {
	_ = buf[StatPayloadSize-1]
	binary.BigEndian.PutUint64(buf[0:], s.CapacityBytes)
	binary.BigEndian.PutUint64(buf[8:], s.AllocatedBytes)
}

// UnmarshalStat decodes a Stat from buf. The payload rides inside an
// already-validated Reply, so it carries no magic of its own.
func UnmarshalStat(buf []byte) (Stat, error) {
	if len(buf) < StatPayloadSize {
		return Stat{}, ErrShortMessage
	}
	return Stat{
		CapacityBytes:  binary.BigEndian.Uint64(buf[0:]),
		AllocatedBytes: binary.BigEndian.Uint64(buf[8:]),
	}, nil
}

// Status codes carried in replies.
type Status uint8

const (
	StatusOK Status = iota
	StatusBadRequest
	StatusOutOfRange
	StatusServerError
	// StatusRetry is RNR-style admission pushback: the server refused
	// the request for now (a tenant over its memory quota) and the
	// client should back off and retry after reclaim makes room.
	StatusRetry
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusOutOfRange:
		return "out-of-range"
	case StatusServerError:
		return "server-error"
	case StatusRetry:
		return "retry"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Request is the control message for one physical page-transfer request.
type Request struct {
	Magic  uint32
	Type   ReqType
	Handle uint64 // client-chosen identifier echoed in the reply
	Offset uint64 // byte offset within this client's area on the server
	Length uint32 // transfer size in bytes
	// Addr/RKey address the client's registration-pool buffer the server
	// RDMAs against (pool-relative byte offset and the pool MR's rkey).
	Addr uint64
	RKey uint32
}

// RequestSize is the wire size of a Request in bytes.
const RequestSize = 4 + 1 + 8 + 8 + 4 + 8 + 4

// Check is the protocol's one request rulebook, applied by both servers
// before any data moves. A type other than write or read is
// StatusBadRequest; a length outside (0, maxLen], or a range [Offset,
// Offset+Length) that does not fit an area of areaBytes, is
// StatusOutOfRange. The range test cannot wrap, whatever Offset holds.
// ReqStat is netblock's own, and it answers one before calling Check.
func Check(req Request, areaBytes uint64, maxLen int) Status {
	if req.Type != ReqWrite && req.Type != ReqRead {
		return StatusBadRequest
	}
	n := uint64(req.Length)
	if n == 0 || int64(n) > int64(maxLen) || req.Offset > areaBytes || n > areaBytes-req.Offset {
		return StatusOutOfRange
	}
	return StatusOK
}

// Reply is the control message completing a request.
type Reply struct {
	Magic  uint32
	Handle uint64
	Status Status
}

// ReplySize is the wire size of a Reply in bytes.
const ReplySize = 4 + 8 + 1

// Errors from decoding.
var (
	ErrShortMessage = errors.New("wire: short message")
	ErrBadMagic     = errors.New("wire: bad magic")
)

// Hello is the connection-setup message a client sends to reserve a swap
// area on a memory server (the out-of-band exchange the paper performs
// over a socket at device initialization).
type Hello struct {
	Magic     uint32
	AreaBytes uint64
}

// HelloSize is the wire size of a Hello.
const HelloSize = 4 + 8

// HelloMagic guards Hello messages.
const HelloMagic = 0x48454c4f // "HELO"

// MarshalHello encodes h into buf (HelloSize bytes).
func MarshalHello(buf []byte, h *Hello) {
	_ = buf[HelloSize-1]
	binary.BigEndian.PutUint32(buf[0:], HelloMagic)
	binary.BigEndian.PutUint64(buf[4:], h.AreaBytes)
}

// UnmarshalHello decodes a Hello from buf.
func UnmarshalHello(buf []byte) (Hello, error) {
	if len(buf) < HelloSize {
		return Hello{}, ErrShortMessage
	}
	if binary.BigEndian.Uint32(buf[0:]) != HelloMagic {
		return Hello{}, ErrBadMagic
	}
	return Hello{Magic: HelloMagic, AreaBytes: binary.BigEndian.Uint64(buf[4:])}, nil
}

// HelloReply answers a Hello.
type HelloReply struct {
	Magic  uint32
	Status Status
}

// HelloReplySize is the wire size of a HelloReply.
const HelloReplySize = 4 + 1

// MarshalHelloReply encodes hr into buf (HelloReplySize bytes).
func MarshalHelloReply(buf []byte, hr *HelloReply) {
	_ = buf[HelloReplySize-1]
	binary.BigEndian.PutUint32(buf[0:], RepMagic)
	buf[4] = byte(hr.Status)
}

// UnmarshalHelloReply decodes a HelloReply from buf.
func UnmarshalHelloReply(buf []byte) (HelloReply, error) {
	if len(buf) < HelloReplySize {
		return HelloReply{}, ErrShortMessage
	}
	if binary.BigEndian.Uint32(buf[0:]) != RepMagic {
		return HelloReply{}, ErrBadMagic
	}
	return HelloReply{Magic: RepMagic, Status: Status(buf[4])}, nil
}

// MarshalRequest encodes r into buf, which must hold RequestSize bytes.
func MarshalRequest(buf []byte, r *Request) {
	_ = buf[RequestSize-1]
	binary.BigEndian.PutUint32(buf[0:], ReqMagic)
	buf[4] = byte(r.Type)
	binary.BigEndian.PutUint64(buf[5:], r.Handle)
	binary.BigEndian.PutUint64(buf[13:], r.Offset)
	binary.BigEndian.PutUint32(buf[21:], r.Length)
	binary.BigEndian.PutUint64(buf[25:], r.Addr)
	binary.BigEndian.PutUint32(buf[33:], r.RKey)
}

// UnmarshalRequest decodes a Request from buf.
func UnmarshalRequest(buf []byte) (Request, error) {
	if len(buf) < RequestSize {
		return Request{}, ErrShortMessage
	}
	if binary.BigEndian.Uint32(buf[0:]) != ReqMagic {
		return Request{}, ErrBadMagic
	}
	return Request{
		Magic:  ReqMagic,
		Type:   ReqType(buf[4]),
		Handle: binary.BigEndian.Uint64(buf[5:]),
		Offset: binary.BigEndian.Uint64(buf[13:]),
		Length: binary.BigEndian.Uint32(buf[21:]),
		Addr:   binary.BigEndian.Uint64(buf[25:]),
		RKey:   binary.BigEndian.Uint32(buf[33:]),
	}, nil
}

// MarshalReply encodes rp into buf, which must hold ReplySize bytes.
func MarshalReply(buf []byte, rp *Reply) {
	_ = buf[ReplySize-1]
	binary.BigEndian.PutUint32(buf[0:], RepMagic)
	binary.BigEndian.PutUint64(buf[4:], rp.Handle)
	buf[12] = byte(rp.Status)
}

// UnmarshalReply decodes a Reply from buf.
func UnmarshalReply(buf []byte) (Reply, error) {
	if len(buf) < ReplySize {
		return Reply{}, ErrShortMessage
	}
	if binary.BigEndian.Uint32(buf[0:]) != RepMagic {
		return Reply{}, ErrBadMagic
	}
	return Reply{
		Magic:  RepMagic,
		Handle: binary.BigEndian.Uint64(buf[4:]),
		Status: Status(buf[12]),
	}, nil
}
