package wire

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzUnmarshalRequest: arbitrary bytes must never panic, and anything
// that decodes successfully must re-encode to the same bytes.
func FuzzUnmarshalRequest(f *testing.F) {
	seed := make([]byte, RequestSize)
	MarshalRequest(seed, &Request{Type: ReqWrite, Handle: 7, Offset: 4096, Length: 131072, Addr: 12, RKey: 9})
	f.Add(seed)
	f.Add(make([]byte, RequestSize))
	f.Add([]byte{0x48})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRequest(data)
		if err != nil {
			return
		}
		out := make([]byte, RequestSize)
		MarshalRequest(out, &r)
		if !bytes.Equal(out, data[:RequestSize]) {
			t.Errorf("re-encode mismatch: %x vs %x", out, data[:RequestSize])
		}
	})
}

// FuzzUnmarshalReply mirrors the request fuzzer.
func FuzzUnmarshalReply(f *testing.F) {
	seed := make([]byte, ReplySize)
	MarshalReply(seed, &Reply{Handle: 3, Status: StatusOK})
	f.Add(seed)
	f.Add(make([]byte, ReplySize))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalReply(data)
		if err != nil {
			return
		}
		out := make([]byte, ReplySize)
		MarshalReply(out, &r)
		if !bytes.Equal(out, data[:ReplySize]) {
			t.Errorf("re-encode mismatch: %x vs %x", out, data[:ReplySize])
		}
	})
}

// FuzzUnmarshalHelloReply covers the handshake acknowledgement the real
// client decodes straight off the network.
func FuzzUnmarshalHelloReply(f *testing.F) {
	seed := make([]byte, HelloReplySize)
	MarshalHelloReply(seed, &HelloReply{Status: StatusOK})
	f.Add(seed)
	bad := make([]byte, HelloReplySize)
	MarshalHelloReply(bad, &HelloReply{Status: StatusServerError})
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		hr, err := UnmarshalHelloReply(data)
		if err != nil {
			return
		}
		out := make([]byte, HelloReplySize)
		MarshalHelloReply(out, &hr)
		if !bytes.Equal(out, data[:HelloReplySize]) {
			t.Errorf("re-encode mismatch: %x vs %x", out, data[:HelloReplySize])
		}
	})
}

// FuzzUnmarshalStat covers the stat payload riding inside an
// already-validated reply (no magic of its own, so every 16-byte input
// must round-trip).
func FuzzUnmarshalStat(f *testing.F) {
	seed := make([]byte, StatPayloadSize)
	MarshalStat(seed, &Stat{CapacityBytes: 1 << 30, AllocatedBytes: 1 << 20})
	f.Add(seed)
	f.Add(make([]byte, StatPayloadSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalStat(data)
		if err != nil {
			return
		}
		out := make([]byte, StatPayloadSize)
		MarshalStat(out, &st)
		if !bytes.Equal(out, data[:StatPayloadSize]) {
			t.Errorf("re-encode mismatch: %x vs %x", out, data[:StatPayloadSize])
		}
	})
}

// FuzzUnmarshalHello covers the handshake path the real server exposes to
// the network.
func FuzzUnmarshalHello(f *testing.F) {
	seed := make([]byte, HelloSize)
	MarshalHello(seed, &Hello{AreaBytes: 1 << 20})
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHello(data)
		if err != nil {
			return
		}
		out := make([]byte, HelloSize)
		MarshalHello(out, &h)
		if !bytes.Equal(out, data[:HelloSize]) {
			t.Errorf("re-encode mismatch")
		}
	})
}

// FuzzCheck: the rulebook passes a request exactly when it is a write or
// a read of 0 < n <= maxLen bytes whose range [off, off+n) fits the area,
// computed without wrapping; a passed range always indexes the area.
func FuzzCheck(f *testing.F) {
	f.Add(uint8(ReqWrite), uint64(0), uint32(4096), uint64(1<<20), 128<<10)
	f.Add(uint8(ReqRead), uint64(1<<20-4096), uint32(4096), uint64(1<<20), 128<<10)
	f.Add(uint8(ReqRead), uint64(1<<64-101), uint32(4096), uint64(1<<20), 128<<10)
	f.Add(uint8(9), uint64(0), uint32(1), uint64(1), 1)
	f.Fuzz(func(t *testing.T, typ uint8, off uint64, n uint32, area uint64, maxLen int) {
		req := Request{Type: ReqType(typ), Offset: off, Length: n}
		end, carry := bits.Add64(off, uint64(n), 0)
		valid := (req.Type == ReqWrite || req.Type == ReqRead) &&
			n > 0 && maxLen > 0 && uint64(n) <= uint64(maxLen) && carry == 0 && end <= area
		if got := Check(req, area, maxLen); (got == StatusOK) != valid {
			t.Errorf("Check(%+v, area %d, maxLen %d) = %v, want valid=%v", req, area, maxLen, got, valid)
		}
	})
}
