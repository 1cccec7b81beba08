package udp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	srcAddr = [4]byte{192, 0, 2, 1}
	dstAddr = [4]byte{198, 51, 100, 7}
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	d := &Datagram{
		Header:  Header{SrcPort: 53, DstPort: 33333, Checksum: 0xbeef},
		Payload: []byte("hello dns"),
	}
	b := d.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Header.SrcPort != 53 || got.Header.DstPort != 33333 {
		t.Errorf("ports = %d,%d want 53,33333", got.Header.SrcPort, got.Header.DstPort)
	}
	if got.Header.Length != uint16(HeaderLen+len(d.Payload)) {
		t.Errorf("Length = %d, want %d", got.Header.Length, HeaderLen+len(d.Payload))
	}
	if !bytes.Equal(got.Payload, d.Payload) {
		t.Errorf("payload = %q, want %q", got.Payload, d.Payload)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); !errors.Is(err, ErrShortDatagram) {
		t.Errorf("err = %v, want ErrShortDatagram", err)
	}
}

func TestUnmarshalBadLength(t *testing.T) {
	d := &Datagram{Payload: []byte("x")}
	b := d.Marshal()
	b[5] = 200 // corrupt length
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

func TestSum1KnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0xddf2 (with carries).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum1(b); got != 0xddf2 {
		t.Errorf("Sum1 = %#04x, want 0xddf2", got)
	}
}

func TestSum1OddLengthPadsZero(t *testing.T) {
	if got, want := Sum1([]byte{0x12}), uint16(0x1200); got != want {
		t.Errorf("Sum1 = %#04x, want %#04x", got, want)
	}
}

func TestChecksumVerifyRoundTrip(t *testing.T) {
	d := &Datagram{
		Header:  Header{SrcPort: 53, DstPort: 1234},
		Payload: []byte("a dns response payload"),
	}
	wire := WithChecksum(srcAddr, dstAddr, d.Marshal())
	if err := Verify(srcAddr, dstAddr, wire); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	d := &Datagram{Header: Header{SrcPort: 53, DstPort: 1234}, Payload: []byte("payload")}
	wire := WithChecksum(srcAddr, dstAddr, d.Marshal())
	wire[len(wire)-1] ^= 0xff
	if err := Verify(srcAddr, dstAddr, wire); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestVerifyDetectsWrongPseudoHeader(t *testing.T) {
	d := &Datagram{Header: Header{SrcPort: 53, DstPort: 1234}, Payload: []byte("payload")}
	wire := WithChecksum(srcAddr, dstAddr, d.Marshal())
	other := [4]byte{10, 0, 0, 1}
	if err := Verify(other, dstAddr, wire); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestZeroChecksumMeansUnchecked(t *testing.T) {
	d := &Datagram{Header: Header{SrcPort: 53, DstPort: 1234}, Payload: []byte("payload")}
	wire := d.Marshal() // checksum field left zero
	if err := Verify(srcAddr, dstAddr, wire); err != nil {
		t.Errorf("Verify with zero checksum: %v", err)
	}
}

// TestFixSumAttackScenario models the core of the Section III attack: the
// attacker swaps the second fragment's content but fixes slack bytes so the
// full reassembled datagram still passes UDP checksum verification.
func TestFixSumAttackScenario(t *testing.T) {
	// The real DNS response the nameserver sends, split at an 8-byte
	// boundary into frag1 (with UDP header) and frag2.
	realPayload := bytes.Repeat([]byte("real-ntp-server-address."), 4)
	d := &Datagram{Header: Header{SrcPort: 53, DstPort: 9999}, Payload: realPayload}
	wire := WithChecksum(srcAddr, dstAddr, d.Marshal())
	split := 48 // multiple of 8
	frag1 := wire[:split]
	frag2 := append([]byte(nil), wire[split:]...)

	// Attacker crafts a malicious second fragment of the same length with
	// two slack bytes near the end.
	evil := bytes.Repeat([]byte("evil-ntp-server-address."), len(frag2)/24+1)[:len(frag2)]
	slack := len(evil) - 2
	if slack%2 != 0 {
		slack--
	}
	if err := FixSum(frag2, evil, slack); err != nil {
		t.Fatalf("FixSum: %v", err)
	}

	// Victim reassembles frag1 + evil: checksum must still verify.
	reassembled := append(append([]byte(nil), frag1...), evil...)
	if err := Verify(srcAddr, dstAddr, reassembled); err != nil {
		t.Fatalf("reassembled spoofed datagram failed checksum: %v", err)
	}
}

func TestFixSumRejectsBadOffsets(t *testing.T) {
	orig := make([]byte, 16)
	mod := make([]byte, 16)
	if err := FixSum(orig, mod, 15); err == nil {
		t.Error("odd offset accepted")
	}
	if err := FixSum(orig, mod, 16); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if err := FixSum(orig, mod, -2); err == nil {
		t.Error("negative offset accepted")
	}
}

// Property: FixSum always equalises the ones'-complement sums.
func TestPropertyFixSumEqualisesSums(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(b) < 4 {
			return true
		}
		mod := append([]byte(nil), b...)
		slack := (len(mod) - 2) &^ 1
		if err := FixSum(a, mod, slack); err != nil {
			return false
		}
		// Sums must be equal modulo the two representations of zero.
		sa, sm := Sum1(a), Sum1(mod)
		return sa == sm || subOnes(sa, sm) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: checksum round-trips for arbitrary payloads.
func TestPropertyChecksumRoundTrip(t *testing.T) {
	f := func(payload []byte, sp, dp uint16) bool {
		d := &Datagram{Header: Header{SrcPort: sp, DstPort: dp}, Payload: payload}
		wire := WithChecksum(srcAddr, dstAddr, d.Marshal())
		return Verify(srcAddr, dstAddr, wire) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOnesComplementArithmetic(t *testing.T) {
	tests := []struct {
		a, b, sum uint16
	}{
		{0x0000, 0x0000, 0x0000},
		{0xffff, 0x0001, 0x0001},
		{0x8000, 0x8000, 0x0001},
		{0x1234, 0x4321, 0x5555},
	}
	for _, tt := range tests {
		if got := addOnes(tt.a, tt.b); got != tt.sum {
			t.Errorf("addOnes(%#04x,%#04x) = %#04x, want %#04x", tt.a, tt.b, got, tt.sum)
		}
	}
	// subOnes inverts addOnes: (a+b)-b == a, where 0x0000 and 0xffff are the
	// two ones'-complement representations of zero.
	sameOnes := func(x, y uint16) bool {
		if x == y {
			return true
		}
		zero := func(v uint16) bool { return v == 0 || v == 0xffff }
		return zero(x) && zero(y)
	}
	for _, tt := range tests {
		s := addOnes(tt.a, tt.b)
		if d := subOnes(s, tt.b); !sameOnes(d, tt.a) {
			t.Errorf("subOnes(addOnes(%#04x,%#04x),%#04x) = %#04x", tt.a, tt.b, tt.b, d)
		}
	}
}

// sum16 is RFC 1071's plain loop: 16-bit big-endian words added into a
// 32-bit accumulator, an odd last byte padded with zero, and the carries
// folded back at the end.
func sum16(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// TestSum1MatchesRFC1071Loop: Sum1 equals the plain 16-bit loop on random
// buffers of every length from 0 to 1500, odd ones included, at every
// alignment within a word, and on all-zero and all-0xFF buffers, where
// the 64-bit carries are densest.
func TestSum1MatchesRFC1071Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1500+8)
	for n := 0; n <= 1500; n++ {
		for _, off := range []int{0, 1, 3, 7} {
			b := buf[off : off+n]
			rng.Read(b)
			if got, want := Sum1(b), sum16(b); got != want {
				t.Fatalf("random len %d at %d: Sum1 = %#04x, want %#04x", n, off, got, want)
			}
		}
		zeros := make([]byte, n)
		if got := Sum1(zeros); got != 0 {
			t.Fatalf("zeros len %d: Sum1 = %#04x, want 0", n, got)
		}
		ones := bytes.Repeat([]byte{0xff}, n)
		if got, want := Sum1(ones), sum16(ones); got != want {
			t.Fatalf("0xff len %d: Sum1 = %#04x, want %#04x", n, got, want)
		}
	}
}

// TestZeroSumSentAsFFFF: a datagram whose computed checksum is zero
// carries 0xFFFF, per RFC 768, and verifies.
func TestZeroSumSentAsFFFF(t *testing.T) {
	d := make([]byte, HeaderLen+10)
	PutHeader(d, 53, 4444, len(d))
	copy(d[HeaderLen:], "zero-sum")
	// Choose the last payload word so the checksummed sum is 0xFFFF,
	// whose complement is 0.
	pseudo := []byte{srcAddr[0], srcAddr[1], srcAddr[2], srcAddr[3], dstAddr[0], dstAddr[1], dstAddr[2], dstAddr[3], 0, 17, 0, byte(len(d))}
	s := addOnes(Sum1(pseudo), Sum1(d))
	binary.BigEndian.PutUint16(d[len(d)-2:], subOnes(0xffff, s))
	if got := ^addOnes(Sum1(pseudo), Sum1(d)); got != 0 {
		t.Fatalf("constructed datagram sums to complement %#04x, want 0", got)
	}
	if got := ComputeChecksum(srcAddr, dstAddr, d); got != 0xffff {
		t.Errorf("ComputeChecksum = %#04x, want 0xffff", got)
	}
	FillChecksum(srcAddr, dstAddr, d)
	if got := binary.BigEndian.Uint16(d[6:8]); got != 0xffff {
		t.Errorf("FillChecksum wrote %#04x, want 0xffff", got)
	}
	if err := Verify(srcAddr, dstAddr, d); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// refChecksum is the RFC 768 checksum of datagram computed with sum16: the
// pseudo-header (addresses, protocol 17, the datagram's length) followed
// by the datagram with its checksum field zeroed, complemented, and a
// result of 0 sent as 0xFFFF.
func refChecksum(src, dst [4]byte, datagram []byte) uint16 {
	b := []byte{src[0], src[1], src[2], src[3], dst[0], dst[1], dst[2], dst[3], 0, 17, 0, 0}
	binary.BigEndian.PutUint16(b[10:12], uint16(len(datagram)))
	b = append(b, datagram...)
	b[12+6], b[12+7] = 0, 0
	if cs := ^sum16(b); cs != 0 {
		return cs
	}
	return 0xffff
}

// FuzzVerify: for any bytes and addresses, Verify agrees with refChecksum.
// Input shorter than a header is ErrShortDatagram; a zero checksum field
// is accepted; any other field is accepted exactly when it equals the
// reference, and rejected with ErrBadChecksum otherwise. FillChecksum
// followed by Verify always accepts.
func FuzzVerify(f *testing.F) {
	d := &Datagram{Header: Header{SrcPort: 53, DstPort: 1234}, Payload: []byte("a dns response payload")}
	good := WithChecksum(srcAddr, dstAddr, d.Marshal())
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	src, dst := binary.BigEndian.Uint32(srcAddr[:]), binary.BigEndian.Uint32(dstAddr[:])
	f.Add(src, dst, []byte{})
	f.Add(src, dst, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(src, dst, d.Marshal())
	f.Add(src, dst, good)
	f.Add(src, dst, bad)
	f.Add(dst, src, good)
	f.Add(src, dst, []byte{0, 53, 0, 53, 0, 8, 0xff, 0xff})
	f.Add(uint32(0), uint32(0), make([]byte, 9))
	f.Add(^uint32(0), ^uint32(0), bytes.Repeat([]byte{0xff}, 33))
	f.Fuzz(func(t *testing.T, src, dst uint32, datagram []byte) {
		var s, d [4]byte
		binary.BigEndian.PutUint32(s[:], src)
		binary.BigEndian.PutUint32(d[:], dst)
		err := Verify(s, d, datagram)
		if len(datagram) < HeaderLen {
			if !errors.Is(err, ErrShortDatagram) {
				t.Fatalf("%d-byte datagram: %v, want ErrShortDatagram", len(datagram), err)
			}
			return
		}
		field := binary.BigEndian.Uint16(datagram[6:8])
		if field == 0 || field == refChecksum(s, d, datagram) {
			if err != nil {
				t.Fatalf("field %#04x, reference %#04x: %v, want accepted", field, refChecksum(s, d, datagram), err)
			}
		} else if !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("field %#04x, reference %#04x: %v, want ErrBadChecksum", field, refChecksum(s, d, datagram), err)
		}
		filled := append([]byte(nil), datagram...)
		FillChecksum(s, d, filled)
		if err := Verify(s, d, filled); err != nil {
			t.Fatalf("after FillChecksum: %v", err)
		}
	})
}
