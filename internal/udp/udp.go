// Package udp implements the UDP datagram wire format and the Internet
// ones'-complement checksum, including the checksum-fixing primitive used by
// the fragment-replacement attack (Section III of the paper): an off-path
// attacker that modifies the second IP fragment of a UDP datagram cannot
// change the checksum field (it lives in the first fragment), so it instead
// adjusts slack bytes in its spoofed fragment until the ones'-complement sum
// of the modified fragment equals that of the original.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// HeaderLen is the length of a UDP header in bytes.
const HeaderLen = 8

// Errors returned by this package.
var (
	ErrShortDatagram = errors.New("udp: datagram shorter than header")
	ErrBadLength     = errors.New("udp: length field disagrees with payload")
	ErrBadChecksum   = errors.New("udp: checksum mismatch")
)

// Header is a UDP header.
type Header struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload, octets
	Checksum uint16
}

// Datagram is a UDP datagram: header plus payload.
type Datagram struct {
	Header  Header
	Payload []byte
}

// Marshal encodes the datagram to wire format. The Length field is set from
// the payload; the Checksum field is written as-is (use ComputeChecksum or
// WithChecksum to fill it).
func (d *Datagram) Marshal() []byte {
	b := make([]byte, HeaderLen+len(d.Payload))
	binary.BigEndian.PutUint16(b[0:2], d.Header.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], d.Header.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(HeaderLen+len(d.Payload)))
	binary.BigEndian.PutUint16(b[6:8], d.Header.Checksum)
	copy(b[HeaderLen:], d.Payload)
	return b
}

// Unmarshal decodes a wire-format UDP datagram. The returned payload is a
// copy, safe to retain after b is reused.
func Unmarshal(b []byte) (*Datagram, error) {
	h, payload, err := Parse(b)
	if err != nil {
		return nil, err
	}
	return &Datagram{Header: h, Payload: append([]byte(nil), payload...)}, nil
}

// Parse decodes a wire-format UDP datagram without copying: the returned
// payload aliases b and is only valid while b is. The receive hot path uses
// this to dispatch into pooled packet buffers with zero allocations.
func Parse(b []byte) (Header, []byte, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, ErrShortDatagram
	}
	h := Header{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}
	if int(h.Length) != len(b) {
		return Header{}, nil, fmt.Errorf("%w: field=%d actual=%d", ErrBadLength, h.Length, len(b))
	}
	return h, b[HeaderLen:], nil
}

// PutHeader writes a UDP header into b (which must hold at least HeaderLen
// bytes) for a datagram of totalLen octets, leaving the checksum field
// zero. Combined with FillChecksum it builds a checksummed datagram in a
// caller-supplied buffer with no intermediate copies.
func PutHeader(b []byte, srcPort, dstPort uint16, totalLen int) {
	binary.BigEndian.PutUint16(b[0:2], srcPort)
	binary.BigEndian.PutUint16(b[2:4], dstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(totalLen))
	b[6], b[7] = 0, 0
}

// Sum1 computes the 16-bit ones'-complement sum of b (without the final
// inversion). Odd-length input is padded with a zero byte, per RFC 1071.
//
// 2^16 ≡ 1 modulo 2^16−1, so a big-endian 64-bit word is congruent to the
// sum of its four 16-bit words, and 2^64−1 is a multiple of 2^16−1: adding
// the buffer 64 bits at a time with end-around carry, then folding the sum
// to 16 bits with end-around carry, gives the 16-bit sum. Neither step
// turns a non-zero sum into zero, so the result is 0 only for a buffer of
// zeros, as a 16-bit loop gives.
func Sum1(b []byte) uint16 {
	var sum, carry uint64
	for ; len(b) >= 32; b = b[32:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), carry)
	}
	for ; len(b) >= 8; b = b[8:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
	}
	// The tail is under 8 bytes: at most 6 of them are whole 16-bit
	// words and one is an odd byte, so it fits one 64-bit word.
	var tail uint64
	for ; len(b) >= 2; b = b[2:] {
		tail += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	sum, carry = bits.Add64(sum, tail, carry)
	sum += carry // a carry out leaves sum at most tail, so this cannot overflow
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return uint16(sum)
}

// addOnes adds two 16-bit values in ones'-complement arithmetic.
func addOnes(a, b uint16) uint16 {
	s := uint32(a) + uint32(b)
	if s > 0xffff {
		s = (s & 0xffff) + (s >> 16)
	}
	return uint16(s)
}

// subOnes computes a − b in ones'-complement arithmetic.
func subOnes(a, b uint16) uint16 {
	return addOnes(a, ^b)
}

// ComputeChecksum computes the UDP checksum over the RFC 768 pseudo-header
// (source and destination IPv4 addresses, protocol 17, UDP length) and the
// datagram bytes. Per the RFC, a computed checksum of zero is transmitted as
// 0xFFFF.
func ComputeChecksum(src, dst [4]byte, datagram []byte) uint16 {
	pseudo := make([]byte, 12)
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = 17 // protocol: UDP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(datagram)))

	sum := addOnes(Sum1(pseudo), Sum1(datagram))
	cs := ^sum
	if cs == 0 {
		cs = 0xffff
	}
	return cs
}

// checksumZeroedField computes the checksum of datagram as if its checksum
// field (bytes 6–7) were zero, without copying. The pseudo-header is summed
// arithmetically; the datagram is summed around the field, which sits on a
// 16-bit boundary, so the ones'-complement sum composes exactly.
func checksumZeroedField(src, dst [4]byte, datagram []byte) uint16 {
	sum := addOnes(binary.BigEndian.Uint16(src[0:2]), binary.BigEndian.Uint16(src[2:4]))
	sum = addOnes(sum, binary.BigEndian.Uint16(dst[0:2]))
	sum = addOnes(sum, binary.BigEndian.Uint16(dst[2:4]))
	sum = addOnes(sum, 17) // protocol: UDP
	sum = addOnes(sum, uint16(len(datagram)))
	sum = addOnes(sum, Sum1(datagram[:6]))
	sum = addOnes(sum, Sum1(datagram[8:]))
	cs := ^sum
	if cs == 0 {
		cs = 0xffff
	}
	return cs
}

// FillChecksum computes the checksum of a wire-format datagram in place,
// writing it into the checksum field. Unlike WithChecksum it performs no
// copies; the send hot path builds datagrams directly in packet buffers and
// checksums them here.
func FillChecksum(src, dst [4]byte, datagram []byte) {
	cs := checksumZeroedField(src, dst, datagram)
	binary.BigEndian.PutUint16(datagram[6:8], cs)
}

// Verify checks the checksum of a wire-format datagram against the given
// pseudo-header addresses. A zero checksum field means "no checksum" and
// always verifies, per RFC 768. Verification is allocation-free.
func Verify(src, dst [4]byte, datagram []byte) error {
	if len(datagram) < HeaderLen {
		return ErrShortDatagram
	}
	field := binary.BigEndian.Uint16(datagram[6:8])
	if field == 0 {
		return nil
	}
	if got := checksumZeroedField(src, dst, datagram); got != field {
		return fmt.Errorf("%w: field=%#04x computed=%#04x", ErrBadChecksum, field, got)
	}
	return nil
}

// WithChecksum returns a copy of the wire-format datagram with its checksum
// field computed and filled in.
func WithChecksum(src, dst [4]byte, datagram []byte) []byte {
	out := make([]byte, len(datagram))
	copy(out, datagram)
	out[6], out[7] = 0, 0
	cs := ComputeChecksum(src, dst, out)
	binary.BigEndian.PutUint16(out[6:8], cs)
	return out
}

// FixSum adjusts the 16-bit big-endian value at offset slackOff in modified
// so that Sum1(modified) == Sum1(original). This is the attacker's checksum
// fix from Section III: original is the real second fragment (as predicted
// by the attacker), modified is the spoofed second fragment carrying the
// malicious records, and slackOff points at two attacker-controlled
// "unimportant" bytes (e.g. inside a padding record). slackOff must be even
// and within modified.
func FixSum(original, modified []byte, slackOff int) error {
	if slackOff < 0 || slackOff+2 > len(modified) {
		return fmt.Errorf("udp: slack offset %d out of range [0,%d)", slackOff, len(modified)-1)
	}
	if slackOff%2 != 0 {
		return fmt.Errorf("udp: slack offset %d must be 16-bit aligned", slackOff)
	}
	want := Sum1(original)
	// Zero the slack first so its current content doesn't feed the delta.
	modified[slackOff], modified[slackOff+1] = 0, 0
	have := Sum1(modified)
	delta := subOnes(want, have)
	binary.BigEndian.PutUint16(modified[slackOff:slackOff+2], delta)
	if got := Sum1(modified); got != want {
		// Ones'-complement has two zero representations (0x0000/0xffff);
		// normalise by re-checking and adjusting once.
		if subOnes(want, got) != 0 {
			return fmt.Errorf("udp: checksum fix failed: want %#04x got %#04x", want, got)
		}
	}
	return nil
}
