// Package ntpwire implements the NTPv4 packet format (RFC 5905): the
// 48-byte client/server datagram with its four timestamps, stratum, poll
// and reference-identifier fields, plus the Kiss-o'-Death (KoD) convention
// and the reference-ID upstream leak the run-time attack's P2 discovery
// uses (a stratum-2 server's RefID is the IPv4 address of its sync source).
//
// Timestamp arithmetic runs on integers: ToTimestamp reads an instant's
// Unix seconds and nanoseconds, and Offset subtracts nanoseconds since the
// NTP epoch, with no time.Time built. Both give exactly what the
// time.Time expressions give. Those expressions saturate for a zero
// timestamp (the zero time.Time) and for instants before 1900 or from
// 2192 on, and there the expressions themselves still decide.
package ntpwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dnstime/internal/ipv4"
)

// PacketLen is the length of a mode 3/4 NTP packet.
const PacketLen = 48

// Port is the well-known NTP UDP port.
const Port = 123

// Mode is the NTP association mode.
type Mode uint8

// Modes used in the simulation.
const (
	ModeClient    Mode = 3
	ModeServer    Mode = 4
	ModeControl   Mode = 6 // ntpq
	ModePrivate   Mode = 7 // ntpdc / "Config interface"
	ModeBroadcast Mode = 5
)

// Leap indicator values.
const (
	LeapNone    = 0
	LeapUnknown = 3 // clock unsynchronised
)

// KoD reference identifiers (stratum 0 ASCII codes, RFC 5905 §7.4).
var (
	KissRATE = [4]byte{'R', 'A', 'T', 'E'}
	KissDENY = [4]byte{'D', 'E', 'N', 'Y'}
)

// ErrShortPacket is returned for datagrams below 48 bytes.
var ErrShortPacket = errors.New("ntpwire: short packet")

// ntpEpoch is the NTP era-0 epoch (1 Jan 1900).
var ntpEpoch = time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	// unixToNTP is the Unix epoch in seconds since the NTP epoch.
	unixToNTP = 2208988800
	// exactSecs bounds the whole seconds since the NTP epoch for which
	// t.Sub(ntpEpoch) does not saturate at the largest Duration, with
	// any nanosecond part (early in 2192).
	exactSecs = (1<<63 - 1) / int64(time.Second)
)

// sinceEpoch returns t.Sub(ntpEpoch) in nanoseconds, computed from t's
// Unix seconds and nanoseconds, and reports whether t lies in the range
// where it can: from 1900 to exactSecs seconds later, where that Sub
// neither goes negative nor saturates.
func sinceEpoch(t time.Time) (int64, bool) {
	s := t.Unix() + unixToNTP
	if s < 0 || s >= exactSecs {
		return 0, false
	}
	return s*int64(time.Second) + int64(t.Nanosecond()), true
}

// Timestamp is a 64-bit NTP timestamp: 32.32 fixed-point seconds since 1900.
type Timestamp uint64

// ToTimestamp converts a time.Time to NTP format. The zero time maps to the
// zero timestamp (meaning "not set").
func ToTimestamp(t time.Time) Timestamp {
	d, ok := sinceEpoch(t)
	if !ok {
		if t.IsZero() {
			return 0
		}
		d = int64(t.Sub(ntpEpoch))
	}
	secs := uint64(d / int64(time.Second))
	frac := uint64(d%int64(time.Second)) << 32 / uint64(time.Second)
	return Timestamp(secs<<32 | frac)
}

// nanos returns the timestamp in nanoseconds since the NTP epoch, the
// fraction rounded down to a nanosecond as Time rounds it.
func (ts Timestamp) nanos() int64 {
	secs := uint64(ts) >> 32
	frac := uint64(ts) & 0xffffffff
	return int64(secs)*int64(time.Second) + int64(frac*uint64(time.Second)>>32)
}

// Time converts back to time.Time; the zero timestamp yields the zero time.
func (ts Timestamp) Time() time.Time {
	if ts == 0 {
		return time.Time{}
	}
	return ntpEpoch.Add(time.Duration(ts.nanos()))
}

// Packet is a mode 3/4 NTP packet.
type Packet struct {
	Leap      uint8
	Version   uint8
	Mode      Mode
	Stratum   uint8
	Poll      int8
	Precision int8
	RootDelay uint32
	RootDisp  uint32
	RefID     [4]byte

	RefTime  Timestamp // last clock update
	OrigTime Timestamp // T1: client transmit, echoed by server
	RecvTime Timestamp // T2: server receive
	XmitTime Timestamp // T3: server transmit
}

// IsKoD reports whether the packet is a Kiss-o'-Death (stratum 0 response).
func (p *Packet) IsKoD() bool {
	return p.Mode == ModeServer && p.Stratum == 0 && p.RefID != [4]byte{}
}

// KissCode returns the ASCII kiss code for KoD packets ("" otherwise).
func (p *Packet) KissCode() string {
	if !p.IsKoD() {
		return ""
	}
	return string(p.RefID[:])
}

// RefIDAddr interprets the reference ID as an IPv4 address — valid for
// stratum ≥ 2 servers, where it identifies the upstream sync source. This
// is the leak the P2 run-time attack uses to discover upstream servers.
func (p *Packet) RefIDAddr() (ipv4.Addr, bool) {
	if p.Stratum < 2 {
		return ipv4.Addr{}, false
	}
	return ipv4.Addr(p.RefID), true
}

// Marshal encodes the packet to its 48-byte wire form.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(nil)
}

// AppendMarshal appends the packet's 48-byte wire form to dst and returns
// the extended slice. Encoding into a caller-supplied buffer is the
// allocation-free path servers and clients use per exchange.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, PacketLen)...)
	b := dst[off : off+PacketLen]
	b[0] = p.Leap<<6 | (p.Version&0x7)<<3 | uint8(p.Mode)&0x7
	b[1] = p.Stratum
	b[2] = byte(p.Poll)
	b[3] = byte(p.Precision)
	binary.BigEndian.PutUint32(b[4:8], p.RootDelay)
	binary.BigEndian.PutUint32(b[8:12], p.RootDisp)
	copy(b[12:16], p.RefID[:])
	binary.BigEndian.PutUint64(b[16:24], uint64(p.RefTime))
	binary.BigEndian.PutUint64(b[24:32], uint64(p.OrigTime))
	binary.BigEndian.PutUint64(b[32:40], uint64(p.RecvTime))
	binary.BigEndian.PutUint64(b[40:48], uint64(p.XmitTime))
	return dst
}

// Unmarshal decodes a 48-byte NTP packet.
func Unmarshal(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto decodes a 48-byte NTP packet into p, overwriting every
// field. Decoding into a caller-supplied (typically stack-allocated) Packet
// is the allocation-free path the receive handlers use.
func UnmarshalInto(p *Packet, b []byte) error {
	if len(b) < PacketLen {
		return fmt.Errorf("%w: %d bytes", ErrShortPacket, len(b))
	}
	*p = Packet{
		Leap:      b[0] >> 6,
		Version:   b[0] >> 3 & 0x7,
		Mode:      Mode(b[0] & 0x7),
		Stratum:   b[1],
		Poll:      int8(b[2]),
		Precision: int8(b[3]),
		RootDelay: binary.BigEndian.Uint32(b[4:8]),
		RootDisp:  binary.BigEndian.Uint32(b[8:12]),
		RefTime:   Timestamp(binary.BigEndian.Uint64(b[16:24])),
		OrigTime:  Timestamp(binary.BigEndian.Uint64(b[24:32])),
		RecvTime:  Timestamp(binary.BigEndian.Uint64(b[32:40])),
		XmitTime:  Timestamp(binary.BigEndian.Uint64(b[40:48])),
	}
	copy(p.RefID[:], b[12:16])
	return nil
}

// NewClientPacket builds a mode-3 query with T1 = now (by the client's own
// clock, which may be wrong — that is the point).
func NewClientPacket(localNow time.Time) *Packet {
	p := ClientPacket(localNow)
	return &p
}

// ClientPacket is NewClientPacket returning a value, for callers that keep
// the packet on the stack in allocation-sensitive paths.
func ClientPacket(localNow time.Time) Packet {
	return Packet{
		Leap:     LeapUnknown,
		Version:  4,
		Mode:     ModeClient,
		XmitTime: ToTimestamp(localNow), // clients put T1 in xmit
	}
}

// ServerPacket builds a mode-4 reply to query, by value so that callers
// keep it on the stack. serverNow is the server's (possibly shifted) clock
// reading, used for both T2 and T3; refid is the server's reference
// identifier.
func ServerPacket(query *Packet, serverNow time.Time, stratum uint8, refid [4]byte) Packet {
	now := ToTimestamp(serverNow)
	return Packet{
		Leap:     LeapNone,
		Version:  4,
		Mode:     ModeServer,
		Stratum:  stratum,
		Poll:     query.Poll,
		RefID:    refid,
		RefTime:  now,
		OrigTime: query.XmitTime, // echo T1
		RecvTime: now,
		XmitTime: now,
	}
}

// NewKoD builds a Kiss-o'-Death reply with the given kiss code.
func NewKoD(query *Packet, code [4]byte) *Packet {
	return &Packet{
		Leap:     LeapUnknown,
		Version:  4,
		Mode:     ModeServer,
		Stratum:  0,
		RefID:    code,
		OrigTime: query.XmitTime,
	}
}

// Offset computes the clock offset θ = ((T2−T1)+(T3−T4))/2 from a
// client-server exchange, where t1 and t4 are the client's local transmit
// and receive times. T1 is the echoed origin timestamp, or t1 when the
// reply echoes none.
func Offset(resp *Packet, t1, t4 time.Time) time.Duration {
	n1, ok1 := resp.OrigTime.nanos(), resp.OrigTime != 0
	if !ok1 {
		n1, ok1 = sinceEpoch(t1)
	}
	n4, ok4 := sinceEpoch(t4)
	if ok1 && ok4 && resp.RecvTime != 0 && resp.XmitTime != 0 {
		return (time.Duration(resp.RecvTime.nanos()-n1) + time.Duration(resp.XmitTime.nanos()-n4)) / 2
	}
	// A zero T2 or T3 is the zero time, and t1 or t4 may lie outside
	// sinceEpoch's range: Sub saturates there.
	T1 := t1
	if resp.OrigTime != 0 {
		T1 = resp.OrigTime.Time()
	}
	T2 := resp.RecvTime.Time()
	T3 := resp.XmitTime.Time()
	return (T2.Sub(T1) + T3.Sub(t4)) / 2
}
