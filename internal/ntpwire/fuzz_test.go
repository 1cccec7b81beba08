package ntpwire

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzUnmarshal feeds the decoder datagrams seeded from the packets the
// simulation sends — a client query, a server reply and a RATE
// Kiss-o'-Death — plus short and over-long inputs. Properties: inputs
// under 48 bytes fail with ErrShortPacket; any other input decodes, and
// re-encoding the decoded packet reproduces its first 48 bytes exactly;
// and UnmarshalInto into a dirty Packet agrees with Unmarshal.
func FuzzUnmarshal(f *testing.F) {
	now := time.Date(2020, 2, 1, 12, 0, 0, 0, time.UTC)
	q := ClientPacket(now)
	reply := ServerPacket(&q, now.Add(3*time.Millisecond), 2, [4]byte{192, 0, 2, 1})
	for _, p := range []*Packet{&q, &reply, NewKoD(&q, KissRATE)} {
		wire := p.Marshal()
		f.Add(wire)
		f.Add(wire[:PacketLen-1])                   // one byte short
		f.Add(append(wire, 0xde, 0xad, 0xbe, 0xef)) // trailing bytes
	}
	counting := make([]byte, PacketLen)
	for i := range counting {
		counting[i] = byte(i + 1)
	}
	f.Add(counting) // every field distinct, so a misplaced field shows
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2*PacketLen))

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		dirty := reply
		errInto := UnmarshalInto(&dirty, b)
		if len(b) < PacketLen {
			if !errors.Is(err, ErrShortPacket) || !errors.Is(errInto, ErrShortPacket) {
				t.Fatalf("%d-byte input: Unmarshal err %v, UnmarshalInto err %v, want ErrShortPacket", len(b), err, errInto)
			}
			return
		}
		if err != nil || errInto != nil {
			t.Fatalf("%d-byte input: Unmarshal err %v, UnmarshalInto err %v", len(b), err, errInto)
		}
		if got := p.AppendMarshal(nil); !bytes.Equal(got, b[:PacketLen]) {
			t.Fatalf("re-encoding differs from the input:\n%x\nvs\n%x", got, b[:PacketLen])
		}
		if dirty != *p {
			t.Fatalf("UnmarshalInto a dirty Packet gave %+v, Unmarshal gave %+v", dirty, *p)
		}
	})
}

// refToTimestamp, refTime and refOffset are ToTimestamp, Timestamp.Time
// and Offset as they were written on time.Time arithmetic, before the
// integer versions: FuzzTimestampArithmetic's oracle.
func refToTimestamp(t time.Time) Timestamp {
	if t.IsZero() {
		return 0
	}
	d := t.Sub(ntpEpoch)
	secs := uint64(d / time.Second)
	frac := uint64(d%time.Second) << 32 / uint64(time.Second)
	return Timestamp(secs<<32 | frac)
}

func refTime(ts Timestamp) time.Time {
	if ts == 0 {
		return time.Time{}
	}
	secs := uint64(ts) >> 32
	frac := uint64(ts) & 0xffffffff
	ns := frac * uint64(time.Second) >> 32
	return ntpEpoch.Add(time.Duration(secs)*time.Second + time.Duration(ns))
}

func refOffset(resp *Packet, t1, t4 time.Time) time.Duration {
	T1 := t1
	if resp.OrigTime != 0 {
		T1 = refTime(resp.OrigTime)
	}
	T2 := refTime(resp.RecvTime)
	T3 := refTime(resp.XmitTime)
	return (T2.Sub(T1) + T3.Sub(t4)) / 2
}

// FuzzTimestampArithmetic checks ToTimestamp, Timestamp.Time and Offset
// against refToTimestamp, refTime and refOffset. Each input gives two
// client instants t1 and t4 (Unix seconds and nanoseconds, taken as they
// are and also folded into 1899–2193, around the range the integer path
// takes) and three raw timestamps for T1, T2 and T3. Offset runs on the
// raw timestamps and on ones ToTimestamp made from the instants, each
// with T1 echoed and not. The seeds hold the edges: zero timestamps, the
// zero time, 1900-01-01 and a nanosecond either side, the 2036 era
// rollover, 1899 with a fractional second, and 2192 on, where
// t.Sub(ntpEpoch) saturates.
func FuzzTimestampArithmetic(f *testing.F) {
	at := func(t time.Time) (int64, int64) { return t.Unix(), int64(t.Nanosecond()) }
	epoch := ntpEpoch.Unix()
	t0s, t0ns := at(t0)
	ts0 := uint64(ToTimestamp(t0))
	// Zero T1, T2 and T3 in turn and together.
	f.Add(t0s, t0ns, t0s, int64(20e6), uint64(0), ts0, ts0)
	f.Add(t0s, t0ns, t0s, int64(20e6), ts0, uint64(0), ts0)
	f.Add(t0s, t0ns, t0s, int64(20e6), ts0, ts0, uint64(0))
	f.Add(t0s, t0ns, t0s, int64(20e6), uint64(0), uint64(0), uint64(0))
	// The zero time.Time as t1 and as t4.
	zs, zns := at(time.Time{})
	f.Add(zs, zns, t0s, t0ns, uint64(0), ts0, ts0)
	f.Add(t0s, t0ns, zs, zns, ts0, ts0, ts0)
	// 1900-01-01 exactly, and a nanosecond either side.
	f.Add(epoch, int64(0), epoch, int64(-1), uint64(0), uint64(1), uint64(1)<<32-1)
	f.Add(epoch, int64(1), epoch-1, int64(999999999), uint64(0), uint64(1)<<32, ts0)
	// The era rollover, 2036-02-07 06:28:16 UTC, and around it.
	roll := epoch + 1<<32
	f.Add(roll, int64(0), roll, int64(-1), uint64(0), ^uint64(0), uint64(1))
	f.Add(roll-1, int64(999999999), roll, int64(1), ^uint64(0), ^uint64(0), uint64(0)|1<<32)
	// 1899 with a fractional second.
	f.Add(epoch-1, int64(5e8), epoch-86400*200, int64(123456789), uint64(0), ts0, ts0)
	// 2192, where t.Sub(ntpEpoch) starts to saturate, and later.
	sat := epoch + exactSecs
	f.Add(sat, int64(854775807), sat, int64(854775808), uint64(0), ts0, ts0)
	f.Add(sat-1, int64(999999999), sat, int64(0), uint64(0), ts0, ts0)
	f.Add(int64(16725225600), int64(1), t0s, t0ns, uint64(0), ts0, ts0) // 2500
	f.Add(int64(1)<<62, int64(0), -int64(1)<<62, int64(0), ts0, ts0, ts0)

	// fold maps s onto whole seconds from a year before 1900 to a year
	// past the saturation point.
	const year = 366 * 86400
	fold := func(s int64) int64 { return epoch - year + int64(uint64(s)%uint64(exactSecs+2*year)) }
	f.Fuzz(func(t *testing.T, s1, ns1, s4, ns4 int64, orig, recv, xmit uint64) {
		raw := Packet{OrigTime: Timestamp(orig), RecvTime: Timestamp(recv), XmitTime: Timestamp(xmit)}
		for _, ts := range []Timestamp{raw.OrigTime, raw.RecvTime, raw.XmitTime} {
			if got, want := ts.Time(), refTime(ts); got != want {
				t.Fatalf("Timestamp(%#x).Time() = %v, want %v", uint64(ts), got, want)
			}
		}
		for _, pair := range [][2]time.Time{
			{time.Unix(s1, ns1), time.Unix(s4, ns4)},
			{time.Unix(fold(s1), ns1), time.Unix(fold(s4), ns4)},
		} {
			t1, t4 := pair[0], pair[1]
			for _, tt := range pair {
				if got, want := ToTimestamp(tt), refToTimestamp(tt); got != want {
					t.Fatalf("ToTimestamp(%v) = %#x, want %#x", tt, uint64(got), uint64(want))
				}
			}
			made := Packet{OrigTime: ToTimestamp(t1), RecvTime: raw.RecvTime, XmitTime: ToTimestamp(t4)}
			for _, p := range []Packet{raw, made} {
				for _, echo := range []bool{true, false} {
					if !echo {
						p.OrigTime = 0
					}
					if got, want := Offset(&p, t1, t4), refOffset(&p, t1, t4); got != want {
						t.Fatalf("Offset(%+v, %v, %v) = %d, want %d", p, t1, t4, got, want)
					}
				}
			}
		}
	})
}
