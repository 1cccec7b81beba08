package ntpwire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dnstime/internal/ipv4"
)

var t0 = time.Date(2020, 6, 15, 12, 0, 0, 0, time.UTC)

func TestTimestampRoundTrip(t *testing.T) {
	times := []time.Time{
		t0,
		time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2036, 1, 1, 0, 0, 0, 500000000, time.UTC),
	}
	for _, tt := range times {
		got := ToTimestamp(tt).Time()
		if d := got.Sub(tt); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("round trip %v -> %v (err %v)", tt, got, d)
		}
	}
}

func TestZeroTimestamp(t *testing.T) {
	if ToTimestamp(time.Time{}) != 0 {
		t.Error("zero time did not map to zero timestamp")
	}
	if !Timestamp(0).Time().IsZero() {
		t.Error("zero timestamp did not map to zero time")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Leap: LeapNone, Version: 4, Mode: ModeServer, Stratum: 2,
		Poll: 6, Precision: -20, RootDelay: 0x1234, RootDisp: 0x5678,
		RefID:    [4]byte{10, 0, 0, 1},
		RefTime:  ToTimestamp(t0),
		OrigTime: ToTimestamp(t0.Add(time.Second)),
		RecvTime: ToTimestamp(t0.Add(2 * time.Second)),
		XmitTime: ToTimestamp(t0.Add(3 * time.Second)),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if *got != *p {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 47)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
}

func TestClientPacketShape(t *testing.T) {
	p := NewClientPacket(t0)
	if p.Mode != ModeClient || p.Version != 4 {
		t.Errorf("mode/version = %d/%d", p.Mode, p.Version)
	}
	if p.XmitTime == 0 {
		t.Error("client packet missing T1 in xmit")
	}
}

func TestServerPacketEchoesOrigin(t *testing.T) {
	q := NewClientPacket(t0)
	r := ServerPacket(q, t0.Add(42*time.Second), 2, [4]byte{1, 2, 3, 4})
	if r.Mode != ModeServer || r.Stratum != 2 {
		t.Errorf("mode/stratum = %d/%d", r.Mode, r.Stratum)
	}
	if r.OrigTime != q.XmitTime {
		t.Error("server did not echo client T1")
	}
	if r.RecvTime != r.XmitTime || r.RecvTime == 0 {
		t.Error("T2/T3 not set from server clock")
	}
}

// TestServerPacketOneTimestamp: the reference, receive and transmit
// timestamps of a reply all carry the server clock's one reading.
func TestServerPacketOneTimestamp(t *testing.T) {
	q := NewClientPacket(t0)
	for _, now := range []time.Time{t0, t0.Add(1500 * time.Millisecond), t0.Add(-37 * time.Nanosecond), {}} {
		r := ServerPacket(q, now, 2, [4]byte{1, 2, 3, 4})
		want := ToTimestamp(now)
		if r.RefTime != want || r.RecvTime != want || r.XmitTime != want {
			t.Errorf("server time %v: ref %#x, recv %#x, xmit %#x; want all %#x", now, r.RefTime, r.RecvTime, r.XmitTime, want)
		}
	}
}

func TestKoD(t *testing.T) {
	q := NewClientPacket(t0)
	k := NewKoD(q, KissRATE)
	if !k.IsKoD() {
		t.Fatal("KoD packet not recognised")
	}
	if k.KissCode() != "RATE" {
		t.Errorf("kiss code = %q", k.KissCode())
	}
	r := ServerPacket(q, t0, 2, [4]byte{1, 2, 3, 4})
	if r.IsKoD() {
		t.Error("normal response classified as KoD")
	}
	if r.KissCode() != "" {
		t.Error("non-KoD has kiss code")
	}
}

func TestKoDSurvivesWire(t *testing.T) {
	k := NewKoD(NewClientPacket(t0), KissRATE)
	got, err := Unmarshal(k.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsKoD() || got.KissCode() != "RATE" {
		t.Errorf("wire KoD = %+v", got)
	}
}

func TestRefIDLeak(t *testing.T) {
	upstream := ipv4.MustParseAddr("10.20.30.40")
	q := NewClientPacket(t0)
	r := ServerPacket(q, t0, 3, [4]byte(upstream))
	got, ok := r.RefIDAddr()
	if !ok || got != upstream {
		t.Errorf("RefIDAddr = %v, %t; want %v", got, ok, upstream)
	}
	// Stratum 1 RefID is a clock source code, not an address.
	r1 := ServerPacket(q, t0, 1, [4]byte{'G', 'P', 'S', 0})
	if _, ok := r1.RefIDAddr(); ok {
		t.Error("stratum-1 RefID interpreted as address")
	}
}

func TestOffsetSymmetricPath(t *testing.T) {
	// Client clock is 500 s behind true time; symmetric 10 ms path.
	shift := -500 * time.Second
	trueT1 := t0
	t1 := trueT1.Add(shift) // client's wrong local clock
	serverTime := trueT1.Add(10 * time.Millisecond)
	q := NewClientPacket(t1)
	r := ServerPacket(q, serverTime, 2, [4]byte{1, 1, 1, 1})
	t4 := trueT1.Add(20 * time.Millisecond).Add(shift)
	off := Offset(&r, t1, t4)
	// Offset should be ≈ +500 s (client must advance by 500 s).
	if d := off - 500*time.Second; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("offset = %v, want ≈500 s", off)
	}
}

// Property: packets round-trip for arbitrary field values.
func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(stratum, leap uint8, poll, prec int8, refid [4]byte, ts uint64) bool {
		p := &Packet{
			Leap: leap & 0x3, Version: 4, Mode: ModeServer,
			Stratum: stratum, Poll: poll, Precision: prec,
			RefID: refid, XmitTime: Timestamp(ts),
		}
		got, err := Unmarshal(p.Marshal())
		return err == nil && *got == *p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: timestamp conversion is monotone.
func TestPropertyTimestampMonotone(t *testing.T) {
	f := func(aSec, bSec uint32) bool {
		a := t0.Add(time.Duration(aSec) * time.Second / 16)
		b := t0.Add(time.Duration(bSec) * time.Second / 16)
		if a.After(b) {
			a, b = b, a
		}
		return ToTimestamp(a) <= ToTimestamp(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
