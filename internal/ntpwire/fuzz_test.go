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
