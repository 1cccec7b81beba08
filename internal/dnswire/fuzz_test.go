package dnswire

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dnstime/internal/ipv4"
)

// fuzzMessages are the package's test messages: a query, a response with
// every section, a compressed CNAME chain, a two-string TXT record, an
// opaque RRSIG and a header with every flag set.
func fuzzMessages() []*Message {
	q := NewQuery(7, "pool.ntp.org", TypeA, true)
	all := NewResponse(q)
	all.Header.AA, all.Header.RA = true, true
	all.Answers = []RR{
		{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{1, 2, 3, 4}},
		{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{5, 6, 7, 8}},
	}
	all.Authority = []RR{{Name: "ntp.org", Type: TypeNS, TTL: 3600, Target: "ns1.ntp.org"}}
	all.Additional = []RR{{Name: "ns1.ntp.org", Type: TypeA, TTL: 3600, Addr: ipv4.Addr{9, 9, 9, 9}}}
	return []*Message{
		q,
		all,
		{
			Header:    Header{QR: true},
			Questions: []Question{{Name: "0.pool.ntp.org", Type: TypeA, Class: ClassIN}},
			Answers: []RR{
				{Name: "0.pool.ntp.org", Type: TypeCNAME, TTL: 60, Target: "pool.ntp.org"},
				{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{1, 1, 1, 1}},
			},
		},
		{Header: Header{QR: true}, Answers: []RR{{Name: "t.example", Type: TypeTXT, TTL: 1, Text: strings.Repeat("x", 300)}}},
		{Header: Header{QR: true}, Answers: []RR{{Name: "s.example", Type: TypeRRSIG, TTL: 1, Raw: []byte{1, 2, 3, 4, 5}}}},
		{Header: Header{ID: 9, QR: true, Opcode: 2, AA: true, TC: true, RD: true, RA: true, AD: true, RCode: RCodeNXDomain}},
	}
}

// sameMessage reports whether two decoded messages carry the same header
// and records; a nil section equals an empty one.
func sameMessage(a, b *Message) bool {
	sameRRs := func(x, y []RR) bool {
		return slices.EqualFunc(x, y, func(r, s RR) bool {
			return r.Name == s.Name && r.Type == s.Type && r.Class == s.Class && r.TTL == s.TTL &&
				r.Addr == s.Addr && r.Target == s.Target && r.Text == s.Text && bytes.Equal(r.Raw, s.Raw)
		})
	}
	return a.Header == b.Header && slices.Equal(a.Questions, b.Questions) &&
		sameRRs(a.Answers, b.Answers) && sameRRs(a.Authority, b.Authority) && sameRRs(a.Additional, b.Additional)
}

// FuzzUnmarshal feeds the decoder wire bytes seeded from well-formed
// messages, so mutations reach the sections past the header. Properties:
// decoding never panics; Unmarshal and a warm Decoder (recycled slices,
// populated intern table) agree; and when a decoded message re-encodes,
// that encoding decodes and re-encodes to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	msgs := fuzzMessages()
	for _, m := range msgs {
		wire, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-2]) // truncated
	}
	f.Add([]byte{1, 2, 3})                                            // short header
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 0}) // self-pointing name
	warm, err := msgs[1].Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)

		var dc Decoder
		var reused Message
		if err := dc.UnmarshalInto(&reused, warm); err != nil {
			t.Fatal(err)
		}
		if errInto := dc.UnmarshalInto(&reused, data); (err == nil) != (errInto == nil) {
			t.Fatalf("Unmarshal err %v, Decoder err %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !sameMessage(m, &reused) {
			t.Fatalf("Unmarshal and Decoder disagree:\n%+v\nvs\n%+v", m, reused)
		}

		wire, err := m.Marshal()
		if err != nil {
			return // decodable but not encodable (e.g. an over-long label)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n%x", err, wire)
		}
		wire2, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-decoded message does not encode: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("re-encoding is not stable:\n%x\nvs\n%x", wire, wire2)
		}
	})
}
