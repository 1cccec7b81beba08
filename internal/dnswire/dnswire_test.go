package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dnstime/internal/ipv4"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "pool.NTP.org.", TypeA, true)
	b, err := q.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.QR || !got.Header.RD {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	if got.Questions[0].Name != "pool.ntp.org" {
		t.Errorf("name = %q, want canonical pool.ntp.org", got.Questions[0].Name)
	}
	if got.Questions[0].Type != TypeA || got.Questions[0].Class != ClassIN {
		t.Errorf("question = %+v", got.Questions[0])
	}
}

func TestResponseRoundTripAllSections(t *testing.T) {
	q := NewQuery(7, "pool.ntp.org", TypeA, true)
	r := NewResponse(q)
	r.Header.AA = true
	r.Header.RA = true
	r.Answers = []RR{
		{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{1, 2, 3, 4}},
		{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{5, 6, 7, 8}},
	}
	r.Authority = []RR{
		{Name: "ntp.org", Type: TypeNS, TTL: 3600, Target: "ns1.ntp.org"},
	}
	r.Additional = []RR{
		{Name: "ns1.ntp.org", Type: TypeA, TTL: 3600, Addr: ipv4.Addr{9, 9, 9, 9}},
	}
	b, err := r.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Header.QR || !got.Header.AA || !got.Header.RA {
		t.Errorf("header flags = %+v", got.Header)
	}
	if len(got.Answers) != 2 || len(got.Authority) != 1 || len(got.Additional) != 1 {
		t.Fatalf("sections = %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	if got.Answers[1].Addr != (ipv4.Addr{5, 6, 7, 8}) {
		t.Errorf("answer[1] = %+v", got.Answers[1])
	}
	if got.Authority[0].Target != "ns1.ntp.org" {
		t.Errorf("authority target = %q", got.Authority[0].Target)
	}
	if got.Answers[0].TTL != 150 {
		t.Errorf("TTL = %d", got.Answers[0].TTL)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	mk := func(n int) int {
		m := &Message{Header: Header{QR: true}, Questions: []Question{{Name: "pool.ntp.org", Type: TypeA, Class: ClassIN}}}
		for i := 0; i < n; i++ {
			m.Answers = append(m.Answers, RR{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{byte(i), 0, 0, 1}})
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		return len(b)
	}
	one, two := mk(1), mk(2)
	perRecord := two - one
	// A compressed A record is a 2-byte pointer + type/class/ttl/rdlen (10) + 4.
	if perRecord != 16 {
		t.Errorf("per-record size = %d, want 16 (compressed)", perRecord)
	}
}

func TestCompressedNamesDecode(t *testing.T) {
	m := &Message{
		Header:    Header{QR: true},
		Questions: []Question{{Name: "0.pool.ntp.org", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "0.pool.ntp.org", Type: TypeCNAME, TTL: 60, Target: "pool.ntp.org"},
			{Name: "pool.ntp.org", Type: TypeA, TTL: 150, Addr: ipv4.Addr{1, 1, 1, 1}},
		},
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Answers[0].Target != "pool.ntp.org" {
		t.Errorf("CNAME target = %q", got.Answers[0].Target)
	}
	if got.Answers[1].Name != "pool.ntp.org" {
		t.Errorf("answer name = %q", got.Answers[1].Name)
	}
}

func TestTXTRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 300) // forces two character-strings
	m := &Message{Header: Header{QR: true}, Answers: []RR{{Name: "t.example", Type: TypeTXT, TTL: 1, Text: long}}}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Answers[0].Text != long {
		t.Errorf("TXT length = %d, want %d", len(got.Answers[0].Text), len(long))
	}
}

func TestRawTypeRoundTrip(t *testing.T) {
	raw := []byte{1, 2, 3, 4, 5}
	m := &Message{Header: Header{QR: true}, Answers: []RR{{Name: "s.example", Type: TypeRRSIG, TTL: 1, Raw: raw}}}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if string(got.Answers[0].Raw) != string(raw) {
		t.Errorf("raw = %v", got.Answers[0].Raw)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("err = %v, want ErrShortMessage", err)
	}
}

func TestUnmarshalTruncatedRR(t *testing.T) {
	q := NewQuery(1, "a.example", TypeA, true)
	r := NewResponse(q)
	r.Answers = []RR{{Name: "a.example", Type: TypeA, TTL: 1, Addr: ipv4.Addr{1, 2, 3, 4}}}
	b, _ := r.Marshal()
	if _, err := Unmarshal(b[:len(b)-2]); err == nil {
		t.Error("truncated message decoded without error")
	}
}

func TestPointerLoopRejected(t *testing.T) {
	// Hand-craft a message whose question name is a pointer to itself.
	b := make([]byte, 16)
	b[5] = 1 // QDCOUNT = 1
	// name at offset 12: pointer to offset 12.
	b[12] = 0xC0
	b[13] = 12
	if _, err := Unmarshal(b); err == nil {
		t.Error("self-pointing name decoded without error")
	}
}

func TestLabelTooLongRejected(t *testing.T) {
	m := NewQuery(1, strings.Repeat("a", 64)+".example", TypeA, true)
	if _, err := m.Marshal(); !errors.Is(err, ErrBadName) {
		t.Errorf("err = %v, want ErrBadName", err)
	}
}

func TestCanonicalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Pool.NTP.Org.", "pool.ntp.org"},
		{"pool.ntp.org", "pool.ntp.org"},
		{".", ""},
		{"", ""},
	}
	for _, tt := range tests {
		if got := CanonicalName(tt.in); got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAddrsInAnswer(t *testing.T) {
	m := &Message{Answers: []RR{
		{Name: "pool.ntp.org", Type: TypeA, Addr: ipv4.Addr{1, 1, 1, 1}},
		{Name: "other.org", Type: TypeA, Addr: ipv4.Addr{9, 9, 9, 9}},
		{Name: "pool.ntp.org", Type: TypeA, Addr: ipv4.Addr{2, 2, 2, 2}},
	}}
	got := m.AppendAddrsInAnswer(nil, "POOL.ntp.org")
	if len(got) != 2 || got[0] != (ipv4.Addr{1, 1, 1, 1}) || got[1] != (ipv4.Addr{2, 2, 2, 2}) {
		t.Errorf("AppendAddrsInAnswer = %v", got)
	}
}

func TestAddrsInAnswerFollowsCNAME(t *testing.T) {
	m := &Message{Answers: []RR{
		{Name: "www.example", Type: TypeCNAME, Target: "host.example"},
		{Name: "host.example", Type: TypeA, Addr: ipv4.Addr{4, 4, 4, 4}},
	}}
	got := m.AppendAddrsInAnswer(nil, "www.example")
	if len(got) != 1 || got[0] != (ipv4.Addr{4, 4, 4, 4}) {
		t.Errorf("AppendAddrsInAnswer = %v", got)
	}
}

// TestMaxARecordsMatchesPaper validates the "up to 89 addresses per
// non-fragmented response" figure from Section VI-C: with name compression
// each extra A record costs 16 bytes, so a ~1500-byte response holds ~89.
func TestMaxARecordsMatchesPaper(t *testing.T) {
	got := MaxARecords("pool.ntp.org", 1472) // 1500 - IP(20) - UDP(8)
	if got < 85 || got > 92 {
		t.Errorf("MaxARecords(1472) = %d, want ≈89", got)
	}
}

func TestMaxARecordsClassic512(t *testing.T) {
	got := MaxARecords("pool.ntp.org", 512)
	if got < 25 || got > 35 {
		t.Errorf("MaxARecords(512) = %d, want ≈30", got)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	m := &Message{Header: Header{ID: 9, QR: true, Opcode: 2, AA: true, TC: true, RD: true, RA: true, AD: true, RCode: RCodeNXDomain}}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if *(&got.Header) != m.Header {
		t.Errorf("header = %+v, want %+v", got.Header, m.Header)
	}
}

// Property: messages with arbitrary IDs/TTLs/addresses round-trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(id uint16, ttl uint32, a, b, c, d byte) bool {
		m := &Message{
			Header:    Header{ID: id, QR: true},
			Questions: []Question{{Name: "pool.ntp.org", Type: TypeA, Class: ClassIN}},
			Answers:   []RR{{Name: "pool.ntp.org", Type: TypeA, TTL: ttl, Addr: ipv4.Addr{a, b, c, d}}},
		}
		wire, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		return got.Header.ID == id && got.Answers[0].TTL == ttl && got.Answers[0].Addr == ipv4.Addr{a, b, c, d}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTypeAndRRStrings(t *testing.T) {
	for _, ty := range []Type{TypeA, TypeNS, TypeCNAME, TypeSOA, TypeTXT, TypeRRSIG, Type(99)} {
		if ty.String() == "" {
			t.Errorf("empty name for type %d", ty)
		}
	}
	rrs := []RR{
		{Name: "x", Type: TypeA},
		{Name: "x", Type: TypeNS, Target: "y"},
		{Name: "x", Type: TypeTXT, Text: "t"},
		{Name: "x", Type: TypeRRSIG, Raw: []byte{1}},
	}
	for _, r := range rrs {
		if r.String() == "" {
			t.Errorf("empty String for %+v", r)
		}
	}
}

// TestCompressionPastInlineTable: a message with more distinct name
// suffixes than the encoder records inline still compresses every repeat,
// including repeats of suffixes recorded after the inline table filled.
func TestCompressionPastInlineTable(t *testing.T) {
	const hosts = 2 * inlineOffsets
	m := &Message{Header: Header{QR: true}}
	for i := range hosts {
		m.Answers = append(m.Answers, RR{Name: fmt.Sprintf("h%d.zone.example", i), Type: TypeA, TTL: 60, Addr: ipv4.Addr{10, 0, 0, byte(i)}})
	}
	once, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m.Answers = append(m.Answers, m.Answers...)
	twice, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A repeated name is one 2-byte pointer; then type, class, TTL,
	// RDLENGTH (10 bytes) and the 4-byte address.
	if got, want := len(twice)-len(once), hosts*(2+10+4); got != want {
		t.Errorf("repeating %d answers added %d bytes, want %d (every name compressed)", hosts, got, want)
	}
	back, err := Unmarshal(twice)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range back.Answers {
		if want := m.Answers[i].Name; r.Name != want {
			t.Fatalf("answer %d name %q, want %q", i, r.Name, want)
		}
	}
}

func BenchmarkAppendMarshal(b *testing.B) {
	for _, answers := range []int{4, 89} {
		b.Run(fmt.Sprintf("a%d", answers), func(b *testing.B) {
			m := NewResponse(NewQuery(0x1234, "pool.ntp.org", TypeA, true))
			for i := range answers {
				m.Answers = append(m.Answers, RR{
					Name: "pool.ntp.org", Type: TypeA, Class: ClassIN, TTL: 150,
					Addr: ipv4.Addr{6, 6, byte(i >> 8), byte(i + 1)},
				})
			}
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if buf, err = m.AppendMarshal(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
