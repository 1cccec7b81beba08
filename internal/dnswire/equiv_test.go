package dnswire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dnstime/internal/ipv4"
)

// TestAppendMarshalPaddedEqualsAppendedTXT: the one-pass padded encoding
// equals AppendMarshal of the message with the TXT filler record appended
// to Additional, for pad targets below, at and just above the unpadded
// size, up to fillers over 255 bytes that encode as several
// character-strings, after a non-empty dst prefix, and for an owner
// spelled differently from the question (upper case, trailing dot) or the
// root.
func TestAppendMarshalPaddedEqualsAppendedTXT(t *testing.T) {
	pool := NewResponse(NewQuery(0x1234, "pool.ntp.org", TypeA, true))
	pool.Header.AA = true
	for i := range 4 {
		pool.Answers = append(pool.Answers, RR{Name: "pool.ntp.org", Type: TypeA, Class: ClassIN, TTL: 150, Addr: ipv4.Addr{10, 0, 0, byte(i)}})
	}
	signed := NewResponse(NewQuery(7, "time.example", TypeA, false))
	signed.Answers = []RR{
		{Name: "time.example", Type: TypeA, Class: ClassIN, TTL: 60, Addr: ipv4.Addr{192, 0, 2, 1}},
		{Name: "time.example", Type: TypeRRSIG, Class: ClassIN, TTL: 60, Raw: []byte("RRSIG:valid:0badf00d")},
	}
	signed.Additional = []RR{{Name: "ns.example", Type: TypeA, TTL: 60, Addr: ipv4.Addr{192, 0, 2, 53}}}
	root := NewResponse(NewQuery(9, ".", TypeNS, false))
	root.Answers = []RR{{Name: "", Type: TypeNS, TTL: 60, Target: "a.root-servers.net"}}

	filler := strings.Repeat("p", 2048)
	for _, tc := range []struct {
		name  string
		m     *Message
		owner string
	}{
		{"pool", pool, "pool.ntp.org"},
		{"pool/upper-owner", pool, "POOL.ntp.ORG."},
		{"signed", signed, "time.example"},
		{"root", root, ""},
	} {
		unpadded, err := tc.m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		n := len(unpadded)
		for _, size := range []int{0, 1, n - 14, n - 1, n, n + 1, n + 12, n + 13, n + 14, n + 100, n + 13 + 255, n + 13 + 256, n + 1200, 1232} {
			for _, prefix := range [][]byte{nil, []byte("prefix")} {
				got, err := tc.m.AppendMarshalPadded(append([]byte(nil), prefix...), size, tc.owner, filler)
				if err != nil {
					t.Fatalf("%s size %d: %v", tc.name, size, err)
				}
				padded := *tc.m
				if n < size {
					need := max(1, size-n-13)
					padded.Additional = append(append([]RR(nil), tc.m.Additional...),
						RR{Name: tc.owner, Type: TypeTXT, Class: ClassIN, Text: filler[:need]})
				}
				want, err := padded.AppendMarshal(append([]byte(nil), prefix...))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s size %d prefix %q:\n got %x\nwant %x", tc.name, size, prefix, got, want)
				}
				if n < size && size-n-13 <= 255 && tc.owner != "" && len(got)-len(prefix) != max(size, n+14) {
					t.Errorf("%s size %d: padded to %d bytes", tc.name, size, len(got)-len(prefix))
				}
			}
		}
	}
}

// TestAppendMarshalPaddedShortFiller: a filler shorter than the padding
// needs is used whole.
func TestAppendMarshalPaddedShortFiller(t *testing.T) {
	m := NewResponse(NewQuery(1, "a.example", TypeA, false))
	got, err := m.AppendMarshalPadded(nil, 512, "a.example", "pp")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Additional) != 1 || back.Additional[0].Text != "pp" {
		t.Errorf("additional = %v, want one TXT \"pp\"", back.Additional)
	}
}

// rawMessage assembles a query message whose question names are raw wire
// bytes, so tests can place labels and compression pointers at will.
type rawMessage struct {
	b []byte
	n int
}

func newRawMessage() *rawMessage { return &rawMessage{b: make([]byte, 12)} }

// question appends a question with the given raw name and returns the
// name's offset.
func (w *rawMessage) question(name ...[]byte) int {
	off := len(w.b)
	for _, part := range name {
		w.b = append(w.b, part...)
	}
	w.b = append(w.b, 0, byte(TypeA), 0, byte(ClassIN))
	w.n++
	return off
}

func (w *rawMessage) bytes() []byte {
	binary.BigEndian.PutUint16(w.b[4:], uint16(w.n))
	return w.b
}

// labels encodes labels without the terminating root byte.
func labels(ls ...string) []byte {
	var b []byte
	for _, l := range ls {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return b
}

var root = []byte{0}

func ptr(off int) []byte { return []byte{0xC0 | byte(off>>8), byte(off)} }

// nameWires are messages whose names exercise the decoder's name table:
// pointer chains, pointers into the middle of names, upper-case labels,
// the root name and pointer chains at and past the hop limit.
func nameWires() map[string][]byte {
	out := map[string][]byte{}

	w := newRawMessage()
	prev := w.question(labels("Pool", "NTP", "org"), root)
	for range 10 {
		prev = w.question(ptr(prev))
	}
	out["chain"] = w.bytes()

	w = newRawMessage()
	pool := w.question(labels("pool", "ntp", "org"), root)
	www := w.question(labels("www"), ptr(pool+5))
	w.question(ptr(www))
	w.question(ptr(www + 4)) // a pointer to a pointer
	w.question(labels("a", "b"), ptr(www))
	w.question(ptr(pool + 9))
	out["mid-name"] = w.bytes()

	w = newRawMessage()
	up := w.question(labels("POOL", "Ntp", "ORG"), root)
	w.question(ptr(up))
	w.question(labels("WWW"), ptr(up+5))
	out["upper"] = w.bytes()

	w = newRawMessage()
	r := w.question(root)
	w.question(ptr(r))
	a := w.question(labels("a"), ptr(r))
	w.question(ptr(a))
	out["root"] = w.bytes()

	// hops: a chain of pointer-only names to one label, then a name whose
	// label continues through the chain, then chains to that label that
	// reach the limit of 32 pointers exactly, and one past it, through
	// the table.
	for _, extra := range []int{0, 1} {
		w = newRawMessage()
		prev = w.question(labels("x"), root)
		for range 20 {
			prev = w.question(ptr(prev))
		}
		y := w.question(labels("y"), ptr(prev)) // 21 pointers after its label
		prev = y
		for range 11 + extra {
			prev = w.question(ptr(prev))
		}
		out[fmt.Sprintf("hops+%d", extra)] = w.bytes()
	}

	for i, m := range fuzzMessages() {
		b, err := m.Marshal()
		if err != nil {
			panic(err)
		}
		out[fmt.Sprintf("fuzz%d", i)] = b
	}
	return out
}

// oracleUnmarshal decodes b with the decoder as it was before names were
// remembered per message: every pointer is followed label by label.
func oracleUnmarshal(b []byte) (*Message, error) {
	d := oracleDecoder{buf: b}
	m := &Message{}
	if err := d.message(m); err != nil {
		return nil, err
	}
	return m, nil
}

// sameDecode reports whether two decodes of one input agree: the same
// error, or the same message.
func sameDecode(m1 *Message, err1 error, m2 *Message, err2 error) bool {
	if err1 != nil || err2 != nil {
		return err1 != nil && err2 != nil && err1.Error() == err2.Error()
	}
	return sameMessage(m1, m2)
}

// TestDecoderMatchesOracle: Unmarshal and a warm Decoder decode every name
// test message, every truncation of it and thousands of random mutations
// of it exactly as the label-by-label oracle does, errors included.
func TestDecoderMatchesOracle(t *testing.T) {
	var dc Decoder
	var reused Message
	check := func(name string, b []byte) {
		t.Helper()
		want, werr := oracleUnmarshal(b)
		got, err := Unmarshal(b)
		if !sameDecode(got, err, want, werr) {
			t.Fatalf("%s: Unmarshal = %+v, %v\noracle = %+v, %v\nwire %x", name, got, err, want, werr, b)
		}
		err = dc.UnmarshalInto(&reused, b)
		if !sameDecode(&reused, err, want, werr) {
			t.Fatalf("%s: Decoder = %+v, %v\noracle = %+v, %v\nwire %x", name, reused, err, want, werr, b)
		}
	}
	wires := nameWires()
	for name, b := range wires {
		check(name, b)
		for n := range len(b) {
			check(fmt.Sprintf("%s[:%d]", name, n), b[:n])
		}
	}
	if _, err := Unmarshal(wires["hops+0"]); err != nil {
		t.Errorf("a name 32 pointers deep: %v", err)
	}
	if _, err := Unmarshal(wires["hops+1"]); err != ErrBadPointer {
		t.Errorf("a name 33 pointers deep: err %v, want ErrBadPointer", err)
	}
	m, err := Unmarshal(wires["mid-name"])
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"pool.ntp.org", "www.ntp.org", "www.ntp.org", "ntp.org", "a.b.www.ntp.org", "org"}
	for i, q := range m.Questions {
		if q.Name != wantNames[i] {
			t.Errorf("mid-name question %d = %q, want %q", i, q.Name, wantNames[i])
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, name := range slices.Sorted(maps.Keys(wires)) {
		b := wires[name]
		if len(b) <= 12 {
			continue // nothing past the header to mutate
		}
		for i := range 2000 {
			mut := append([]byte(nil), b...)
			for range 1 + rng.Intn(3) {
				p := 12 + rng.Intn(len(mut)-12)
				switch rng.Intn(3) {
				case 0:
					mut[p] = byte(rng.Intn(256))
				case 1:
					mut[p] = 0xC0
				case 2:
					mut[p] = byte(rng.Intn(p))
				}
			}
			check(fmt.Sprintf("%s mutation %d", name, i), mut)
		}
	}
}

// oracleDecoder is the decoder as it was before it remembered the labels
// of each message's names, kept verbatim as the oracle for
// TestDecoderMatchesOracle and FuzzUnmarshal.
type oracleDecoder struct {
	buf     []byte
	pos     int
	nameBuf []byte            // scratch the current name is assembled into
	intern  map[string]string // optional name intern table (Decoder only)
}

func (d *oracleDecoder) uint16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *oracleDecoder) uint32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// name decodes a possibly-compressed domain name starting at d.pos. The
// name is assembled lowercased into the decoder's scratch buffer and
// interned when the decoder carries an intern table, so repeated names
// decode without allocating. Lowercasing is ASCII-only — exactly the
// case-insensitivity DNS defines (RFC 4343).
func (d *oracleDecoder) name() (string, error) {
	d.nameBuf = d.nameBuf[:0]
	pos := d.pos
	jumped := false
	hops := 0
	for {
		if pos >= len(d.buf) {
			return "", ErrShortMessage
		}
		c := d.buf[pos]
		switch {
		case c == 0:
			if !jumped {
				d.pos = pos + 1
			}
			return d.internName(), nil
		case c&0xC0 == 0xC0:
			if pos+2 > len(d.buf) {
				return "", ErrShortMessage
			}
			if hops++; hops > 32 {
				return "", ErrBadPointer
			}
			target := int(binary.BigEndian.Uint16(d.buf[pos:]) & 0x3FFF)
			if !jumped {
				d.pos = pos + 2
				jumped = true
			}
			if target >= pos {
				return "", ErrBadPointer
			}
			pos = target
		case c&0xC0 != 0:
			return "", ErrBadName
		default:
			if pos+1+int(c) > len(d.buf) {
				return "", ErrShortMessage
			}
			if len(d.nameBuf) > 0 {
				d.nameBuf = append(d.nameBuf, '.')
			}
			for _, ch := range d.buf[pos+1 : pos+1+int(c)] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				d.nameBuf = append(d.nameBuf, ch)
			}
			pos += 1 + int(c)
			if !jumped {
				d.pos = pos
			}
		}
	}
}

// internName materialises the scratch buffer as a string, sharing one
// immutable copy per distinct name when an intern table is present (the
// map lookup with a byte-slice key does not allocate).
func (d *oracleDecoder) internName() string {
	if len(d.nameBuf) == 0 {
		return ""
	}
	if s, ok := d.intern[string(d.nameBuf)]; ok {
		return s
	}
	s := string(d.nameBuf)
	if d.intern != nil && len(d.intern) < maxInterned {
		d.intern[s] = s
	}
	return s
}

func (d *oracleDecoder) rr() (RR, error) {
	var r RR
	name, err := d.name()
	if err != nil {
		return r, err
	}
	r.Name = name
	t, err := d.uint16()
	if err != nil {
		return r, err
	}
	r.Type = Type(t)
	cl, err := d.uint16()
	if err != nil {
		return r, err
	}
	r.Class = Class(cl)
	ttl, err := d.uint32()
	if err != nil {
		return r, err
	}
	r.TTL = ttl
	rdlen, err := d.uint16()
	if err != nil {
		return r, err
	}
	if d.pos+int(rdlen) > len(d.buf) {
		return r, ErrShortMessage
	}
	end := d.pos + int(rdlen)
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, fmt.Errorf("dnswire: A rdlength %d", rdlen)
		}
		copy(r.Addr[:], d.buf[d.pos:end])
		d.pos = end
	case TypeNS, TypeCNAME:
		target, err := d.name()
		if err != nil {
			return r, err
		}
		r.Target = target
		d.pos = end
	case TypeTXT:
		// Reuse the name scratch (the record's name is already
		// materialised) and the intern table: snooping scans decode the
		// same handful of TXT payloads thousands of times per campaign.
		d.nameBuf = d.nameBuf[:0]
		for p := d.pos; p < end; {
			l := int(d.buf[p])
			if p+1+l > end {
				return r, ErrShortMessage
			}
			d.nameBuf = append(d.nameBuf, d.buf[p+1:p+1+l]...)
			p += 1 + l
		}
		r.Text = d.internName()
		d.pos = end
	default:
		r.Raw = append([]byte(nil), d.buf[d.pos:end]...)
		d.pos = end
	}
	return r, nil
}

// message decodes the whole message into m, truncating and reusing m's
// section slices.
func (d *oracleDecoder) message(m *Message) error {
	if len(d.buf) < 12 {
		return ErrShortMessage
	}
	id, _ := d.uint16()
	flags, _ := d.uint16()
	m.Header = Header{
		ID:     id,
		QR:     flags&flagQR != 0,
		Opcode: uint8(flags >> 11 & 0xF),
		AA:     flags&flagAA != 0,
		TC:     flags&flagTC != 0,
		RD:     flags&flagRD != 0,
		RA:     flags&flagRA != 0,
		AD:     flags&flagAD != 0,
		RCode:  RCode(flags & 0xF),
	}
	qd, _ := d.uint16()
	an, _ := d.uint16()
	ns, _ := d.uint16()
	ar, err := d.uint16()
	if err != nil {
		return err
	}
	m.Questions = m.Questions[:0]
	for i := 0; i < int(qd); i++ {
		name, err := d.name()
		if err != nil {
			return err
		}
		t, err := d.uint16()
		if err != nil {
			return err
		}
		cl, err := d.uint16()
		if err != nil {
			return err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(cl)})
	}
	m.Answers, m.Authority, m.Additional = m.Answers[:0], m.Authority[:0], m.Additional[:0]
	for i := 0; i < int(an); i++ {
		r, err := d.rr()
		if err != nil {
			return err
		}
		m.Answers = append(m.Answers, r)
	}
	for i := 0; i < int(ns); i++ {
		r, err := d.rr()
		if err != nil {
			return err
		}
		m.Authority = append(m.Authority, r)
	}
	for i := 0; i < int(ar); i++ {
		r, err := d.rr()
		if err != nil {
			return err
		}
		m.Additional = append(m.Additional, r)
	}
	return nil
}
