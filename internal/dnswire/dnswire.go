// Package dnswire implements the DNS message wire format (RFC 1035): the
// 12-byte header with its challenge-response TXID, questions, and resource
// records with name compression. The encoding is byte-accurate so that
// response sizes, fragmentation points and checksum arithmetic in the
// poisoning attack behave as they do on the wire.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"dnstime/internal/ipv4"
)

// Type is a DNS RR type.
type Type uint16

// RR types used in the simulation.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeRRSIG Type = 46
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeRRSIG:
		return "RRSIG"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// Header is the DNS message header. ID is the 16-bit transaction identifier
// (TXID) — one half of the challenge-response defence the fragmentation
// attack bypasses.
type Header struct {
	ID     uint16
	QR     bool // response
	Opcode uint8
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	AD     bool // authentic data (DNSSEC validated)
	RCode  RCode
}

// Question is a DNS question.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record. The payload field used depends on Type:
// A uses Addr; NS and CNAME use Target; TXT uses Text; anything else
// round-trips through Raw.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	Addr   ipv4.Addr // TypeA
	Target string    // TypeNS, TypeCNAME
	Text   string    // TypeTXT
	Raw    []byte    // other types (e.g. TypeRRSIG)
}

// String renders the record in zone-file-like form.
func (r RR) String() string {
	switch r.Type {
	case TypeA:
		return fmt.Sprintf("%s %d IN A %s", r.Name, r.TTL, r.Addr)
	case TypeNS, TypeCNAME:
		return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, r.Type, r.Target)
	case TypeTXT:
		return fmt.Sprintf("%s %d IN TXT %q", r.Name, r.TTL, r.Text)
	default:
		return fmt.Sprintf("%s %d IN %s [%d bytes]", r.Name, r.TTL, r.Type, len(r.Raw))
	}
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Errors returned by decoding.
var (
	ErrShortMessage = errors.New("dnswire: truncated message")
	ErrBadName      = errors.New("dnswire: malformed name")
	ErrBadPointer   = errors.New("dnswire: compression pointer loop")
)

// CanonicalName lowercases a name and strips any trailing dot; the root is
// the empty string.
func CanonicalName(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// header flag bit masks (within the 16-bit flags word).
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
	flagAD = 1 << 5
)

// nameOffset records one encoded name suffix for RFC 1035 compression. A
// message carries only a handful of distinct suffixes, so a linear table
// beats a map: no hashing, and no state to reset.
type nameOffset struct {
	name string
	off  int
}

// inlineOffsets is how many name suffixes an encoder records without
// allocating; a message with more distinct suffixes spills the rest to the
// heap.
const inlineOffsets = 16

// canonName pairs a name as a message holds it with its canonical form.
type canonName struct {
	raw, name string
}

// inlineCanon is how many distinct name strings an encoder remembers in
// canonical form; past it, further names are canonicalised on every use.
const inlineCanon = 8

// encoder holds one message's encoding state. AppendMarshal keeps it on
// its own stack, so compression state costs no allocation and no pool.
type encoder struct {
	buf    []byte
	base   int                       // message start within buf (AppendMarshal may append)
	inline [inlineOffsets]nameOffset // first suffixes in encoding order, for compression
	n      int                       // entries of inline in use
	spill  []nameOffset              // suffixes past inline, in encoding order
	canon  [inlineCanon]canonName    // name strings already canonicalised
	nc     int                       // entries of canon in use
}

// canonical returns CanonicalName(raw), computing it once per distinct
// name string of the message: a response repeats its owner name in every
// record, and comparing a string with itself costs no byte comparison.
func (e *encoder) canonical(raw string) string {
	for _, c := range e.canon[:e.nc] {
		if c.raw == raw {
			return c.name
		}
	}
	name := CanonicalName(raw)
	if e.nc < len(e.canon) {
		e.canon[e.nc] = canonName{raw, name}
		e.nc++
	}
	return name
}

// lookup returns the first encoded offset of name, if any.
func (e *encoder) lookup(name string) (int, bool) {
	for _, o := range e.inline[:e.n] {
		if o.name == name {
			return o.off, true
		}
	}
	for _, o := range e.spill {
		if o.name == name {
			return o.off, true
		}
	}
	return 0, false
}

// record notes that name's first encoding starts at off.
func (e *encoder) record(name string, off int) {
	if e.n < len(e.inline) {
		e.inline[e.n] = nameOffset{name, off}
		e.n++
		return
	}
	e.spill = append(e.spill, nameOffset{name, off})
}

func (e *encoder) uint16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// name encodes a domain name with RFC 1035 §4.1.4 compression.
func (e *encoder) name(n string) error {
	n = e.canonical(n)
	for n != "" {
		if off, ok := e.lookup(n); ok && off < 0x4000 {
			e.uint16(uint16(0xC000 | off))
			return nil
		}
		if off := len(e.buf) - e.base; off < 0x4000 {
			e.record(n, off)
		}
		label := n
		rest := ""
		if i := strings.IndexByte(n, '.'); i >= 0 {
			label, rest = n[:i], n[i+1:]
		}
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
		n = rest
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) rr(r RR) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.uint16(uint16(r.Type))
	cl := r.Class
	if cl == 0 {
		cl = ClassIN
	}
	e.uint16(uint16(cl))
	e.uint32(r.TTL)
	// RDLENGTH placeholder.
	lenAt := len(e.buf)
	e.uint16(0)
	start := len(e.buf)
	switch r.Type {
	case TypeA:
		e.buf = append(e.buf, r.Addr[:]...)
	case TypeNS, TypeCNAME:
		if err := e.name(r.Target); err != nil {
			return err
		}
	case TypeTXT:
		txt := r.Text
		for len(txt) > 255 {
			e.buf = append(e.buf, 255)
			e.buf = append(e.buf, txt[:255]...)
			txt = txt[255:]
		}
		e.buf = append(e.buf, byte(len(txt)))
		e.buf = append(e.buf, txt...)
	default:
		e.buf = append(e.buf, r.Raw...)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:lenAt+2], uint16(len(e.buf)-start))
	return nil
}

// Marshal encodes the message to wire format.
func (m *Message) Marshal() ([]byte, error) {
	b, err := m.AppendMarshal(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendMarshal encodes the message to wire format, appending to dst and
// returning the extended slice. Name-compression state lives on the
// stack, so encoding into a reused caller buffer allocates nothing beyond
// the buffer's own growth — the send hot path of the resolver and
// nameserver.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	e := encoder{buf: dst, base: len(dst)}
	return e.message(m)
}

// txtPadOverhead is the wire size of a TXT record beyond its text when its
// owner compresses to a pointer and the text fits one character-string:
// the pointer (2), type, class, TTL and RDLENGTH (10), and the string's
// length byte (1).
const txtPadOverhead = 13

// AppendMarshalPadded encodes m like AppendMarshal, padded towards size
// bytes: when the encoding is shorter, a TXT record for owner (class IN,
// TTL 0) follows the additional section. Its text is the first need bytes
// of filler, need being what reaches size when owner compresses to a
// pointer and the text fits one character-string (at least 1, at most
// len(filler); a filler of size bytes always suffices). The bytes equal
// AppendMarshal of m with that record appended to Additional, but m is
// encoded once: the record continues the same encoder, so its owner
// compresses against the names already written, and ARCOUNT is raised in
// place.
func (m *Message) AppendMarshalPadded(dst []byte, size int, owner, filler string) ([]byte, error) {
	e := encoder{buf: dst, base: len(dst)}
	if _, err := e.message(m); err != nil {
		return nil, err
	}
	n := len(e.buf) - e.base
	if n >= size {
		return e.buf, nil
	}
	need := max(1, size-n-txtPadOverhead)
	pad := RR{Name: owner, Type: TypeTXT, Class: ClassIN, Text: filler[:min(need, len(filler))]}
	if err := e.rr(pad); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(e.buf[e.base+10:], uint16(len(m.Additional)+1))
	return e.buf, nil
}

func (e *encoder) message(m *Message) ([]byte, error) {
	e.uint16(m.Header.ID)
	var flags uint16
	if m.Header.QR {
		flags |= flagQR
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.AA {
		flags |= flagAA
	}
	if m.Header.TC {
		flags |= flagTC
	}
	if m.Header.RD {
		flags |= flagRD
	}
	if m.Header.RA {
		flags |= flagRA
	}
	if m.Header.AD {
		flags |= flagAD
	}
	flags |= uint16(m.Header.RCode) & 0xF
	e.uint16(flags)
	e.uint16(uint16(len(m.Questions)))
	e.uint16(uint16(len(m.Answers)))
	e.uint16(uint16(len(m.Authority)))
	e.uint16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.uint16(uint16(q.Type))
		cl := q.Class
		if cl == 0 {
			cl = ClassIN
		}
		e.uint16(uint16(cl))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if err := e.rr(r); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

type decoder struct {
	buf     []byte
	pos     int
	nameBuf []byte            // scratch the current name is assembled into
	intern  map[string]string // optional name intern table (Decoder only)
	names   [maxNameRefs]nameRef
	nn      int // entries of names in use
}

// maxInterned bounds a Decoder's intern table; past it, new names are
// still decoded correctly, just not retained.
const maxInterned = 4096

// maxHops bounds the compression pointers one name may follow.
const maxHops = 32

// nameRef records a label the current message's decoded names start or
// continue at: a compression pointer to off decodes to name after
// following hops more pointers. While its name is being decoded, at is the
// label's start within the name and hops counts the pointers followed
// before it.
type nameRef struct {
	off, at, hops int32
	name          string
}

// maxNameRefs is how many label offsets a decoder remembers per message;
// pointers to later labels are followed label by label.
const maxNameRefs = 32

// lookupName returns the finished record of a label at off, if any among
// the first n.
func (d *decoder) lookupName(off, n int) (nameRef, bool) {
	for _, r := range d.names[:n] {
		if int(r.off) == off {
			return r, true
		}
	}
	return nameRef{}, false
}

// finishName materialises the assembled name after hops pointers and
// completes the records its labels started at from index first on.
func (d *decoder) finishName(first, hops int) string {
	s := d.internName()
	for i := first; i < d.nn; i++ {
		r := &d.names[i]
		r.name, r.hops = s[r.at:], int32(hops)-r.hops
	}
	return s
}

func (d *decoder) uint16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
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
//
// A pointer to a label an earlier name of the message was decoded from
// takes that name's rest from the decoder's table instead of walking its
// labels again. The walk would read the same bytes to the same end, so the
// result, and the pointer limit it is held to, are the walk's.
func (d *decoder) name() (string, error) {
	d.nameBuf = d.nameBuf[:0]
	pos := d.pos
	jumped := false
	hops := 0
	first := d.nn // records this name starts from here on
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
			return d.finishName(first, hops), nil
		case c&0xC0 == 0xC0:
			if pos+2 > len(d.buf) {
				return "", ErrShortMessage
			}
			if hops++; hops > maxHops {
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
			if r, ok := d.lookupName(target, first); ok {
				if hops += int(r.hops); hops > maxHops {
					return "", ErrBadPointer
				}
				if len(d.nameBuf) == 0 {
					return r.name, nil
				}
				d.nameBuf = append(d.nameBuf, '.')
				d.nameBuf = append(d.nameBuf, r.name...)
				return d.finishName(first, hops), nil
			}
		case c&0xC0 != 0:
			return "", ErrBadName
		default:
			if pos+1+int(c) > len(d.buf) {
				return "", ErrShortMessage
			}
			if len(d.nameBuf) > 0 {
				d.nameBuf = append(d.nameBuf, '.')
			}
			if d.nn < len(d.names) {
				d.names[d.nn] = nameRef{off: int32(pos), at: int32(len(d.nameBuf)), hops: int32(hops)}
				d.nn++
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
func (d *decoder) internName() string {
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

func (d *decoder) rr() (RR, error) {
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

// Unmarshal decodes a wire-format DNS message.
func Unmarshal(b []byte) (*Message, error) {
	var d decoder
	d.buf = b
	m := &Message{}
	if err := d.message(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Decoder decodes wire-format messages with reusable state: the
// destination Message's section slices are recycled and decoded names are
// interned, so a warm Decoder on a hot path allocates only for
// never-before-seen names and non-A rdata. Decoded strings are shared
// immutable interned copies and each record's Raw is freshly allocated, so
// callers may retain individual Questions/RR values — but not the section
// slices themselves, which the next UnmarshalInto overwrites. A Decoder is
// not safe for concurrent use.
type Decoder struct {
	d decoder
}

// UnmarshalInto decodes b into m, replacing m's previous contents and
// reusing its section slices' capacity. On error m holds partially decoded
// data and must not be used.
func (dc *Decoder) UnmarshalInto(m *Message, b []byte) error {
	if dc.d.intern == nil {
		dc.d.intern = make(map[string]string)
	}
	dc.d.buf, dc.d.pos = b, 0
	err := dc.d.message(m)
	dc.d.buf = nil // do not retain the caller's wire buffer between calls
	return err
}

// message decodes the whole message into m, truncating and reusing m's
// section slices.
func (d *decoder) message(m *Message) error {
	if len(d.buf) < 12 {
		return ErrShortMessage
	}
	d.nn = 0
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

// NewQuery builds a standard recursive query for (name, type).
func NewQuery(id uint16, name string, t Type, rd bool) *Message {
	return &Message{
		Header:    Header{ID: id, RD: rd},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}

// NewResponse builds a response skeleton matching a query.
func NewResponse(q *Message) *Message {
	r := &Message{Header: Header{ID: q.Header.ID, QR: true, RD: q.Header.RD}}
	r.Questions = append(r.Questions, q.Questions...)
	return r
}

// AppendAddrsInAnswer appends the A-record addresses of the answer
// section for the given (canonicalised) name, following at most one CNAME
// hop, to dst and returns the extended slice: a caller with a scratch
// slice allocates nothing.
func (m *Message) AppendAddrsInAnswer(dst []ipv4.Addr, name string) []ipv4.Addr {
	name = CanonicalName(name)
	target := name
	for _, rr := range m.Answers {
		if rr.Type == TypeCNAME && CanonicalName(rr.Name) == target {
			target = CanonicalName(rr.Target)
		}
	}
	for _, rr := range m.Answers {
		if rr.Type == TypeA && (CanonicalName(rr.Name) == name || CanonicalName(rr.Name) == target) {
			dst = append(dst, rr.Addr)
		}
	}
	return dst
}

// MaxARecords reports how many A records for name fit in a response of at
// most maxSize bytes (a single question, name compression in effect). This
// is the bound behind the paper's "up to 89 addresses in a single
// non-fragmented UDP response" (Section VI-C).
func MaxARecords(name string, maxSize int) int {
	m := &Message{
		Header:    Header{QR: true},
		Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
	}
	n := 0
	for {
		m.Answers = append(m.Answers, RR{
			Name: name, Type: TypeA, Class: ClassIN, TTL: 86400 * 2,
			Addr: ipv4.Addr{6, 6, byte(n >> 8), byte(n)},
		})
		b, err := m.Marshal()
		if err != nil || len(b) > maxSize {
			return n
		}
		n++
	}
}
