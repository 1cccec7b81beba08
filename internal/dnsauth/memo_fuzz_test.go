package dnsauth

import (
	"strings"
	"testing"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

// answerUncached is the server's answer path without the repeated-answer
// memo: every query is decoded, answered by respondInto and encoded into
// a new buffer. FuzzAnswerMemo binds it on the reference twin.
func (s *Server) answerUncached(src ipv4.Addr, srcPort uint16, payload []byte) {
	q := &s.query
	if err := s.dec.UnmarshalInto(q, payload); err != nil || q.Header.QR || len(q.Questions) != 1 {
		return
	}
	var wire []byte
	var err error
	if name, positive, _ := s.respondInto(q, &s.resp); positive && s.cfg.PadResponsesTo > 0 {
		wire, err = s.resp.AppendMarshalPadded(nil, s.cfg.PadResponsesTo, name, strings.Repeat("p", s.cfg.PadResponsesTo))
	} else {
		wire, err = s.resp.AppendMarshal(nil)
	}
	if err != nil {
		return
	}
	s.QueriesServed++
	if s.cfg.AlwaysFragmentMTU > 0 {
		_, _ = s.host.SendUDPMTU(src, DNSPort, srcPort, wire, s.cfg.AlwaysFragmentMTU)
		return
	}
	_, _ = s.host.SendUDP(src, DNSPort, srcPort, wire)
}

// sentPacket is one packet a nameserver put on the wire, copied out of
// the network's pooled packet.
type sentPacket struct {
	dst     ipv4.Addr
	id      uint16
	fragOff int
	mf      bool
	payload string
}

// memoRig is a nameserver on its own network, recording every packet it
// sends.
type memoRig struct {
	net  *simnet.Network
	srv  *Server
	sent []sentPacket
}

func newMemoRig(t *testing.T, reference bool) *memoRig {
	r := &memoRig{}
	r.net = simnet.New(simclock.New(t0), simnet.WithTrace(func(e simnet.TraceEvent) {
		if e.Kind == simnet.TraceSend && e.Pkt.Src == nsAddr {
			r.sent = append(r.sent, sentPacket{
				dst: e.Pkt.Dst, id: e.Pkt.ID, fragOff: e.Pkt.FragOff, mf: e.Pkt.MF,
				payload: string(e.Pkt.Payload),
			})
		}
	}))
	host := r.net.MustAddHost(nsAddr, simnet.HostConfig{})
	srv, err := New(host, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		srv.recv = srv.answerUncached
		host.Reset(simnet.HostConfig{})
		if err := srv.Reset(Config{}); err != nil {
			t.Fatal(err)
		}
	}
	r.srv = srv
	r.net.MustAddHost(client, simnet.HostConfig{})
	return r
}

// The names, types, pools and zones FuzzAnswerMemo draws from. The pools
// and zones nest ("de.pool.ntp.org" in "pool.ntp.org", "sub.example.org"
// in "example.org", both pools in zone "ntp.org"), so an answer depends on
// the longest apex winning.
var (
	memoNames = []string{
		"pool.ntp.org", "0.pool.ntp.org", "1.de.pool.ntp.org", "de.pool.ntp.org",
		"ntp.org", "www.example.org", "x.sub.example.org", "nosuch.test",
	}
	memoTypes      = []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, 28}
	memoPoolApexes = []string{"pool.ntp.org", "de.pool.ntp.org"}
	memoPads       = []int{0, 120, 1600}
	memoFragMTUs   = []int{0, 296}
)

// memoPool builds a fresh pool: fixed answers every query with all four
// of its addresses, so its cursor never moves; otherwise the pool hands
// out two of five addresses per query, rotating.
func memoPool(apex int, fixed bool) *Pool {
	p := &Pool{Name: memoPoolApexes[apex], TTL: 150, PerResponse: 2, Addrs: poolAddrs(5)}
	if fixed {
		p.PerResponse, p.Addrs = 4, poolAddrs(4)
	}
	for i := range p.Addrs {
		p.Addrs[i][1] = byte(apex + 1)
	}
	return p
}

// memoZone builds a fresh zone: index 0 is example.org, 1 the nested
// sub.example.org and 2 ntp.org; signing 1 signs it and 2 signs it with
// bogus signatures.
func memoZone(index, signing int) *Zone {
	var z *Zone
	switch index {
	case 0:
		z = NewZone("example.org")
		z.AddA("www.example.org", 300, ipv4.Addr{1, 1, 1, 1})
		z.AddA("x.sub.example.org", 300, ipv4.Addr{1, 1, 1, 2})
	case 1:
		z = NewZone("sub.example.org")
		z.AddA("x.sub.example.org", 60, ipv4.Addr{2, 2, 2, 2})
	default:
		z = NewZone("ntp.org")
		z.AddA("ntp.org", 600, ipv4.Addr{3, 3, 3, 3})
		z.AddA("pool.ntp.org", 600, ipv4.Addr{3, 3, 3, 4})
	}
	z.Signed = signing > 0
	z.BogusSignatures = signing > 1
	return z
}

// FuzzAnswerMemo drives a server, which answers a repeated query from
// its last answer's wire image, and a twin that decodes, answers and
// encodes every query, through the same program, and requires every
// packet each sends (bytes, IPID, fragment split) and QueriesServed to
// match after every step. A program is a sequence of 4-byte steps
// (op, a, b, c); by op mod 8:
//
//	0–4  a query: name a&7, type a>>3&3, RD a>>5&1, ID b<<8|c; a>>6
//	     is 1 to set QR, 2 to truncate it to b mod its length bytes,
//	     3 to append a zero byte
//	5    AddPool: apex a&1, fixed when a>>1&1 is 1, else rotating
//	6    AddZone: zone a mod 3, signing b mod 3 (none, valid, bogus)
//	7    Reset: padding a mod 3 (0, 120, 1 600), AlwaysFragmentMTU b&1
//	     (0, 296)
//
// Each query goes straight to the server's handler, built in one buffer
// that the next query overwrites, so a server that kept the caller's
// bytes instead of copying them would answer from the wrong key.
func FuzzAnswerMemo(f *testing.F) {
	q := func(name, id byte) []byte { return []byte{0, name, 0, id} }
	var (
		fixedPool = []byte{5, 2, 0, 0}
		rotPool   = []byte{5, 0, 0, 0}
		padFrag   = []byte{7, 1, 1, 0}
		bigPad    = []byte{7, 2, 0, 0}
	)
	join := func(steps ...[]byte) []byte {
		var out []byte
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	// Repeats of one question with new IDs, and the same question again
	// after a Reset.
	f.Add(join(padFrag, fixedPool, q(0, 1), q(0, 2), q(0, 3), q(1, 4), q(1, 5),
		bigPad, q(1, 6), fixedPool, q(0, 7), q(0, 8)))
	// A rotating pool never repeats; then the fixed pool replaces it.
	f.Add(join(rotPool, q(0, 1), q(0, 1), q(0, 2), fixedPool, q(0, 3), q(0, 3)))
	// A rotating pool's answer between two equal questions to a fixed
	// pool: the second must not get the rotating answer.
	f.Add(join(fixedPool, []byte{5, 1, 0, 0}, q(0, 1), q(2, 2), q(0, 3), q(2, 4), q(0, 5)))
	// A zone re-added with other signing between two equal queries, and
	// the nested zone added after the outer one answered.
	f.Add(join([]byte{6, 0, 0, 0}, q(6, 1), q(6, 2), []byte{6, 0, 1, 0}, q(6, 3),
		[]byte{6, 1, 2, 0}, q(6, 4), q(6, 4), []byte{6, 2, 1, 0}, q(4, 5), q(4, 5)))
	// Dropped queries (QR set, truncated) and a trailing byte between
	// repeats, and a nested pool added after its parent answered.
	f.Add(join(padFrag, fixedPool, q(2, 1), q(2, 1), q(2|0x40, 2), q(2, 3),
		[]byte{0, 2 | 0x80, 20, 4}, q(2, 5), q(2|0xc0, 6), q(2, 7), []byte{5, 3, 0, 0}, q(2, 8), q(2, 9)))
	// Other types and an NXDOMAIN repeated.
	f.Add(join(fixedPool, []byte{6, 2, 2, 0}, q(0|1<<3, 1), q(0|1<<3, 2), q(7, 3), q(7, 4),
		q(5|2<<3, 5), q(4|1<<5, 6), q(4|1<<5, 7)))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*256 {
			prog = prog[:4*256]
		}
		rigs := [2]*memoRig{newMemoRig(t, false), newMemoRig(t, true)}
		var qbuf []byte
		for i := 0; i+4 <= len(prog); i += 4 {
			op, a, b, c := prog[i]%8, prog[i+1], prog[i+2], prog[i+3]
			for _, r := range rigs {
				switch op {
				case 5:
					r.srv.AddPool(memoPool(int(a&1), a>>1&1 == 1))
				case 6:
					r.srv.AddZone(memoZone(int(a%3), int(b%3)))
				case 7:
					r.srv.Host().Reset(simnet.HostConfig{})
					cfg := Config{PadResponsesTo: memoPads[a%3], AlwaysFragmentMTU: memoFragMTUs[b&1]}
					if err := r.srv.Reset(cfg); err != nil {
						t.Fatal(err)
					}
				default:
					m := dnswire.NewQuery(uint16(b)<<8|uint16(c), memoNames[a&7], memoTypes[a>>3&3], a>>5&1 == 1)
					var err error
					if qbuf, err = m.AppendMarshal(qbuf[:0]); err != nil {
						t.Fatal(err)
					}
					switch a >> 6 {
					case 1:
						qbuf[2] |= 0x80
					case 2:
						qbuf = qbuf[:int(b)%len(qbuf)]
					case 3:
						qbuf = append(qbuf, 0)
					}
					r.srv.recv(client, 5353, qbuf)
					r.net.Clock().RunFor(time.Second)
				}
			}
			memo, ref := rigs[0], rigs[1]
			if memo.srv.QueriesServed != ref.srv.QueriesServed {
				t.Fatalf("step %d: QueriesServed %d, uncached %d", i/4, memo.srv.QueriesServed, ref.srv.QueriesServed)
			}
			if len(memo.sent) != len(ref.sent) {
				t.Fatalf("step %d: %d packets sent, uncached %d", i/4, len(memo.sent), len(ref.sent))
			}
			for k := range memo.sent {
				if memo.sent[k] != ref.sent[k] {
					t.Fatalf("step %d: packet %d differs:\n memo     %+v\n uncached %+v", i/4, k, memo.sent[k], ref.sent[k])
				}
			}
			memo.sent, ref.sent = memo.sent[:0], ref.sent[:0]
		}
	})
}
