package attack

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnsres"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpserv"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0      = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	nsAddr  = ipv4.MustParseAddr("198.51.100.53")
	resAddr = ipv4.MustParseAddr("192.0.2.53")
	eveAddr = ipv4.MustParseAddr("203.0.113.66")
	evilNTP = ipv4.MustParseAddr("6.6.6.6")
)

type fixture struct {
	clk  *simclock.Clock
	net  *simnet.Network
	auth *dnsauth.Server
	res  *dnsres.Resolver
	eve  *Attacker
}

// newFixture builds: authoritative NS for pool.ntp.org (4 stable pool
// addresses, padded responses), victim resolver, attacker host.
func newFixture(t *testing.T, poolSize int) *fixture {
	t.Helper()
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, dnsauth.Config{PadResponsesTo: 120})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]ipv4.Addr, poolSize)
	for i := range addrs {
		addrs[i] = ipv4.Addr{10, 0, 0, byte(i + 1)}
	}
	auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: addrs, PerResponse: 4, TTL: 150})
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
	res, err := dnsres.New(resHost, dnsres.Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr}})
	if err != nil {
		t.Fatal(err)
	}
	eveHost := n.MustAddHost(eveAddr, simnet.HostConfig{})
	return &fixture{clk: clk, net: n, auth: auth, res: res, eve: New(eveHost, 1)}
}

func TestPredictIPIDs(t *testing.T) {
	probes := []uint16{100, 101, 102, 103}
	ids := PredictIPIDs(probes, 1, 4)
	if len(ids) != 4 || ids[0] != 104 {
		t.Errorf("ids = %v, want starting at 104", ids)
	}
	// Faster counters.
	probes = []uint16{100, 110, 120}
	ids = PredictIPIDs(probes, 2, 2)
	if ids[0] != 140 {
		t.Errorf("ids[0] = %d, want 140 (rate 10, ahead 2)", ids[0])
	}
	if PredictIPIDs(nil, 1, 4) != nil {
		t.Error("nil probes should yield nil")
	}
}

func TestPredictIPIDsWraparound(t *testing.T) {
	probes := []uint16{0xfffe, 0xffff}
	ids := PredictIPIDs(probes, 1, 2)
	if ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v, want wraparound to 0,1", ids)
	}
}

// TestPredictIPIDsHitsSequentialAllocatorOnly is DESIGN.md §5's IPID
// allocator ablation: after four probes from the attacker, the predicted
// 16-wide window holds the nameserver's next IPID toward the resolver
// only when one global counter serves every destination — §III's
// requirement on the nameserver's OS. Per-destination and random
// allocators leave the attacker nothing to extrapolate.
func TestPredictIPIDsHitsSequentialAllocatorOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alloc ipv4.IDAllocator
		hit   bool
	}{
		{"sequential", &ipv4.SequentialAllocator{}, true},
		{"per-destination", &ipv4.PerDestAllocator{}, false},
		{"random", &ipv4.RandomAllocator{State: 99}, false},
	} {
		var probes []uint16
		for i := 0; i < 4; i++ {
			probes = append(probes, tc.alloc.Next(nsAddr, eveAddr))
		}
		window := PredictIPIDs(probes, 1, 16)
		next := tc.alloc.Next(nsAddr, resAddr)
		if got := slices.Contains(window, next); got != tc.hit {
			t.Errorf("%s: next IPID %d in window %v = %t, want %t", tc.name, next, window, got, tc.hit)
		}
	}
}

func TestProbeIPIDsObservesSequentialCounter(t *testing.T) {
	f := newFixture(t, 4)
	var got []uint16
	f.eve.ProbeIPIDs(nsAddr, "pool.ntp.org", 5, 500*time.Millisecond, func(ids []uint16, err error) {
		if err != nil {
			t.Errorf("ProbeIPIDs: %v", err)
			return
		}
		got = ids
	})
	f.clk.RunFor(10 * time.Second)
	if len(got) != 5 {
		t.Fatalf("observed %d IPIDs, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Errorf("IPIDs not sequential: %v", got)
		}
	}
}

func TestMaliciousTwinPreservesShape(t *testing.T) {
	f := newFixture(t, 4)
	var template []byte
	f.eve.FetchTemplate(nsAddr, "pool.ntp.org", func(p []byte, err error) {
		if err != nil {
			t.Errorf("FetchTemplate: %v", err)
			return
		}
		template = p
	})
	f.clk.RunFor(5 * time.Second)
	if template == nil {
		t.Fatal("no template")
	}
	mal, err := new(Attacker).maliciousTwin(template, []ipv4.Addr{evilNTP}, 86400*2)
	if err != nil {
		t.Fatalf("maliciousTwin: %v", err)
	}
	if len(mal) != len(template) {
		t.Fatalf("length changed: %d -> %d", len(template), len(mal))
	}
	m, err := dnswire.Unmarshal(mal)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeA {
			if rr.Addr != evilNTP {
				t.Errorf("answer addr = %v, want %v", rr.Addr, evilNTP)
			}
			if rr.TTL != 86400*2 {
				t.Errorf("TTL = %d, want 172800", rr.TTL)
			}
		}
	}
}

func TestMaliciousTwinErrors(t *testing.T) {
	if _, err := new(Attacker).maliciousTwin([]byte{1, 2}, []ipv4.Addr{evilNTP}, 0); err == nil {
		t.Error("garbage template accepted")
	}
	q := dnswire.NewQuery(1, "x.test", dnswire.TypeA, true)
	wire, _ := q.Marshal()
	if _, err := new(Attacker).maliciousTwin(wire, nil, 0); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("err = %v, want ErrShapeMismatch for empty malicious set", err)
	}
}

// TestFullPoisoningPipeline is the paper's §III attack end to end, using
// only off-path primitives:
//
//  1. spoofed ICMP forces the NS to fragment toward the resolver (MTU 68),
//  2. the attacker learns the response template by querying the NS itself,
//  3. probes predict the NS's sequential IPID,
//  4. a spoofed second fragment with the attacker's NTP address and fixed
//     UDP checksum is planted in the resolver's defrag cache,
//  5. the attacker triggers the resolver's query (open-resolver trigger),
//  6. the real first fragment reassembles with the spoofed second fragment
//     and the malicious record enters the cache.
func TestFullPoisoningPipeline(t *testing.T) {
	f := newFixture(t, 4)
	eve := f.eve

	// (1) Force fragmentation NS -> resolver.
	eve.ForceFragmentation(nsAddr, resAddr, 68)
	f.clk.RunFor(time.Second)

	// (2) Learn the template.
	var template []byte
	eve.FetchTemplate(nsAddr, "pool.ntp.org", func(p []byte, err error) { template = p })
	f.clk.RunFor(2 * time.Second)
	if template == nil {
		t.Fatal("no template")
	}

	// (3) Predict IPIDs.
	var window []uint16
	eve.ProbeIPIDs(nsAddr, "pool.ntp.org", 4, 300*time.Millisecond, func(ids []uint16, err error) {
		if err != nil {
			t.Errorf("probe: %v", err)
			return
		}
		window = PredictIPIDs(ids, 1, 8)
	})
	f.clk.RunFor(5 * time.Second)
	if window == nil {
		t.Fatal("no IPID window")
	}

	// (4) Craft and plant the spoofed second fragments.
	frags, err := eve.BuildSpoofedFragments(PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: template,
		Malicious: []ipv4.Addr{evilNTP}, TTL: 0, MTU: 68, IPIDs: window,
	})
	if err != nil {
		t.Fatalf("BuildSpoofedFragments: %v", err)
	}
	for _, fr := range frags {
		eve.Inject(fr)
	}

	// (5) Trigger the resolver's upstream query.
	eve.TriggerOpenResolverQuery(resAddr, "pool.ntp.org")
	f.clk.RunFor(5 * time.Second)

	// (6) The cache now maps pool.ntp.org to the attacker's NTP server.
	entry, ok := f.res.Peek("pool.ntp.org", dnswire.TypeA)
	if !ok {
		t.Fatal("nothing cached — poisoning failed")
	}
	found := false
	for _, rr := range entry.RRs {
		if rr.Type == dnswire.TypeA && rr.Addr == evilNTP {
			found = true
		}
	}
	if !found {
		t.Errorf("cache holds %v, want %v", entry.RRs, evilNTP)
	}
	if f.res.Host().ChecksumErrors != 0 {
		t.Errorf("checksum errors at resolver: %d (fix failed?)", f.res.Host().ChecksumErrors)
	}
}

// TestPoisoningFailsWithoutChecksumFix shows the checksum check doing its
// job when the attacker skips the fix.
func TestPoisoningFailsWithoutChecksumFix(t *testing.T) {
	f := newFixture(t, 4)
	eve := f.eve
	eve.ForceFragmentation(nsAddr, resAddr, 68)
	f.clk.RunFor(time.Second)
	var template []byte
	eve.FetchTemplate(nsAddr, "pool.ntp.org", func(p []byte, err error) { template = p })
	f.clk.RunFor(2 * time.Second)

	frags, err := eve.BuildSpoofedFragments(PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: template,
		Malicious: []ipv4.Addr{evilNTP}, MTU: 68, IPIDs: []uint16{0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the checksum fix by flipping a byte. The fragments share one
	// payload slice, so one flip corrupts every candidate.
	frags[0].Payload[0] ^= 0xff
	for _, fr := range frags {
		eve.Inject(fr)
	}
	eve.TriggerOpenResolverQuery(resAddr, "pool.ntp.org")
	f.clk.RunFor(5 * time.Second)
	if entry, ok := f.res.Peek("pool.ntp.org", dnswire.TypeA); ok {
		for _, rr := range entry.RRs {
			if rr.Addr == evilNTP {
				t.Fatal("malicious record cached despite broken checksum")
			}
		}
	}
	if f.res.Host().ChecksumErrors == 0 {
		t.Error("no checksum errors recorded at resolver")
	}
}

// TestPoisoningFailsWithWrongIPIDs: fragments planted under wrong IPIDs
// never meet the real first fragment.
func TestPoisoningFailsWithWrongIPIDs(t *testing.T) {
	f := newFixture(t, 4)
	eve := f.eve
	eve.ForceFragmentation(nsAddr, resAddr, 68)
	f.clk.RunFor(time.Second)
	var template []byte
	eve.FetchTemplate(nsAddr, "pool.ntp.org", func(p []byte, err error) { template = p })
	f.clk.RunFor(2 * time.Second)
	frags, err := eve.BuildSpoofedFragments(PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: template,
		Malicious: []ipv4.Addr{evilNTP}, MTU: 68, IPIDs: []uint16{40000, 40001},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frags {
		eve.Inject(fr)
	}
	eve.TriggerOpenResolverQuery(resAddr, "pool.ntp.org")
	f.clk.RunFor(5 * time.Second)
	entry, ok := f.res.Peek("pool.ntp.org", dnswire.TypeA)
	if !ok {
		// The real fragments reassembled fine without the spoof; the cache
		// should hold the honest answer. Missing entirely means the spoof
		// corrupted reassembly.
		t.Fatal("honest response lost")
	}
	for _, rr := range entry.RRs {
		if rr.Addr == evilNTP {
			t.Fatal("malicious record cached despite wrong IPIDs")
		}
	}
}

func TestRateLimitFloodStarvesVictim(t *testing.T) {
	f := newFixture(t, 4)
	srvHost := f.net.MustAddHost(ipv4.MustParseAddr("10.1.1.1"), simnet.HostConfig{})
	srv, err := ntpserv.New(srvHost, ntpserv.Config{RateLimit: ntpserv.RateLimitConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	victim := ipv4.MustParseAddr("192.0.2.77")
	f.net.MustAddHost(victim, simnet.HostConfig{})
	stop := f.eve.RateLimitFlood(srv.Addr(), victim, 20*time.Second)
	f.clk.RunFor(10 * time.Second)
	if !srv.IsLimiting(victim) {
		t.Fatal("server not limiting the victim")
	}
	f.clk.RunFor(5 * time.Minute)
	if !srv.IsLimiting(victim) {
		t.Error("hold-down lapsed during sustained flood")
	}
	stop()
	f.clk.RunFor(5 * time.Minute)
	if srv.IsLimiting(victim) {
		t.Error("victim still limited after flood stopped")
	}
}

func TestBuildSpoofedFragmentsErrors(t *testing.T) {
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA, true)
	r := dnswire.NewResponse(q)
	r.Answers = []dnswire.RR{{Name: "pool.ntp.org", Type: dnswire.TypeA, TTL: 150, Addr: ipv4.Addr{1, 1, 1, 1}}}
	small, _ := r.Marshal()
	// Response too small to span two fragments at MTU 1500.
	_, err := new(Attacker).BuildSpoofedFragments(PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: small,
		Malicious: []ipv4.Addr{evilNTP}, MTU: 1500, IPIDs: []uint16{1},
	})
	if !errors.Is(err, ErrFragmentBounds) {
		t.Errorf("err = %v, want ErrFragmentBounds", err)
	}
	// No padding slack in the second fragment region.
	_, err = new(Attacker).BuildSpoofedFragments(PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: small,
		Malicious: []ipv4.Addr{evilNTP}, MTU: 68, IPIDs: []uint16{1},
	})
	if !errors.Is(err, ErrNoSlack) {
		t.Errorf("err = %v, want ErrNoSlack", err)
	}
}

// TestSpoofedFragmentsMemo: an attacker that keeps its last build answers
// every plan of a sequence with exactly the packets and errors a zero
// Attacker builds from scratch. The sequence repeats a plan, changes one
// input at a time (the template's ID, one of its answer bytes, the TTL, a
// malicious address, the MTU), and puts a failing template of each kind
// between two equal good plans.
func TestSpoofedFragmentsMemo(t *testing.T) {
	f := newFixture(t, 4)
	var template []byte
	f.eve.FetchTemplate(nsAddr, "pool.ntp.org", func(p []byte, err error) {
		if err != nil {
			t.Errorf("FetchTemplate: %v", err)
			return
		}
		template = slices.Clone(p)
	})
	f.clk.RunFor(5 * time.Second)
	if template == nil {
		t.Fatal("no template")
	}
	good := PoisonPlan{
		NS: nsAddr, Resolver: resAddr, Template: template,
		Malicious: []ipv4.Addr{evilNTP, {6, 6, 6, 7}}, MTU: 68, IPIDs: []uint16{7, 8, 9},
	}
	with := func(edit func(p *PoisonPlan)) PoisonPlan {
		p := good
		p.Template = slices.Clone(good.Template)
		p.Malicious = slices.Clone(good.Malicious)
		edit(&p)
		return p
	}
	encode := func(m *dnswire.Message) []byte {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA, true)
	unpadded := dnswire.NewResponse(q)
	unpadded.Answers = []dnswire.RR{{Name: "pool.ntp.org", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 150, Addr: ipv4.Addr{1, 1, 1, 1}}}

	type step struct {
		name string
		plan PoisonPlan
		err  error
	}
	steps := []step{{"first", good, nil}, {"repeat", good, nil}}
	// Each change follows a build of good and is followed by one.
	for _, s := range []step{
		{"other IPIDs", with(func(p *PoisonPlan) { p.IPIDs = []uint16{65535, 0} }), nil},
		{"template ID", with(func(p *PoisonPlan) { p.Template[0] ^= 0x5a; p.Template[1] ^= 0xa5 }), nil},
		{"answer byte", with(func(p *PoisonPlan) {
			i := bytes.Index(p.Template, []byte{10, 0, 0, 2})
			if i < 0 {
				t.Fatal("template holds no 10.0.0.2 answer")
			}
			p.Template[i+3] = 99
		}), nil},
		{"TTL", with(func(p *PoisonPlan) { p.TTL = 86400 }), nil},
		{"malicious address", with(func(p *PoisonPlan) { p.Malicious[1] = ipv4.Addr{6, 6, 6, 8} }), nil},
		{"MTU", with(func(p *PoisonPlan) { p.MTU = 76 }), nil},
		{"trailing bytes", with(func(p *PoisonPlan) { p.Template = append(p.Template, 0, 0, 0, 0) }), ErrShapeMismatch},
		{"unpadded", with(func(p *PoisonPlan) { p.Template = encode(unpadded) }), ErrNoSlack},
		{"one fragment", with(func(p *PoisonPlan) { p.Template = encode(dnswire.NewResponse(q)) }), ErrFragmentBounds},
	} {
		steps = append(steps, s, step{"after " + s.name, good, nil})
	}
	for _, s := range steps {
		got, gotErr := f.eve.BuildSpoofedFragments(s.plan)
		want, wantErr := new(Attacker).BuildSpoofedFragments(s.plan)
		if !errors.Is(wantErr, s.err) {
			t.Fatalf("%s: zero Attacker's error %v, want %v", s.name, wantErr, s.err)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, zero Attacker's %v", s.name, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets, zero Attacker's %d", s.name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], *want[i]) {
				t.Errorf("%s: packet %d differs:\n got  %+v\n want %+v", s.name, i, *got[i], *want[i])
			}
		}
	}
}
