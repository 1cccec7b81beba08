package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dnstime/internal/core"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/measure"
	"dnstime/internal/netem"
	"dnstime/internal/ntpwire"
	"dnstime/internal/population"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/udp"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink atomic.Uint64

var probeEpoch = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// probe times one layer entry point: op(n) performs n operations.
type probe struct {
	name, unit string
	scale      float64 // nanoseconds per unit
	op         func(n int) error
}

// timeOp returns op's median cost per operation in ns: n doubles until
// one batch takes a tenth of box, then batches repeat until box has passed
// and at least five have run.
func timeOp(box time.Duration, op func(n int) error) (float64, error) {
	n := 1
	for {
		t := time.Now()
		if err := op(n); err != nil {
			return 0, err
		}
		if time.Since(t) >= box/10 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	deadline := time.Now().Add(box)
	for len(per) < 5 || (time.Now().Before(deadline) && len(per) < 200) {
		t := time.Now()
		if err := op(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// probes lists every layer probe. Inputs derive from seed.
func probes(seed int64) []probe {
	return []probe{
		dispatchProbe(64, seed),
		dispatchProbe(4096, seed),
		rttProbe("lab", seed),
		rttProbe("lossy-wifi", seed),
		netemProbe("congested", seed),
		checksumProbe(48),
		checksumProbe(1232),
		fragReasmProbe(),
		floodProbe(),
		dnsProbe(4),
		dnsProbe(89),
		ntpProbe(),
		{name: "core.lab_new_us", unit: "us", scale: 1e3, op: func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := core.NewLab(core.LabConfig{Seed: seed + int64(i)}); err != nil {
					return err
				}
			}
			return nil
		}},
		labResetProbe(seed),
		poisonProbe(seed),
		{name: "population.open_resolvers_ms", unit: "ms", scale: 1e6, op: func(n int) error {
			for i := 0; i < n; i++ {
				sink.Add(uint64(len(population.GenerateOpenResolvers(population.DefaultOpenResolverConfig(), seed+int64(i)))))
			}
			return nil
		}},
		{name: "population.domain_ns_ms", unit: "ms", scale: 1e6, op: func(n int) error {
			for i := 0; i < n; i++ {
				sink.Add(uint64(len(population.GenerateDomainNameservers(population.DefaultDomainNameserverConfig(), seed+int64(i)))))
			}
			return nil
		}},
		{name: "population.ad_clients_ms", unit: "ms", scale: 1e6, op: func(n int) error {
			for i := 0; i < n; i++ {
				sink.Add(uint64(len(population.GenerateAdClients(population.DefaultAdStudyConfig(), seed+int64(i)))))
			}
			return nil
		}},
		snoopProbe(seed),
	}
}

// dispatchProbe schedules one event and fires the earliest, with depth
// events pending: the clock's steady state inside a long simulation.
func dispatchProbe(depth int, seed int64) probe {
	return probe{name: fmt.Sprintf("simclock.dispatch_ns.d%d", depth), unit: "ns", scale: 1, op: func(n int) error {
		rng := rand.New(rand.NewSource(seed))
		delays := make([]time.Duration, 1024)
		for i := range delays {
			delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
		}
		fired := 0
		fn := func() { fired++ }
		clk := simclock.New(probeEpoch)
		for i := 0; i < depth; i++ {
			clk.After(delays[i%len(delays)], fn)
		}
		for i := 0; i < n; i++ {
			clk.After(delays[i%len(delays)], fn)
			clk.Step()
		}
		if fired != n {
			return fmt.Errorf("simclock: %d of %d events fired", fired, n)
		}
		return nil
	}}
}

// rttProbe sends a 48-byte datagram to an echoing host and runs the clock
// until the echo has been delivered (or dropped), under a netem profile.
func rttProbe(profile string, seed int64) probe {
	return probe{name: "simnet.udp_rtt_ns." + profile, unit: "ns", scale: 1, op: func(n int) error {
		model, err := netem.Profile(profile)
		if err != nil {
			return err
		}
		clk := simclock.New(probeEpoch)
		net := simnet.New(clk, simnet.WithSeed(seed), simnet.WithPathModel(model))
		a := net.MustAddHost(ipv4.Addr{10, 0, 0, 1}, simnet.HostConfig{})
		b := net.MustAddHost(ipv4.Addr{10, 0, 0, 2}, simnet.HostConfig{})
		var echoErr error
		if err := b.HandleUDP(123, func(src ipv4.Addr, port uint16, payload []byte) {
			if _, err := b.SendUDP(src, 123, port, payload); err != nil {
				echoErr = err
			}
		}); err != nil {
			return err
		}
		got := 0
		if err := a.HandleUDP(40000, func(ipv4.Addr, uint16, []byte) { got++ }); err != nil {
			return err
		}
		payload := make([]byte, 48)
		for i := 0; i < n; i++ {
			if _, err := a.SendUDP(b.Addr(), 40000, 123, payload); err != nil {
				return err
			}
			clk.Run()
		}
		if echoErr != nil {
			return echoErr
		}
		// A lossy profile may drop a few round trips, never dozens in a row.
		if got == 0 && n >= 64 {
			return fmt.Errorf("simnet: none of %d echoes arrived", n)
		}
		return nil
	}}
}

func netemProbe(profile string, seed int64) probe {
	return probe{name: "netem.sample_ns." + profile, unit: "ns", scale: 1, op: func(n int) error {
		model, err := netem.Profile(profile)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
		var sum uint64
		for i := 0; i < n; i++ {
			sum += uint64(model.Latency(src, dst, rng))
			if model.Drop(src, dst, rng) {
				sum++
			}
		}
		sink.Add(sum)
		return nil
	}}
}

func checksumProbe(payload int) probe {
	return probe{name: fmt.Sprintf("udp.checksum_ns.%d", payload), unit: "ns", scale: 1, op: func(n int) error {
		dgram := make([]byte, udp.HeaderLen+payload)
		for i := range dgram {
			dgram[i] = byte(i * 7)
		}
		src, dst := [4]byte{192, 0, 2, 53}, [4]byte{198, 51, 100, 53}
		var sum uint64
		for i := 0; i < n; i++ {
			dgram[udp.HeaderLen] = byte(i)
			sum += uint64(udp.ComputeChecksum(src, dst, dgram))
		}
		sink.Add(sum)
		return nil
	}}
}

// fragReasmProbe fragments a 1232-byte datagram at MTU 548 and feeds
// every fragment to a reassembler: the receiving half of every
// fragmented DNS response.
func fragReasmProbe() probe {
	return probe{name: "ipv4.frag_reasm_ns", unit: "ns", scale: 1, op: func(n int) error {
		clk := simclock.New(probeEpoch)
		reasm := ipv4.NewReassembler(clk, ipv4.LinuxPolicy)
		pkt := &ipv4.Packet{
			Src: ipv4.Addr{198, 51, 100, 53}, Dst: ipv4.Addr{192, 0, 2, 53},
			Proto: ipv4.ProtoUDP, TTL: ipv4.DefaultTTL, Payload: make([]byte, 1232),
		}
		for i := 0; i < n; i++ {
			pkt.ID = uint16(i)
			frags, err := ipv4.Fragment(pkt, 548)
			if err != nil {
				return err
			}
			done := false
			for _, f := range frags {
				_, done = reasm.Add(f)
			}
			if !done {
				return fmt.Errorf("ipv4: datagram %d did not reassemble from %d fragments", i, len(frags))
			}
			clk.Step() // discards the cancelled expiry timer
		}
		return nil
	}}
}

// floodProbe adds first fragments under fresh IPIDs to a pair whose
// bucket budget is already full: the cost the attacker's planting flood
// puts on the victim's reassembler.
func floodProbe() probe {
	return probe{name: "ipv4.flood_add_ns", unit: "ns", scale: 1, op: func(n int) error {
		clk := simclock.New(probeEpoch)
		reasm := ipv4.NewReassembler(clk, ipv4.LinuxPolicy)
		frag := &ipv4.Packet{
			Src: ipv4.Addr{198, 51, 100, 53}, Dst: ipv4.Addr{192, 0, 2, 53},
			Proto: ipv4.ProtoUDP, TTL: ipv4.DefaultTTL, MF: true, Payload: make([]byte, 64),
		}
		for id := 0; id < ipv4.LinuxPolicy.MaxPerPair; id++ {
			frag.ID = uint16(id)
			reasm.Add(frag)
		}
		before := reasm.Stats().FragmentsOut
		for i := 0; i < n; i++ {
			frag.ID = uint16(ipv4.LinuxPolicy.MaxPerPair + i%1024)
			reasm.Add(frag)
		}
		if got := reasm.Stats().FragmentsOut - before; got != n {
			return fmt.Errorf("ipv4: %d of %d flood fragments rejected", got, n)
		}
		return nil
	}}
}

// dnsProbe encodes and decodes a pool.ntp.org response carrying records A
// records: 4 in an honest answer, 89 in the Chronos attack's.
func dnsProbe(records int) probe {
	return probe{name: fmt.Sprintf("dnswire.codec_ns.a%d", records), unit: "ns", scale: 1, op: func(n int) error {
		m := dnswire.NewResponse(dnswire.NewQuery(0x1234, "pool.ntp.org", dnswire.TypeA, true))
		for i := 0; i < records; i++ {
			m.Answers = append(m.Answers, dnswire.RR{
				Name: "pool.ntp.org", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 150,
				Addr: ipv4.Addr{6, 6, byte(i >> 8), byte(i + 1)},
			})
		}
		var buf []byte
		var dec dnswire.Decoder
		var rx dnswire.Message
		for i := 0; i < n; i++ {
			m.Header.ID = uint16(i)
			var err error
			if buf, err = m.AppendMarshal(buf[:0]); err != nil {
				return err
			}
			if err := dec.UnmarshalInto(&rx, buf); err != nil {
				return err
			}
		}
		if len(rx.Answers) != records {
			return fmt.Errorf("dnswire: decoded %d answers, want %d", len(rx.Answers), records)
		}
		return nil
	}}
}

func ntpProbe() probe {
	return probe{name: "ntpwire.codec_ns", unit: "ns", scale: 1, op: func(n int) error {
		q := ntpwire.ClientPacket(probeEpoch)
		var buf []byte
		var rx ntpwire.Packet
		for i := 0; i < n; i++ {
			p := ntpwire.ServerPacket(&q, probeEpoch.Add(time.Duration(i)), 2, [4]byte{10, 0, 0, 1})
			buf = p.AppendMarshal(buf[:0])
			if err := ntpwire.UnmarshalInto(&rx, buf); err != nil {
				return err
			}
		}
		sink.Add(uint64(rx.XmitTime))
		return nil
	}}
}

func labResetProbe(seed int64) probe {
	return probe{name: "core.lab_reset_us", unit: "us", scale: 1e3, op: func(n int) error {
		lab, err := core.NewLab(core.LabConfig{Seed: seed})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := lab.Reset(core.LabConfig{Seed: seed + int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}}
}

// labResetAllocs counts the heap allocations of one Lab.Reset.
func labResetAllocs(seed int64) (float64, error) {
	lab, err := core.NewLab(core.LabConfig{Seed: seed})
	if err != nil {
		return 0, err
	}
	const n = 200
	if err := lab.Reset(core.LabConfig{Seed: seed}); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := lab.Reset(core.LabConfig{Seed: seed + int64(i)}); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}

// poisonProbe times Lab.PoisonResolver on a freshly reset lab: planting,
// triggering and checking one poisoning of the resolver's cache.
func poisonProbe(seed int64) probe {
	return probe{name: "core.poison_round_us", unit: "us", scale: 1e3, op: func(n int) error {
		lab, err := core.NewLab(core.LabConfig{Seed: seed})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := lab.Reset(core.LabConfig{Seed: seed + int64(i)}); err != nil {
				return err
			}
			if err := lab.PoisonResolver(0); err != nil && !errors.Is(err, core.ErrPoisoningFailed) {
				return err
			}
		}
		return nil
	}}
}

func snoopProbe(seed int64) probe {
	specs := population.GenerateOpenResolvers(population.DefaultOpenResolverConfig(), seed)
	return probe{name: "measure.cache_snoop_ms", unit: "ms", scale: 1e6, op: func(n int) error {
		for i := 0; i < n; i++ {
			sink.Add(uint64(measure.CacheSnoop(specs).Probed))
		}
		return nil
	}}
}
