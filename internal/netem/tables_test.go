package netem

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dnstime/internal/ipv4"
)

// probeModel is a path model that names itself: its latency is its id,
// and Drop writes its id to *dropped, so a packet tells which instance
// the compiler resolved for it. A link model's id is 16 times the number
// of models its topology built up to it, plus one more than the index of
// the rule that built it.
type probeModel struct {
	id      int
	dropped *int
}

func (m *probeModel) Latency(_, _ ipv4.Addr, _ *rand.Rand) time.Duration { return time.Duration(m.id) }

func (m *probeModel) Drop(_, _ ipv4.Addr, _ *rand.Rand) bool {
	*m.dropped = m.id
	return false
}

// probeDefaultID is the id of a fuzzed topology's Default when it has
// one; 0 stands for the zero Path a nil Default compiles to.
const probeDefaultID = 1 << 30

// fuzzRoles are the roles a fuzzed topology's rules name; hosts take
// one of the first three.
var fuzzRoles = [...]Role{"a", "b", "c", RoleAny}

// fuzzRule is one SetLink of a fuzzed topology: the directed role pair
// and whether its factory returns nil.
type fuzzRule struct {
	pair   RolePair
	nilOut bool
}

// refCompiler is today's link rules over plain maps, built without the
// Compiler's code: a link between two Add-ed hosts takes the exact role
// pair's rule, else (src, *)'s, else (*, dst)'s, and builds one fresh
// model on its first packet (none when the rule's factory returns nil);
// a link with an end not Add-ed follows Default and is not kept.
type refCompiler struct {
	rules map[RolePair]int // role pair → index of its rule, the last one set
	def   int              // Default's id
	roles map[ipv4.Addr]Role
	links map[[2]ipv4.Addr]int
	list  []fuzzRule
	built int // models built
}

func (r *refCompiler) reset(rules []fuzzRule, def int) {
	r.rules = map[RolePair]int{}
	for i, ru := range rules {
		r.rules[ru.pair] = i
	}
	r.list = rules
	r.def = def
	r.roles = map[ipv4.Addr]Role{}
	r.links = map[[2]ipv4.Addr]int{}
	r.built = 0
}

func (r *refCompiler) add(addr ipv4.Addr, role Role) {
	if _, ok := r.roles[addr]; !ok {
		r.roles[addr] = role
	}
}

// model returns the id of the model owning the src→dst link.
func (r *refCompiler) model(src, dst ipv4.Addr) int {
	pair := [2]ipv4.Addr{src, dst}
	if id, ok := r.links[pair]; ok {
		return id
	}
	sr, srcKnown := r.roles[src]
	dr, dstKnown := r.roles[dst]
	if !srcKnown || !dstKnown {
		return r.def
	}
	id := r.def
	for _, k := range []RolePair{{sr, dr}, {sr, RoleAny}, {RoleAny, dr}} {
		if i, ok := r.rules[k]; ok {
			if !r.list[i].nilOut {
				r.built++
				id = r.built*16 + i + 1
			}
			break
		}
	}
	r.links[pair] = id
	return id
}

// fuzzTopology builds the topology of rules and def, whose factories
// number the models they build as refCompiler does.
func fuzzTopology(rules []fuzzRule, def int, dropped *int) *Topology {
	t := NewTopology()
	if def != 0 {
		t.Default = &probeModel{id: def, dropped: dropped}
	}
	built := 0
	for i, ru := range rules {
		if ru.nilOut {
			t.SetLink(ru.pair.Src, ru.pair.Dst, func() PathModel { return nil })
			continue
		}
		t.SetLink(ru.pair.Src, ru.pair.Dst, func() PathModel {
			built++
			return &probeModel{id: built*16 + i + 1, dropped: dropped}
		})
	}
	return t
}

// FuzzCompilerLinks drives a Compiler with sequences of Add, Reset (to a
// new fuzzed topology), Drop and Latency over 24 addresses, and checks
// every packet's model and every Add-ed role against refCompiler: an
// unknown end follows Default and is not kept past the next Add, the
// first role Add-ed for an address wins, an exact pair beats (src, *),
// which beats (*, dst), and each directed link gets its own model
// instance. 24 hosts fill the role table past its first slots, and
// their links the link table past several resizes.
func FuzzCompilerLinks(f *testing.F) {
	// Rules (count, then src, dst and a byte that is 0 mod 4 for a nil
	// factory), Default (odd: set), then ops. Hosts 0, 1, 2 take roles
	// a, b, c.
	hosts := []byte{0, 0, 0, 0, 1, 1, 0, 2, 2}
	// Precedence: (a,*), (*,b) and the exact (c,b); packets a→b, c→b,
	// c→a, b→a, a→c, then a→b again.
	f.Add(slices.Concat([]byte{3, 0, 3, 1, 3, 1, 1, 2, 1, 1, 0}, hosts,
		[]byte{3, 0, 1, 3, 2, 1, 2, 2, 0, 3, 1, 0, 2, 0, 2, 3, 0, 1}))
	// A packet before its destination is Add-ed, then after; a re-Add
	// under another role; a Reset to (b,*) with a Default mid-run.
	f.Add([]byte{1, 0, 1, 1, 0,
		0, 0, 0, 3, 0, 1, 0, 1, 1, 3, 0, 1, 0, 1, 2, 3, 1, 0, 2, 0, 1,
		1, 1, 1, 3, 1, 1, 0, 0, 0, 0, 1, 1, 3, 1, 0, 2, 0, 1})
	// A nil factory on (a,b) beside (a,*), and a Default.
	f.Add(slices.Concat([]byte{2, 0, 1, 0, 0, 3, 1, 1}, hosts,
		[]byte{3, 0, 1, 2, 0, 1, 3, 0, 2, 2, 1, 2}))
	// Twenty-four hosts, then a packet each way between neighbours.
	seed := []byte{2, 0, 3, 1, 3, 1, 1, 0}
	for i := range 24 {
		seed = append(seed, 0, byte(i), byte(i))
	}
	for i := range 24 {
		seed = append(seed, 3, byte(i), byte(i+1), 2, byte(i+1), byte(i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		addr := func() ipv4.Addr { return ipv4.Addr{10, 0, 0, byte(next() % 24)} }
		topology := func() ([]fuzzRule, int) {
			rules := make([]fuzzRule, next()%8)
			for i := range rules {
				rules[i] = fuzzRule{
					pair:   RolePair{Src: fuzzRoles[next()%4], Dst: fuzzRoles[next()%4]},
					nilOut: next()%4 == 0,
				}
			}
			def := 0
			if next()%2 == 1 {
				def = probeDefaultID
			}
			return rules, def
		}
		var dropped int
		ref := &refCompiler{}
		rules, def := topology()
		c := fuzzTopology(rules, def, &dropped).Compiler()
		ref.reset(rules, def)
		for step := 0; len(data) > 0 && step < 1024; step++ {
			switch op := next() % 4; op {
			case 0:
				a, role := addr(), fuzzRoles[next()%3]
				c.Add(a, role)
				ref.add(a, role)
				if got := c.Role(a); got != ref.roles[a] {
					t.Fatalf("step %d: Role(%v) = %q, want %q", step, a, got, ref.roles[a])
				}
			case 1:
				rules, def := topology()
				c.Reset(fuzzTopology(rules, def, &dropped))
				ref.reset(rules, def)
			case 2, 3:
				src, dst := addr(), addr()
				want := ref.model(src, dst)
				var got int
				if op == 2 {
					dropped = 0
					c.Drop(src, dst, nil)
					got = dropped
				} else if d := c.Latency(src, dst, nil); d != DefaultLatency {
					got = int(d)
				}
				if got != want {
					t.Fatalf("step %d: %v→%v resolved model %d, want %d", step, src, dst, got, want)
				}
			}
		}
	})
}

// TestTableMatchesMap puts 1 000 dense and 1 000 sparse keys into a table,
// through several resizes, then resets it and fills it again, checking
// every lookup of a key stored and of one not stored against a map.
func TestTableMatchesMap(t *testing.T) {
	var tb table[uint64, int]
	for round := range 2 {
		ref := map[uint64]int{}
		check := func(key uint64) {
			got, ok := tb.get(key)
			want, wantOK := ref[key]
			if got != want || ok != wantOK {
				t.Fatalf("round %d: get(%#x) = %d, %t; want %d, %t", round, key, got, ok, want, wantOK)
			}
		}
		for i := range uint64(1000) {
			for _, key := range []uint64{i + uint64(round), i<<32 | i*7} {
				check(key)
				tb.put(key, int(key%1_000_003))
				ref[key] = int(key % 1_000_003)
			}
		}
		for i := range uint64(2048) {
			check(i)
			check(i<<32 | i*7)
		}
		tb.reset()
		for key := range ref {
			if _, ok := tb.get(key); ok {
				t.Fatalf("round %d: key %#x survives reset", round, key)
			}
		}
	}
}
