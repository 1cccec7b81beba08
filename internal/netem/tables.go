package netem

import (
	"encoding/binary"
	"math/bits"

	"dnstime/internal/ipv4"
)

// table is an open-addressing hash table from integer keys to values,
// like simnet's host table but without removal: a Compiler only adds to
// its tables until its Reset, which empties them and keeps their slots.
// The slots are a power of two in number and at most half full; a
// multiplicative hash picks a key's home slot from the top bits of a
// 64-bit product, and a lookup probes linearly from there to the key or
// an empty slot.
type table[K uint32 | uint64, V any] struct {
	slots []tableSlot[K, V]
	n     int  // occupied slots
	shift uint // 64 − log₂ len(slots): the product's bits that are dropped
}

// tableSlot is one slot of a table; used marks it occupied, since every
// key and value, zero included, may be stored.
type tableSlot[K uint32 | uint64, V any] struct {
	key  K
	used bool
	val  V
}

// minTableSlots is the size of a table's first slots: room for a lab's
// hosts, or for the links its traffic uses, without a resize.
const minTableSlots = 32

// find returns the slot holding key, or the empty slot its probe ends at.
// The table must have slots.
func (t *table[K, V]) find(key K) *tableSlot[K, V] {
	mask := len(t.slots) - 1
	i := int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
	for {
		s := &t.slots[i]
		if !s.used || s.key == key {
			return s
		}
		i = (i + 1) & mask
	}
}

// get returns the value stored under key and whether there is one.
func (t *table[K, V]) get(key K) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	s := t.find(key)
	return s.val, s.used
}

// put stores v under key, which the table must not hold.
func (t *table[K, V]) put(key K, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(max(minTableSlots, 2*len(t.slots)))
	}
	*t.find(key) = tableSlot[K, V]{key: key, used: true, val: v}
	t.n++
}

// resize rehashes every entry into size slots, a power of two.
func (t *table[K, V]) resize(size int) {
	old := t.slots
	t.slots = make([]tableSlot[K, V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.used {
			*t.find(s.key) = s
		}
	}
}

// reset empties the table, keeping its slots.
func (t *table[K, V]) reset() {
	clear(t.slots)
	t.n = 0
}

// addrKey is an address as a table key.
func addrKey(a ipv4.Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// pairKey is a directed src→dst pair as a table key.
func pairKey(src, dst ipv4.Addr) uint64 { return uint64(addrKey(src))<<32 | uint64(addrKey(dst)) }
