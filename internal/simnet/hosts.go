package simnet

import (
	"encoding/binary"
	"math/bits"

	"dnstime/internal/ipv4"
)

// hostTable maps addresses to attached hosts: an open-addressing hash
// table keyed by the 32-bit address. Its slots are a power of two in
// number and at most half full; a multiplicative hash picks an address's
// home slot from the top bits of a 64-bit product, a lookup probes
// linearly from there to the address or an empty slot, and a removal
// shifts the rest of its probe run back, so no tombstone is ever left.
// Every packet the network sends is looked up here by its destination.
type hostTable struct {
	slots []hostSlot
	n     int  // occupied slots
	shift uint // 64 − log₂ len(slots): the product's bits that are dropped
}

// hostSlot is one slot of a hostTable; a nil host marks it empty.
type hostSlot struct {
	key  uint32
	host *Host
}

// minHostSlots is the size of a new network's table.
const minHostSlots = 16

func hostKey(a ipv4.Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// home returns the slot key's probe starts at.
func (t *hostTable) home(key uint32) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding key, or the empty slot its probe ends at.
func (t *hostTable) find(key uint32) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for s := &t.slots[i]; s.host != nil && s.key != key; s = &t.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// get returns the host attached at a, or nil.
func (t *hostTable) get(a ipv4.Addr) *Host { return t.slots[t.find(hostKey(a))].host }

// put attaches h at its address, where no host may be attached.
func (t *hostTable) put(h *Host) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	key := hostKey(h.addr)
	t.slots[t.find(key)] = hostSlot{key: key, host: h}
	t.n++
}

// resize rehashes every host into size slots, a power of two.
func (t *hostTable) resize(size int) {
	old := t.slots
	t.slots = make([]hostSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.host != nil {
			t.slots[t.find(s.key)] = s
		}
	}
}

// remove detaches and returns the host at a, or returns nil when none is
// attached there. Each later slot of the probe run whose host may live in
// the emptied slot (its home lies cyclically at or before it) moves back
// into it, and the slot it leaves is emptied in turn.
func (t *hostTable) remove(a ipv4.Addr) *Host {
	i := t.find(hostKey(a))
	h := t.slots[i].host
	if h == nil {
		return nil
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].host != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = hostSlot{}
	t.n--
	return h
}
