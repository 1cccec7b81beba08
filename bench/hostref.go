package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"syscall"
	"time"
)

// The host the benchmark runs on is shared: its speed drifts by 20–40%
// over tens of seconds, for every program on it at once, and even a
// register-only loop averaged over 10 s spreads 18% between runs. A wall
// time of the program alone therefore cannot tell a 10–20% change from
// the drift. hostRef measures the drift with a fixed reference kernel,
// sampled between the timed campaigns (or serve segments) of a run; the
// end-to-end times are scaled by the ratio of the run's median sample to
// refNominal, which turns them into times on a host of fixed speed.
//
// The kernel is the benchmark's own code, so no change to the program can
// change its time, and it allocates nothing. Its four parts take about
// the same time each: a dependent walk over a 256 KiB table, random
// updates over 1 MiB, a sort of 16k integers and SHA-256 over both
// tables. Of seven kernels sampled beside the campaign workloads for
// 13 minutes, no part alone tracked the program's speed: the hash moved
// about half as much as the program, the walk 0.8×, the updates and the
// sort 1.4×. Their sum tracked it best, and cut the spread of 10 s
// throughput windows from 11–20% to 4–7%. The tables are mapped outside
// the Go heap, so they do not change the collector's pacing of the
// program.
type hostRef struct {
	walk, upd []byte // mapped: 256 KiB, then 1 MiB
	mem       []byte // the whole mapping
	sortSrc   []uint32
	sortBuf   []uint32
	samples   []time.Duration
}

// refNominal is the reference sample's time on the host of fixed speed
// the scaled metrics describe: about its median on the 2-core VM the
// committed results come from.
const refNominal = 5 * time.Millisecond

const (
	refWalkLen = 64 << 10 // uint32 entries: 256 KiB
	refWalk    = 140_000
	refUpdLen  = 1 << 20
	refUpd     = 500_000
	refSortLen = 16 << 10
	// setupRefSamples are taken just after set-up, to scale setup_s.
	setupRefSamples = 7
)

// newHostRef maps the tables and fills them from a fixed seed, so every
// run samples the same kernel. The walk table holds one random cycle
// through every entry (Sattolo's algorithm).
func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, 4*refWalkLen+refUpdLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	h := &hostRef{
		mem: mem, walk: mem[:4*refWalkLen], upd: mem[4*refWalkLen:],
		sortSrc: make([]uint32, refSortLen), sortBuf: make([]uint32, refSortLen),
	}
	for i := 0; i < refWalkLen; i++ {
		h.put(i, uint32(i))
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := refWalkLen - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		vi, vj := h.at(uint32(i)), h.at(uint32(j))
		h.put(i, vj)
		h.put(j, vi)
	}
	for i := range h.sortSrc {
		h.sortSrc[i] = uint32(next())
	}
	return h, nil
}

func (h *hostRef) at(i uint32) uint32  { return binary.LittleEndian.Uint32(h.walk[4*i:]) }
func (h *hostRef) put(i int, v uint32) { binary.LittleEndian.PutUint32(h.walk[4*i:], v) }

// close unmaps the tables; a nil *hostRef has nothing to release.
func (h *hostRef) close() {
	if h != nil {
		_ = syscall.Munmap(h.mem) // the mapping is private and anonymous: nothing to flush
	}
}

// sample runs the kernel once and records its time. A nil *hostRef
// records nothing, so passes whose times are not scaled pass nil.
func (h *hostRef) sample() {
	if h == nil {
		return
	}
	start := time.Now()
	j := uint32(start.UnixNano()) % refWalkLen
	for i := 0; i < refWalk; i++ {
		j = h.at(j)
	}
	x := uint64(j) | 1
	for i := 0; i < refUpd; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.upd[(x>>33)%refUpdLen] += byte(i)
	}
	copy(h.sortBuf, h.sortSrc)
	slices.Sort(h.sortBuf)
	sum := sha256.Sum256(h.mem)
	sink.Add(uint64(h.sortBuf[0]) + uint64(sum[0]))
	h.samples = append(h.samples, time.Since(start))
}

// slowdown is the run's median sample over refNominal: above 1 on a host
// slower than the nominal one. Throughputs are multiplied by it and times
// divided by it.
func (h *hostRef) slowdown() float64 {
	secs := make([]float64, len(h.samples))
	for i, d := range h.samples {
		secs[i] = d.Seconds()
	}
	return median(secs) / refNominal.Seconds()
}
