package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"time"
)

// Digest is an enabled Tracer that folds every event and span into one
// SHA-256: a record kind byte, the virtual UnixNano of the event (of both
// ends for a span), then category, name and detail, each prefixed by its
// length. Two runs have equal digests exactly when they emit the same
// events, in the same order, at the same virtual times.
type Digest struct {
	// Events and Spans count the records hashed.
	Events, Spans int64

	h   hash.Hash
	buf []byte
}

// NewDigest returns a Digest over an empty trace.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Enabled always reports true: the lab emits its events to a Digest.
func (*Digest) Enabled() bool { return true }

// Event hashes an instant event.
func (d *Digest) Event(at time.Time, cat, name, detail string) {
	d.Events++
	b := append(d.buf[:0], 'e')
	b = binary.BigEndian.AppendUint64(b, uint64(at.UnixNano()))
	d.write(b, cat, name, detail)
}

// Span hashes a completed interval.
func (d *Digest) Span(from, to time.Time, cat, name, detail string) {
	d.Spans++
	b := append(d.buf[:0], 's')
	b = binary.BigEndian.AppendUint64(b, uint64(from.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(to.UnixNano()))
	d.write(b, cat, name, detail)
}

func (d *Digest) write(b []byte, fields ...string) {
	for _, s := range fields {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	d.h.Write(b)
	d.buf = b
}

// Sum returns the hex SHA-256 of the trace so far.
func (d *Digest) Sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
