package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// sealedMagic heads the sealed-slab container: the varint+RLE event bytes
// of a sealed Slab plus its replay checkpoints, in a form that can be
// handed back to OpenSealed without re-encoding. The trailing digits
// version the layout; a reader seeing an unknown magic must refuse rather
// than guess.
const sealedMagic = "BLSLAB01"

// sealedCRCSize is the trailing IEEE CRC-32 of the event bytes.
const sealedCRCSize = 4

// Layout after the magic:
//
//	uvarint n            total event count
//	uvarint len(cks)     checkpoint count
//	len(cks) × { uvarint off, uvarint done }
//	uvarint len(buf)     encoded event bytes
//	buf                  the varint+RLE event stream
//	crc32(buf)           4 bytes little-endian, IEEE polynomial
//
// Everything is byte-oriented — varints and raw bytes — so a reader may
// alias the container at any alignment: OpenSealed over the disk tier's
// mapped file never copies the event stream.

// SealedSize returns the encoded size of the sealed container.
func (s *Slab) SealedSize() int {
	s.mustSealed("SealedSize")
	n := len(sealedMagic)
	n += uvarintLen(s.n)
	n += uvarintLen(uint64(len(s.cks)))
	for _, ck := range s.cks {
		n += uvarintLen(uint64(ck.off)) + uvarintLen(ck.done)
	}
	n += uvarintLen(uint64(len(s.buf)))
	n += len(s.buf)
	n += sealedCRCSize
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendSealed appends the sealed-slab container to dst and returns the
// extended slice. The slab must be sealed.
func (s *Slab) AppendSealed(dst []byte) []byte {
	s.mustSealed("AppendSealed")
	dst = append(dst, sealedMagic...)
	dst = binary.AppendUvarint(dst, s.n)
	dst = binary.AppendUvarint(dst, uint64(len(s.cks)))
	for _, ck := range s.cks {
		dst = binary.AppendUvarint(dst, uint64(ck.off))
		dst = binary.AppendUvarint(dst, ck.done)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.buf)))
	dst = append(dst, s.buf...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(s.buf))
	return dst
}

// OpenSealed reconstructs a sealed Slab from a container produced by
// AppendSealed, aliasing the event bytes in data — the zero-copy open path
// of the disk tier and of artifacts fetched from peers. The caller must
// keep data immutable and alive for as long as the slab is used (a
// *diskstore.Mapped does both). The CRC only proves the bytes are the ones
// written, so the event bytes also go through ReadSlab's validating pass,
// and the stored event count and checkpoints must equal the ones it
// recomputes: a container that would panic or mis-split a replay is an
// error here, never a slab. The decode is alignment-safe: only byte loads
// touch data.
func OpenSealed(data []byte) (*Slab, error) {
	if len(data) < len(sealedMagic) || string(data[:len(sealedMagic)]) != sealedMagic {
		return nil, fmt.Errorf("trace: sealed slab: bad magic")
	}
	i := len(sealedMagic)
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(data[i:])
		if k <= 0 {
			return 0, fmt.Errorf("trace: sealed slab: truncated %s at byte %d", what, i)
		}
		i += k
		return v, nil
	}
	n, err := next("event count")
	if err != nil {
		return nil, err
	}
	nck, err := next("checkpoint count")
	if err != nil {
		return nil, err
	}
	// A checkpoint costs ≥2 bytes encoded, so nck is bounded by the input;
	// reject absurd counts before allocating.
	if nck > uint64(len(data))/2 {
		return nil, fmt.Errorf("trace: sealed slab: checkpoint count %d exceeds input", nck)
	}
	stored := make([]slabCk, nck)
	for k := range stored {
		off, err := next("checkpoint offset")
		if err != nil {
			return nil, err
		}
		done, err := next("checkpoint count")
		if err != nil {
			return nil, err
		}
		stored[k] = slabCk{off: int(off), done: done}
	}
	blen, err := next("event bytes length")
	if err != nil {
		return nil, err
	}
	if uint64(len(data)-i) < blen+sealedCRCSize {
		return nil, fmt.Errorf("trace: sealed slab: %d event bytes claimed, %d available", blen, len(data)-i)
	}
	buf := data[i : i+int(blen) : i+int(blen)]
	i += int(blen)
	want := binary.LittleEndian.Uint32(data[i:])
	if got := crc32.ChecksumIEEE(buf); got != want {
		return nil, fmt.Errorf("trace: sealed slab: crc mismatch %08x != %08x", got, want)
	}
	sc, err := scanEvents(buf, Limits{}, nil)
	if err != nil {
		return nil, fmt.Errorf("trace: sealed slab: %w", err)
	}
	if sc.end != len(buf) {
		return nil, fmt.Errorf("trace: sealed slab: footer code at byte %d", sc.end)
	}
	if sc.n != n {
		return nil, fmt.Errorf("trace: sealed slab: %d events stored, %d decoded", n, sc.n)
	}
	if !slices.Equal(stored, sc.cks) {
		return nil, fmt.Errorf("trace: sealed slab: stored checkpoints differ from the event bytes")
	}
	return &Slab{buf: buf, n: n, sealed: true, cks: sc.cks}, nil
}
