package trace

import (
	"errors"
	"fmt"
	"io"
)

// ErrTooLarge is returned (wrapped) when a decoded trace exceeds its
// Limits. Callers distinguish it from corruption with errors.Is.
var ErrTooLarge = errors.New("trace: stream exceeds size limit")

// errShort marks a stream that ends inside a code or before its footer.
// AdoptStream reports it as ErrTooLarge when the byte cap cut the stream.
var errShort = errors.New("trace: truncated stream")

// Limits bounds decoded branch traces. Both the daemon's upload path and
// the file loaders enforce them, so a hostile or truncated BLTRACE1 stream
// cannot balloon into unbounded memory: the run-length encoding can claim
// 2^60 events in a handful of bytes, and only an event cap stops a decoder
// from faithfully materialising them.
type Limits struct {
	// MaxEvents bounds decoded events (0 = unlimited).
	MaxEvents uint64
	// MaxSites rejects any event whose site ID is >= MaxSites (0 = no cap
	// beyond the int32 encoding range). Consumers size per-site tables
	// from the largest site they see, so without this cap a few-byte
	// stream naming site 2^31-1 makes the *consumer* allocate gigabytes
	// even though the decoder itself stays small.
	MaxSites int32
	// MaxBytes bounds encoded input bytes, header and footer included
	// (0 = unlimited). AdoptStream reads at most MaxBytes bytes, and a
	// stream whose footer does not end within them is refused with
	// ErrTooLarge.
	MaxBytes int64
}

// DefaultLimits is what the file loaders use: 64M events / 1M sites /
// 256 MiB input, far above any trace this repository produces (the paper's
// largest traces are 100M branches; ours default to 2M) but small enough
// to fail fast on garbage.
func DefaultLimits() Limits {
	return Limits{MaxEvents: 1 << 26, MaxSites: 1 << 20, MaxBytes: 1 << 28}
}

// ReadSlab reads a BLTRACE1 stream under lim and returns it as a sealed
// slab — the file loaders' path. It reads at most lim.MaxBytes bytes of
// the stream and hands them to AdoptStream: the wire encoding is the slab
// encoding, so nothing is re-encoded. Bytes after the footer are ignored.
func ReadSlab(r io.Reader, lim Limits) (*Slab, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return AdoptStream(data, lim, nil)
}

// AdoptStream validates the BLTRACE1 stream at the start of data in one
// pass under lim and returns a sealed slab whose buffer is data's event
// bytes, not a copy: the caller must keep data immutable and alive for as
// long as the slab is used (a *diskstore.Mapped does both, so a mapped
// file replays straight from the page cache). Bytes after the footer are
// ignored. Every check is a byte load, so data may sit at any alignment.
// Only the first lim.MaxBytes bytes are read (0 = all of them); a stream
// whose footer does not end within them is ErrTooLarge.
//
// A non-nil c is fed from the same pass, so an upload is decoded exactly
// once: c receives each step as it is validated, with the calls a later
// s.ReplayInto(c) makes, since both drain the same batches. When the
// stream is refused, c has seen some prefix of it and its state means
// nothing. A consumer that folds batches itself pulls them through Adopt.
func AdoptStream(data []byte, lim Limits, c Collector) (*Slab, error) {
	a := Adopt(data, lim)
	a.Steps.drain(c)
	return a.Slab()
}

// Adoption is AdoptStream as a pull: its Steps are the validating pass
// over the stream's events, and Slab gives the verdict once they are read.
type Adoption struct {
	Steps
	// capped is set when data reached lim.MaxBytes and was cut there.
	capped   bool
	maxBytes int64
}

// Adopt starts adopting the BLTRACE1 stream at the start of data under
// lim (see AdoptStream). A stream whose header is wrong yields no steps,
// and Slab refuses it.
func Adopt(data []byte, lim Limits) Adoption {
	a := Adoption{maxBytes: lim.MaxBytes}
	if a.capped = lim.MaxBytes > 0 && int64(len(data)) >= lim.MaxBytes; a.capped {
		data = data[:lim.MaxBytes]
	}
	switch {
	case len(data) < len(magic):
		a.done, a.err = true, fmt.Errorf("trace: reading header: %w", errShort)
	case string(data[:len(magic)]) != magic:
		a.done, a.err = true, fmt.Errorf("trace: bad magic %q", data[:len(magic)])
	default:
		a.Steps = newSteps(data[len(magic):], lim)
	}
	return a
}

// Slab reads whatever steps are left and returns the stream as a sealed
// slab, or the reason it is refused: a step the pass refused, a missing
// footer, or a footer count that differs from the events decoded. A
// stream cut short by the byte cap is ErrTooLarge.
func (a *Adoption) Slab() (*Slab, error) {
	a.Steps.drain(nil)
	s, err := a.verdict()
	if a.capped && errors.Is(err, errShort) {
		return nil, fmt.Errorf("trace: stream runs past %d input bytes: %w", a.maxBytes, ErrTooLarge)
	}
	return s, err
}

// verdict is Slab's answer before the byte cap is taken into account.
func (a *Adoption) verdict() (*Slab, error) {
	if a.err != nil {
		return nil, a.err
	}
	body := a.d.buf
	if a.end == len(body) {
		return nil, fmt.Errorf("trace: no footer after %d events: %w", a.n, errShort)
	}
	total, _, err := uvarintField(body, a.count, "footer count")
	if err != nil {
		return nil, err
	}
	if total != a.n {
		return nil, fmt.Errorf("trace: footer count %d != decoded %d", total, a.n)
	}
	return &Slab{buf: body[:a.end:a.end], n: a.n, sealed: true}, nil
}
