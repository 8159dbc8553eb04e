package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrTooLarge is returned (wrapped) when a decoded trace exceeds its
// Limits. Callers distinguish it from corruption with errors.Is.
var ErrTooLarge = errors.New("trace: stream exceeds size limit")

// errShort marks a stream that ends inside a code or before its footer.
// ReadSlab reports it as ErrTooLarge when the byte cap cut the stream.
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
	// (0 = unlimited). ReadSlab reads at most MaxBytes bytes, and a stream
	// whose footer does not end within them is refused with ErrTooLarge.
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
// slab — the daemon's upload path and the file loaders. One validating
// pass (scanEvents) checks the event bytes and places the replay
// checkpoints, and the slab then adopts the bytes as its buffer: the wire
// encoding is the slab encoding, so nothing is re-encoded. Bytes after the
// footer are ignored.
func ReadSlab(r io.Reader, lim Limits) (*Slab, error) {
	if lim.MaxBytes > 0 {
		r = io.LimitReader(r, lim.MaxBytes)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	capped := lim.MaxBytes > 0 && int64(len(data)) == lim.MaxBytes
	s, err := adoptStream(data, lim)
	if capped && errors.Is(err, errShort) {
		return nil, fmt.Errorf("trace: stream runs past %d input bytes: %w", lim.MaxBytes, ErrTooLarge)
	}
	return s, err
}

// adoptStream validates a whole BLTRACE1 stream and wraps its event bytes
// in a sealed slab without copying them.
func adoptStream(data []byte, lim Limits) (*Slab, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("trace: reading header: %w", errShort)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", data[:len(magic)])
	}
	body := data[len(magic):]
	sc, err := scanEvents(body, lim)
	if err != nil {
		return nil, err
	}
	if sc.end == len(body) {
		return nil, fmt.Errorf("trace: no footer after %d events: %w", sc.n, errShort)
	}
	total, _, err := uvarintField(body, sc.count, "footer count")
	if err != nil {
		return nil, err
	}
	if total != sc.n {
		return nil, fmt.Errorf("trace: footer count %d != decoded %d", total, sc.n)
	}
	return &Slab{buf: body[:sc.end:sc.end], n: sc.n, sealed: true, cks: sc.cks}, nil
}

// scan is what one validating pass learns about an event stream.
type scan struct {
	// end is the offset of the footer code (uvarint 0), or len(buf) when
	// the bytes hold no footer; the footer's count starts at count.
	end, count int
	n          uint64
	cks        []slabCk
}

// scanEvents is the single validating pass behind ReadSlab and OpenSealed.
// It walks the event codes of buf up to the footer code or the end of buf
// and checks that every uvarint is complete, no run marker comes before
// the first event, switch escapes are complete, sites and outcomes fit in
// int32, no site reaches lim.MaxSites, and the event count stays within
// lim.MaxEvents. The count is checked at each run marker and once at the
// end, not per event: it only grows, so a count past the cap at the end —
// even one cut short by corruption — is exactly the stream an
// event-at-a-time decoder would have refused as too large first. The pass
// also records the replay checkpoints exactly where Slab.Record places
// them: before a plain code or a switch escape, once ckEvery events have
// passed since the last one.
func scanEvents(buf []byte, lim Limits) (scan, error) {
	maxEvents := lim.MaxEvents
	if maxEvents == 0 {
		maxEvents = math.MaxUint64
	}
	var n, lastCk uint64
	var cks []slabCk
	var err error
	i, end, count, seen := 0, len(buf), len(buf), false
codes:
	for i < len(buf) {
		start := i
		code := uint64(buf[i])
		if code < 0x80 {
			i++
		} else if code, i, err = uvarintField(buf, i, "event code"); err != nil {
			break
		}
		var site uint64
		switch code {
		case 0:
			end, count = start, i
			break codes
		case 1:
			var run, sc, oc uint64
			if run, i, err = uvarintField(buf, i, "run"); err != nil {
				break codes
			}
			if run > 0 {
				switch {
				case !seen:
					err = errors.New("trace: run marker before any event")
					break codes
				case n > maxEvents || run > maxEvents-n:
					err = fmt.Errorf("trace: run of %d after %d events: %w", run, n, ErrTooLarge)
					break codes
				}
				n += run
				continue
			}
			if sc, i, err = uvarintField(buf, i, "switch site"); err != nil {
				break codes
			}
			if site = sc - 1; sc == 0 || site > math.MaxInt32 {
				err = fmt.Errorf("trace: switch site code %d out of range", sc)
				break codes
			}
			if oc, i, err = uvarintField(buf, i, "switch outcome"); err != nil {
				break codes
			}
			if oc > math.MaxInt32 {
				err = fmt.Errorf("trace: switch outcome %d overflows int32", oc)
				break codes
			}
		default:
			if site = code>>1 - 1; site > math.MaxInt32 {
				err = fmt.Errorf("trace: site %d in code %d overflows int32", site, code)
				break codes
			}
		}
		if lim.MaxSites > 0 && site >= uint64(lim.MaxSites) {
			err = fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", site, lim.MaxSites, ErrTooLarge)
			break
		}
		// A plain code or a complete switch escape: one event.
		if n-lastCk >= ckEvery {
			cks = append(cks, slabCk{off: start, done: n})
			lastCk = n
		}
		n++
		seen = true
	}
	if n > maxEvents {
		return scan{}, fmt.Errorf("trace: %d events: %w", n, ErrTooLarge)
	}
	return scan{end: end, count: count, n: n, cks: cks}, err
}

// uvarintField decodes the uvarint at buf[i:], returning the offset after
// it. A value past 64 bits is corruption; one cut off by the end of buf is
// errShort (ten continuation bytes already overflow, whatever follows).
func uvarintField(buf []byte, i int, what string) (uint64, int, error) {
	v, k := binary.Uvarint(buf[i:])
	if k > 0 {
		return v, i + k, nil
	}
	err := errShort
	if k < 0 || len(buf)-i >= binary.MaxVarintLen64 {
		err = errors.New("uvarint overflows 64 bits")
	}
	return 0, i, fmt.Errorf("trace: %s at byte %d: %w", what, i, err)
}
