package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// buildSlab records a deterministic pseudo-random event stream with enough
// events to cross several checkpoint boundaries.
func buildSlab(t testing.TB, seed int64, n int) *Slab {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSlab(n)
	site := int32(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			site = int32(rng.Intn(64))
		}
		// Biased outcomes produce genuine RLE runs.
		s.Record(site, rng.Intn(4) != 0)
	}
	s.Seal()
	return s
}

func TestSealedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3 * ckEvery} {
		orig := buildSlab(t, int64(n)+1, n)
		enc := orig.AppendSealed(nil)
		if len(enc) != orig.SealedSize() {
			t.Fatalf("n=%d: SealedSize %d != encoded %d", n, orig.SealedSize(), len(enc))
		}
		got, err := OpenSealed(enc)
		if err != nil {
			t.Fatalf("n=%d: OpenSealed: %v", n, err)
		}
		if got.Len() != orig.Len() {
			t.Fatalf("n=%d: Len %d != %d", n, got.Len(), orig.Len())
		}
		if !reflect.DeepEqual(got.Events(), orig.Events()) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
		if !reflect.DeepEqual(got.cks, orig.cks) && !(len(got.cks) == 0 && len(orig.cks) == 0) {
			t.Fatalf("n=%d: checkpoints differ: %v != %v", n, got.cks, orig.cks)
		}
	}
}

// TestSealedZeroCopy pins the zero-copy contract: the opened slab's event
// bytes alias the container, not a copy.
func TestSealedZeroCopy(t *testing.T) {
	orig := buildSlab(t, 7, 5000)
	enc := orig.AppendSealed(nil)
	got, err := OpenSealed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.buf) > 0 && &got.buf[0] != &enc[len(enc)-len(got.buf)-sealedCRCSize] {
		t.Fatal("OpenSealed copied the event bytes instead of aliasing the container")
	}
}

func TestSealedRejectsCorruption(t *testing.T) {
	orig := buildSlab(t, 3, 2000)
	enc := orig.AppendSealed(nil)

	// Truncations at every boundary-ish length must error, not panic.
	for _, cut := range []int{0, 4, len(sealedMagic), len(sealedMagic) + 1, len(enc) / 2, len(enc) - 1} {
		if _, err := OpenSealed(enc[:cut]); err == nil {
			t.Errorf("OpenSealed accepted a %d-byte truncation of %d bytes", cut, len(enc))
		}
	}
	// A flipped payload bit must fail the CRC.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-sealedCRCSize-10] ^= 0x40
	if _, err := OpenSealed(bad); err == nil {
		t.Error("OpenSealed accepted a corrupt payload")
	}
	// A bad magic must be refused.
	bad = append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := OpenSealed(bad); err == nil {
		t.Error("OpenSealed accepted a bad magic")
	}
}

// TestSealedRejectsBadEventBytes covers containers whose CRC is valid
// but whose event bytes or checkpoints are not what AppendSealed writes:
// each must be an error from OpenSealed, not a slab that panics or
// mis-splits on replay.
func TestSealedRejectsBadEventBytes(t *testing.T) {
	orig := buildSlab(t, 5, 3*ckEvery)
	if len(orig.cks) == 0 {
		t.Fatal("slab has no checkpoints; test is vacuous")
	}
	shifted := append([]slabCk(nil), orig.cks...)
	shifted[0].off++ // one byte into a code: inside it, or onto a run marker
	moved := append([]slabCk(nil), orig.cks...)
	moved[0].done++
	cases := []struct {
		name string
		s    *Slab
	}{
		{"truncated varint", &Slab{buf: []byte{0x03, 0x83}, n: 1}},
		{"truncated run", &Slab{buf: []byte{0x03, 0x01}, n: 1}},
		{"truncated switch escape", &Slab{buf: []byte{0x01, 0x00, 0x03}, n: 1}},
		{"run before any event", &Slab{buf: []byte{0x01, 0x05}, n: 5}},
		{"footer code inside", &Slab{buf: []byte{0x03, 0x00, 0x03}, n: 2}},
		{"site past int32", &Slab{buf: binary.AppendUvarint(nil, 1<<40), n: 1}},
		{"event count", &Slab{buf: orig.buf, n: orig.n + 1, cks: orig.cks}},
		{"checkpoint offset", &Slab{buf: orig.buf, n: orig.n, cks: shifted}},
		{"checkpoint count", &Slab{buf: orig.buf, n: orig.n, cks: moved}},
		{"missing checkpoints", &Slab{buf: orig.buf, n: orig.n}},
	}
	for _, c := range cases {
		c.s.sealed = true
		if _, err := OpenSealed(c.s.AppendSealed(nil)); err == nil {
			t.Errorf("%s: OpenSealed accepted the container", c.name)
		}
	}
}

// fixCRC recomputes the trailing CRC of a BLSLAB01 container in place when
// its header parses far enough to locate the event bytes, so mutations
// reach the checks behind the CRC.
func fixCRC(data []byte) {
	i := len(sealedMagic)
	if len(data) < i {
		return
	}
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(data[i:])
		i += k
		return v, k > 0
	}
	if _, ok := next(); !ok {
		return
	}
	nck, ok := next()
	if !ok || nck > uint64(len(data)) {
		return
	}
	for k := uint64(0); k < 2*nck; k++ {
		if _, ok := next(); !ok {
			return
		}
	}
	blen, ok := next()
	if !ok || uint64(len(data)-i) < blen+sealedCRCSize {
		return
	}
	end := i + int(blen)
	binary.LittleEndian.PutUint32(data[end:], crc32.ChecksumIEEE(data[i:end]))
}

// FuzzOpenSealed mutates BLSLAB01 containers, recomputing the CRC so the
// mutations reach the event bytes and checkpoints. OpenSealed must never
// panic, and every container it accepts must replay cleanly: runs summing
// to its length, the same counts whole and partitioned, and AppendSealed
// writing it back as a container that reopens to the same slab.
func FuzzOpenSealed(f *testing.F) {
	f.Add(buildSlab(f, 1, 0).AppendSealed(nil))
	f.Add(buildSlab(f, 2, 100).AppendSealed(nil))
	// Long runs keep the seeds small while passing the partition
	// threshold, so the mutations reach checkpoints and split replays.
	long := NewSlab(0)
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			long.RecordSwitchRun(int32(i%4), int32(i%3), 4000)
		} else {
			long.RecordRun(int32(i%5), i%2 == 0, 4000)
		}
	}
	long.Seal()
	f.Add(long.AppendSealed(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		fixCRC(data)
		s, err := OpenSealed(data)
		if err != nil {
			return
		}
		var events uint64
		count := func(n uint64) {
			if events += n; events < n {
				t.Fatal("replayed event count overflows")
			}
		}
		replayBytes(s.buf, func(int32, bool) { count(1) }, func(_ int32, _ bool, n uint64) { count(n) },
			func(int32, int32) { count(1) }, func(_, _ int32, n uint64) { count(n) })
		if events != s.Len() {
			t.Fatalf("replayed %d events, container holds %d", events, s.Len())
		}
		var max, pmax MaxSite
		s.ReplayInto(&max)
		s.ReplayPartitioned(4, &pmax)
		if max != pmax {
			t.Fatalf("partitioned MaxSite %d != %d", pmax.N, max.N)
		}
		if max.N <= 1<<16 {
			whole, parts := NewCounts(max.N), NewCounts(max.N)
			s.ReplayInto(whole)
			s.ReplayPartitioned(4, parts)
			if !reflect.DeepEqual(whole, parts) {
				t.Fatal("partitioned counts differ from the single pass")
			}
		}
		s2, err := OpenSealed(s.AppendSealed(nil))
		if err != nil {
			t.Fatalf("accepted container does not reopen once written back: %v", err)
		}
		if s2.Len() != s.Len() || !bytes.Equal(s2.buf, s.buf) || !reflect.DeepEqual(s2.cks, s.cks) {
			t.Fatal("written-back container reopens as a different slab")
		}
	})
}
