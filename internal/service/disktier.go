package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/diskstore"
	"repro/internal/ir"
	"repro/internal/runner"
	"repro/internal/trace"
)

// tieredStore is the service's content store: the in-memory sharded LRU,
// which holds every key and which the handlers cache through directly,
// and, for trace artifacts only (artifact), the optional disk tier and the
// optional cluster peer fetch. Lookup order of an artifact on a memory
// miss:
//
//  1. disk — artifacts the memory tier evicted, or a previous process
//     wrote (the restart-warm path);
//  2. a healthy peer that owns the key (artifacts only) — a node serving
//     keys outside its ring range, e.g. while degraded, fetches the
//     bytes instead of re-recording;
//  3. the population function, whose product is written back to disk.
//
// All three run inside the memory tier's single-flight slot, so a
// stampede on a cold key still does the disk read, peer fetch, or
// recording exactly once. Only trace artifacts ("art") are persisted:
// everything else is derived from them or from the request. Profiles
// ("prof") are a fold of an artifact's slab, so a restarted node refolds
// them from the persisted slab — a replay, not a re-recording. Compiled
// programs ("prog") recompile cheaply; answers ("resp") are bytes in
// today's response format, which a persisted copy could outlive across a
// release, and are recomputed from the persisted data instead.
type tieredStore struct {
	mem  *runner.Sharded
	disk *diskstore.Store
	// fetchPeer asks the cluster for the raw disk payload of an artifact
	// key (nil when clustering is off). It returns false on any failure;
	// the store falls through to computing locally.
	fetchPeer func(key string) ([]byte, bool)
}

// artifact caches the artifact under key, of a program whose recordings
// outcomes bounds (outcomeBounds), in the memory tier: on a memory miss it
// opens the disk entry, then asks a peer, and only then records. A payload
// that does not decode or does not fit the program is a miss; a recomputed
// artifact overwrites its disk entry.
func (t *tieredStore) artifact(key string, outcomes []int32, record func() (*artifact, error)) (*artifact, error) {
	if t.disk == nil && t.fetchPeer == nil {
		return runner.Cached(t.mem, key, record)
	}
	return runner.Cached(t.mem, key, func() (*artifact, error) {
		if t.disk != nil {
			if art, ok := t.loadDisk(key, outcomes); ok {
				return art, nil
			}
		}
		if t.fetchPeer != nil {
			if raw, ok := t.fetchPeer(key); ok {
				if art, err := decodeArtifact(raw, nil, outcomes); err == nil {
					if t.disk != nil {
						_ = t.disk.Put(key, raw)
					}
					return art, nil
				}
			}
		}
		art, err := record()
		if err == nil && t.disk != nil {
			// A failed write is counted by the disk store and otherwise
			// ignored: the artifact is already in memory.
			_ = t.disk.Put(key, encodeArtifact(art))
		}
		return art, err
	})
}

// loadDisk opens an artifact's disk entry. A payload that no longer
// decodes (format drift between releases) or does not fit the program is
// just a miss; the recomputed value overwrites it.
func (t *tieredStore) loadDisk(key string, outcomes []int32) (*artifact, bool) {
	m, ok := t.disk.Map(key)
	if !ok {
		return nil, false
	}
	art, err := decodeArtifact(m.Data, m, outcomes)
	if err != nil {
		m.Close()
		return nil, false
	}
	return art, true
}

// artifactPayload reads the raw disk payload of an artifact key, for
// serving to peers. The bytes go over the wire exactly as stored; the
// peer's decodeArtifact re-validates them.
func (t *tieredStore) artifactPayload(key string) ([]byte, bool) {
	if t.disk == nil || !strings.HasPrefix(key, "art/") {
		return nil, false
	}
	return t.disk.Load(key)
}

// encodeArtifact lays out an artifact's disk and peer payload: the run
// counters (uvarint branches, steps and checksum, then one truncated
// byte), the slab's BLTRACE1 stream as Slab.WriteTo writes it, and an IEEE
// CRC-32 of everything before it, little-endian. The disk store checks
// its own CRC on every read; this one keeps a payload fetched from a peer
// checked end to end too.
func encodeArtifact(a *artifact) []byte {
	buf := make([]byte, 0, 64+a.Slab.EncodedBytes())
	buf = binary.AppendUvarint(buf, a.Branches)
	buf = binary.AppendUvarint(buf, a.Steps)
	buf = binary.AppendUvarint(buf, a.Checksum)
	if a.Truncated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	w := bytes.NewBuffer(buf)
	a.Slab.WriteTo(w) // a bytes.Buffer never fails a write
	return binary.LittleEndian.AppendUint32(w.Bytes(), crc32.ChecksumIEEE(w.Bytes()))
}

// decodeArtifact opens an encoded artifact of a program whose recordings
// outcomes bounds (outcomeBounds). The stream goes through
// trace.AdoptStream, the validating pass uploads take, so a payload that
// would panic on replay, or whose events the program cannot produce, is
// an error here, never a slab; the slab's event bytes alias data. When
// data is a mapping, pin keeps it alive for the artifact's lifetime; pass
// nil for plain in-memory bytes.
func decodeArtifact(data []byte, pin *diskstore.Mapped, outcomes []int32) (*artifact, error) {
	if len(data) < crc32.Size {
		return nil, fmt.Errorf("service: truncated artifact")
	}
	body := data[:len(data)-crc32.Size]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("service: artifact crc mismatch %08x != %08x", got, want)
	}
	a := &artifact{pin: pin}
	var vals [3]uint64
	i := 0
	for k := range vals {
		v, n := binary.Uvarint(body[i:])
		if n <= 0 {
			return nil, fmt.Errorf("service: truncated artifact header")
		}
		vals[k] = v
		i += n
	}
	if i >= len(body) {
		return nil, fmt.Errorf("service: truncated artifact header")
	}
	a.Branches, a.Steps, a.Checksum = vals[0], vals[1], vals[2]
	a.Truncated = body[i] == 1
	fit := &fits{outcomes: outcomes}
	slab, err := trace.AdoptStream(body[i+1:], trace.Limits{}, fit)
	if err != nil {
		return nil, err
	}
	if fit.err != nil {
		return nil, fit.err
	}
	a.Slab = slab
	return a, nil
}

// outcomeBounds is, per branch site of prog (nsites of them), how many
// switch outcomes a recording of prog can name there: a switch's cases
// plus its default, none at a conditional branch. A stored artifact naming
// a site past the table or an outcome past its bound is not a recording
// of prog; replaying it would index past the profile's tables or grow a
// target row without bound.
func outcomeBounds(prog *ir.Program, nsites int) []int32 {
	b := make([]int32, nsites)
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			if t := &blk.Term; t.Op == ir.TermSwitch {
				b[t.Site] = int32(len(t.Targets)) + 1
			}
		}
	}
	return b
}

// fits is the collector of decodeArtifact's validating pass: it keeps the
// first event that the program cannot produce (see outcomeBounds).
type fits struct {
	outcomes []int32
	err      error
}

func (f *fits) RecordBranch(site int32, _ bool) { f.RecordRun(site, false, 1) }

func (f *fits) RecordRun(site int32, _ bool, _ uint64) {
	if int(site) >= len(f.outcomes) && f.err == nil {
		f.err = fmt.Errorf("service: artifact names site %d of a %d-site program", site, len(f.outcomes))
	}
}

func (f *fits) RecordSwitch(site, outcome int32) {
	switch {
	case f.err != nil:
	case int(site) >= len(f.outcomes):
		f.RecordRun(site, false, 1)
	case outcome >= f.outcomes[site]:
		f.err = fmt.Errorf("service: artifact names outcome %d at site %d, which has %d", outcome, site, f.outcomes[site])
	}
}

func (f *fits) RecordSwitchRun(site, outcome int32, _ uint64) { f.RecordSwitch(site, outcome) }
