package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/diskstore"
	"repro/internal/runner"
	"repro/internal/trace"
)

// tieredStore composes the in-memory sharded LRU with the optional disk
// tier and the optional cluster peer fetch, behind the same runner.Store
// contract the handlers already use. Lookup order on a memory miss:
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

// Do implements runner.Store.
func (t *tieredStore) Do(key string, fn func() (any, error)) (any, error) {
	if kindOf(key) != "art" || (t.disk == nil && t.fetchPeer == nil) {
		return t.mem.Do(key, fn)
	}
	return t.mem.Do(key, func() (any, error) {
		if t.disk != nil {
			if art, ok := t.loadDisk(key); ok {
				return art, nil
			}
		}
		if t.fetchPeer != nil {
			if raw, ok := t.fetchPeer(key); ok {
				if art, err := decodeArtifact(raw, nil); err == nil {
					if t.disk != nil {
						_ = t.disk.Put(key, raw)
					}
					return art, nil
				}
			}
		}
		v, err := fn()
		if art, ok := v.(*artifact); ok && err == nil && t.disk != nil {
			// A failed write is counted by the disk store and otherwise
			// ignored: the artifact is already in memory.
			_ = t.disk.Put(key, encodeArtifact(art))
		}
		return v, err
	})
}

// kindOf is the namespace prefix of a content key ("art", "prof", ...).
func kindOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return ""
}

// loadDisk opens an artifact's disk entry. A payload that no longer
// decodes (format drift between releases) is just a miss; the recomputed
// value overwrites it.
func (t *tieredStore) loadDisk(key string) (*artifact, bool) {
	m, ok := t.disk.Map(key)
	if !ok {
		return nil, false
	}
	art, err := decodeArtifact(m.Data, m)
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
	if t.disk == nil || kindOf(key) != "art" {
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
	buf := make([]byte, 0, 64+a.slab.EncodedBytes())
	buf = binary.AppendUvarint(buf, a.branches)
	buf = binary.AppendUvarint(buf, a.steps)
	buf = binary.AppendUvarint(buf, a.checksum)
	if a.truncated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	w := bytes.NewBuffer(buf)
	a.slab.WriteTo(w) // a bytes.Buffer never fails a write
	return binary.LittleEndian.AppendUint32(w.Bytes(), crc32.ChecksumIEEE(w.Bytes()))
}

// decodeArtifact opens an encoded artifact. The stream goes through
// trace.AdoptStream, the validating pass uploads take, so a payload that
// would panic on replay is an error here, never a slab; the slab's event
// bytes alias data. When data is a mapping, pin keeps it alive for the
// artifact's lifetime; pass nil for plain in-memory bytes.
func decodeArtifact(data []byte, pin *diskstore.Mapped) (*artifact, error) {
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
	a.branches, a.steps, a.checksum = vals[0], vals[1], vals[2]
	a.truncated = body[i] == 1
	slab, err := trace.AdoptStream(body[i+1:], trace.Limits{}, nil)
	if err != nil {
		return nil, err
	}
	a.slab = slab
	return a, nil
}
