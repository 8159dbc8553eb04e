package service

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/diskstore"
	"repro/internal/trace"
)

// corruptArtifact is an artifact payload whose sealed slab passes the
// container CRC but whose event bytes end inside a varint: a slab built
// from it would panic on its first replay.
func corruptArtifact() []byte {
	events := []byte{0x03, 0x83}        // one event, then a code cut off mid-varint
	raw := binary.AppendUvarint(nil, 2) // branches
	raw = binary.AppendUvarint(raw, 10) // steps
	raw = binary.AppendUvarint(raw, 0)  // checksum
	raw = append(raw, 0)                // not truncated
	raw = append(raw, "BLSLAB01"...)    // container magic
	raw = binary.AppendUvarint(raw, 2)  // event count
	raw = binary.AppendUvarint(raw, 0)  // no checkpoints
	raw = binary.AppendUvarint(raw, uint64(len(events)))
	raw = append(raw, events...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(events))
}

// TestDiskTierCorruptSlabIsMiss restarts a server over a disk entry whose
// slab container has a valid CRC but broken event bytes: the disk tier
// must treat it as a miss and record again, answering exactly as the
// first server did rather than failing the request.
func TestDiskTierCorruptSlabIsMiss(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		// corruptArtifact is in the layout of an older release (a BLSLAB01
		// container after the run counters), so an entry such a release
		// wrote is a miss too.
		{"older layout", corruptArtifact()},
		{"stream cut mid-varint", corruptStreamArtifact()},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			const body = `{"workload":"cc","budget":5000,"strategy":"twobit"}`
			s1, ts1 := newTestServer(t, Config{DiskDir: dir})
			code, cold := postJSON(t, ts1.URL+"/v1/score", body, nil)
			if code != http.StatusOK {
				t.Fatalf("cold score: status %d: %s", code, cold)
			}
			key := RouteKey(&Request{Workload: "cc", Budget: 5000}, 0)
			if _, ok := s1.store.disk.Load(key); !ok {
				t.Fatalf("artifact %q not on disk; test is vacuous", key)
			}
			if err := s1.store.disk.Put(key, c.payload); err != nil {
				t.Fatal(err)
			}
			ts1.Close()

			s2, ts2 := newTestServer(t, Config{DiskDir: dir})
			code, warm := postJSON(t, ts2.URL+"/v1/score", body, nil)
			if code != http.StatusOK {
				t.Fatalf("score over a corrupt disk slab: status %d: %s", code, warm)
			}
			if !bytes.Equal(warm, cold) {
				t.Fatalf("recomputed answer differs:\ncold: %s\nwarm: %s", cold, warm)
			}
			if recs := s2.Engine().Stats().TraceRecords; recs != 1 {
				t.Fatalf("server recorded %d traces, want 1 (the corrupt entry is a miss)", recs)
			}
		})
	}
}

// TestPeerFetchCorruptSlabIsMiss has the ring owner serve a corrupt
// artifact payload to a peer: the peer must compute the artifact itself
// and answer as the owner does.
func TestPeerFetchCorruptSlabIsMiss(t *testing.T) {
	nodes := bootCluster(t, 2, nil)
	owner := nodes[1]
	body, key := requestOwnedBy(t, nodes[0].srv.Cluster(), owner.srv.Cluster().Self())
	body = body[:len(body)-1] + `,"strategy":"twobit"}`

	code, direct := postJSON(t, owner.ts.URL+"/v1/score", body, nil)
	if code != http.StatusOK {
		t.Fatalf("warming owner: %d: %s", code, direct)
	}
	if err := owner.srv.store.disk.Put(key, corruptArtifact()); err != nil {
		t.Fatal(err)
	}
	if raw, ok := owner.srv.store.artifactPayload(key); !ok || !bytes.Equal(raw, corruptArtifact()) {
		t.Fatal("owner does not serve the corrupt payload; test is vacuous")
	}

	code, out := postJSON(t, nodes[0].ts.URL+"/v1/score", body, map[string]string{ForwardedHeader: "test"})
	if code != http.StatusOK {
		t.Fatalf("non-owner over a corrupt peer slab: %d: %s", code, out)
	}
	if !bytes.Equal(out, direct) {
		t.Fatal("locally computed answer differs from the owner's")
	}
	if recs := nodes[0].srv.Engine().Stats().TraceRecords; recs != 1 {
		t.Fatalf("non-owner recorded %d traces, want 1 (the fetched artifact is a miss)", recs)
	}
	if _, _, fetches, _ := nodes[0].srv.Cluster().Counters(); fetches == 0 {
		t.Fatal("non-owner never fetched from the owner")
	}
}

// withCRC appends the artifact payload's trailing CRC to b.
func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// artifactStream is a payload's run counters (2 branches, 10 steps, a zero
// checksum, not truncated) followed by "BLTRACE1" and events, with no CRC.
func artifactStream(events ...byte) []byte {
	raw := []byte{2, 10, 0, 0}
	raw = append(raw, "BLTRACE1"...)
	return append(raw, events...)
}

// corruptStreamArtifact is a payload in today's layout with a valid CRC
// whose stream ends inside a varint.
func corruptStreamArtifact() []byte { return withCRC(artifactStream(0x03, 0x83)) }

// testArtifact records a slab with branch and switch events, runs of both
// kinds and a site past the one-byte code range.
func testArtifact() *artifact {
	s := trace.NewSlab(0)
	for i := int32(0); i < 300; i++ {
		s.Record(i%97, i%3 == 0)
		if i%7 == 0 {
			s.RecordSwitch(i%5, i%4)
		}
	}
	s.RecordRun(2, true, 5000)
	s.RecordSwitchRun(3, 1, 4000)
	s.RecordRun(2, false, 1)
	s.Seal()
	return &artifact{slab: s, branches: 9_301, steps: 123_456, checksum: 0xdeadbeef, truncated: true}
}

// TestArtifactSwitchRoundTrip: an artifact whose slab holds switch events
// decodes to the same counters and events, and encodes back to the same
// payload.
func TestArtifactSwitchRoundTrip(t *testing.T) {
	want := testArtifact()
	data := encodeArtifact(want)
	got, err := decodeArtifact(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.branches != want.branches || got.steps != want.steps || got.checksum != want.checksum || got.truncated != want.truncated {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if got.slab.Len() != want.slab.Len() || !reflect.DeepEqual(got.slab.Events(), want.slab.Events()) {
		t.Fatal("decoded slab's events differ from the recorded ones")
	}
	if !bytes.Equal(encodeArtifact(got), data) {
		t.Fatal("re-encoding the decoded artifact changed its payload")
	}
}

// TestArtifactZeroCopy pins the disk tier's zero-copy open: the slab
// decoded from a mapped entry reads its events from the mapping itself.
func TestArtifactZeroCopy(t *testing.T) {
	st, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("art/x", encodeArtifact(testArtifact())); err != nil {
		t.Fatal(err)
	}
	m, ok := st.Map("art/x")
	if !ok {
		t.Fatal("entry not mapped")
	}
	defer m.Close()
	a, err := decodeArtifact(m.Data, m)
	if err != nil {
		t.Fatal(err)
	}
	// The slab's buffer is unexported; reflection reads its address.
	buf := reflect.ValueOf(a.slab).Elem().FieldByName("buf")
	lo := reflect.ValueOf(m.Data).Pointer()
	if p := buf.Pointer(); buf.Len() == 0 || p < lo || p+uintptr(buf.Len()) > lo+uintptr(len(m.Data)) {
		t.Fatal("decoded slab copied the event bytes instead of aliasing the mapping")
	}
}

// TestArtifactRejects lists payloads decodeArtifact must refuse with an
// error: each would otherwise be a slab that panics or lies on replay.
func TestArtifactRejects(t *testing.T) {
	badCRC := encodeArtifact(testArtifact())
	badCRC[len(badCRC)/2] ^= 0x40
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"shorter than a CRC", []byte{1, 2, 3}},
		{"bad crc", badCRC},
		{"truncated counters", withCRC([]byte{2, 10, 0x80})},
		{"counters without a truncated byte", withCRC([]byte{2, 10, 0})},
		{"bad magic", withCRC(append([]byte{2, 10, 0, 0}, "BLTRACE2\x00\x00"...))},
		{"stream cut mid-varint", corruptStreamArtifact()},
		{"footer count differs", withCRC(artifactStream(0x03, 0x00, 0x02))},
		{"older layout", corruptArtifact()},
	} {
		if a, err := decodeArtifact(c.payload, nil); err == nil {
			t.Errorf("%s: decoded to a %d-event artifact", c.name, a.slab.Len())
		}
	}
	if _, err := decodeArtifact(withCRC(artifactStream(0x03, 0x00, 0x01)), nil); err != nil {
		t.Fatalf("the well-formed twin of the rejected payloads: %v", err)
	}
}

// eventTally counts replayed events of both kinds, runs included.
type eventTally struct{ n uint64 }

func (e *eventTally) RecordBranch(int32, bool)             { e.n++ }
func (e *eventTally) RecordRun(_ int32, _ bool, n uint64)  { e.n += n }
func (e *eventTally) RecordSwitch(int32, int32)            { e.n++ }
func (e *eventTally) RecordSwitchRun(_, _ int32, n uint64) { e.n += n }

// FuzzDecodeArtifact mutates artifact payloads, recomputing the trailing
// CRC so the mutations reach the counters and the stream. Any bytes must
// give an error or an artifact whose slab replays without a panic, holds
// as many events as it claims, and encodes back to a payload that decodes
// to the same artifact.
func FuzzDecodeArtifact(f *testing.F) {
	empty := trace.NewSlab(0)
	empty.Seal()
	f.Add(encodeArtifact(&artifact{slab: empty}))
	f.Add(encodeArtifact(testArtifact()))
	f.Add(corruptStreamArtifact())
	f.Add(corruptArtifact())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= crc32.Size {
			body := data[:len(data)-crc32.Size]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		}
		a, err := decodeArtifact(data, nil)
		if err != nil {
			return
		}
		var tally eventTally
		var max trace.MaxSite
		a.slab.ReplayInto(&tally, &max)
		if tally.n != a.slab.Len() {
			t.Fatalf("replayed %d events, slab holds %d", tally.n, a.slab.Len())
		}
		if max.N <= 1<<16 {
			a.slab.ReplayInto(trace.NewCounts(max.N))
		}
		enc := encodeArtifact(a)
		b, err := decodeArtifact(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if b.branches != a.branches || b.steps != a.steps || b.checksum != a.checksum ||
			b.truncated != a.truncated || b.slab.Len() != a.slab.Len() || !bytes.Equal(encodeArtifact(b), enc) {
			t.Fatal("re-encoded artifact decodes to a different one")
		}
	})
}
