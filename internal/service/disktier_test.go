package service

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"testing"
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
	if err := s1.store.disk.Put(key, corruptArtifact()); err != nil {
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
