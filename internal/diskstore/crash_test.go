package diskstore

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashWriterArg, as the test binary's first positional argument (after
// "--"), turns TestCrashMidWrite into the writer process it kills; the
// second positional argument is the store directory.
const crashWriterArg = "diskstore-crash-writer"

const (
	crashKeys    = 16
	crashPayload = 1 << 20
)

// crashEntry is the payload the writer stores under key i at generation
// gen: one 16-byte record (i, gen) repeated, so a reader can tell a whole
// entry from a torn one without knowing which generation won.
func crashEntry(i, gen uint64) []byte {
	buf := make([]byte, crashPayload)
	for off := 0; off < len(buf); off += 16 {
		binary.LittleEndian.PutUint64(buf[off:], i)
		binary.LittleEndian.PutUint64(buf[off+8:], gen)
	}
	return buf
}

// checkCrashEntry reports why payload is not a whole crashEntry for key i.
func checkCrashEntry(i uint64, payload []byte) error {
	if len(payload) != crashPayload {
		return fmt.Errorf("payload is %d bytes, want %d", len(payload), crashPayload)
	}
	first := payload[:16]
	if got := binary.LittleEndian.Uint64(first); got != i {
		return fmt.Errorf("payload belongs to key %d", got)
	}
	for off := 16; off < len(payload); off += 16 {
		if string(payload[off:off+16]) != string(first) {
			return fmt.Errorf("payload mixes generations at byte %d", off)
		}
	}
	return nil
}

// writeUntilKilled is the child side: it overwrites crashKeys keys round
// robin with ever newer generations. It gives up after a while, so a
// child whose parent died cannot write forever.
func writeUntilKilled(dir string) {
	s, err := Open(dir, Options{MaxBytes: 1 << 30})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	deadline := time.Now().Add(30 * time.Second)
	for gen := uint64(0); time.Now().Before(deadline); gen++ {
		i := gen % crashKeys
		_ = s.Put(fmt.Sprintf("crash/%d", i), crashEntry(i, gen))
	}
	os.Exit(0)
}

// TestCrashMidWrite SIGKILLs a process in the middle of a stream of Puts
// and reopens its directory: the scan on Open must remove the leftover
// temp file, and every indexed entry must either load whole (valid CRC,
// the payload of one generation) or be a miss — never a torn entry.
func TestCrashMidWrite(t *testing.T) {
	if flag.Arg(0) == crashWriterArg {
		writeUntilKilled(flag.Arg(1))
		return
	}
	dir := t.TempDir()
	// Kill once a temp file is visible, so the kill most likely lands
	// between a temp write and its rename; retry a few times if the
	// rename won the race every time.
	leftTmp := false
	for attempt := 0; attempt < 5 && !leftTmp; attempt++ {
		leftTmp = killWriter(t, dir)
	}
	if !leftTmp {
		t.Log("the writer renamed every temp file before the kill; checking the store anyway")
	}

	s, err := Open(dir, Options{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("Open left temp files behind: %v", tmps)
	}
	if s.Len() == 0 {
		t.Fatal("no entry survived the crash; test is vacuous")
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	whole := 0
	for _, k := range keys {
		var i uint64
		if _, err := fmt.Sscanf(k, "crash/%d", &i); err != nil {
			t.Fatalf("foreign key %q indexed", k)
		}
		if payload, ok := s.Load(k); ok {
			if err := checkCrashEntry(i, payload); err != nil {
				t.Fatalf("Load(%q) returned a torn entry: %v", k, err)
			}
			whole++
		}
		if m, ok := s.Map(k); ok {
			if err := checkCrashEntry(i, m.Data); err != nil {
				t.Fatalf("Map(%q) returned a torn entry: %v", k, err)
			}
			m.Close()
		}
	}
	if whole == 0 {
		t.Fatal("every indexed entry was a miss")
	}
	t.Logf("%d entries indexed, %d loaded whole; the kill left a temp file: %v", len(keys), whole, leftTmp)
}

// killWriter runs one writer child over dir, SIGKILLs it as soon as it
// has written every key once and has a temp file open, and reports
// whether a temp file outlived it.
func killWriter(t *testing.T, dir string) bool {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashMidWrite$", "--", crashWriterArg, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		des, _ := os.ReadDir(dir)
		committed, tmp := 0, false
		for _, de := range des {
			if strings.HasSuffix(de.Name(), fileExt) {
				committed++
			}
			tmp = tmp || strings.HasPrefix(de.Name(), tmpPrefix)
		}
		if committed >= crashKeys && tmp {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	return len(tempFiles(t, dir)) > 0
}

func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}
