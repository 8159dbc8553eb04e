package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSelfcheck boots the server in-process, drives every endpoint through
// the load client and checks the /metrics snapshot it leaves behind.
func TestSelfcheck(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-selfcheck", "-quiet", "-metrics-out", metrics}, &out, &errOut); err != nil {
		t.Fatalf("selfcheck: %v\nstdout: %s\nstderr: %s", err, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "selfcheck ok") {
		t.Fatalf("stdout lacks \"selfcheck ok\":\n%s", out.String())
	}
	body, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("kralld_")) {
		t.Fatalf("metrics snapshot has no kralld_ series:\n%s", body)
	}
}

// TestRunRejectsBadArguments checks the usage errors that must stop kralld
// before it listens: an unknown flag (-backend went with the compiled
// backend) and a positional argument, after which the flag package would
// otherwise drop every later flag and listen on the default address.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-backend", "vm"}, "flag provided but not defined: -backend"},
		{[]string{"-quiet", "stray", "-addr", "127.0.0.1:0"}, `unexpected arguments ["stray" "-addr" "127.0.0.1:0"]`},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: got error %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestSplitPeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 ,, \thttp://b:2\n,", []string{"http://a:1", "http://b:2"}},
	} {
		if got := splitPeers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitPeers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
