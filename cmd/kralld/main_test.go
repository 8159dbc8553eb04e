package main

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// TestRunRejectsBadArguments checks the usage errors that must stop kralld
// before it listens: an unknown flag (-backend went with the compiled
// backend), a positional argument, after which the flag package would
// otherwise drop every later flag and listen on the default address, and
// an inherited-listener address with no descriptor number.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-backend", "vm"}, "flag provided but not defined: -backend"},
		{[]string{"-quiet", "stray", "-addr", "127.0.0.1:0"}, `unexpected arguments ["stray" "-addr" "127.0.0.1:0"]`},
		{[]string{"-addr", "fd:"}, `-addr "fd:": want fd:N`},
	} {
		err := run(tc.args, io.Discard)
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

// TestListenInheritedFD: -addr fd:N serves the listening socket already
// open as descriptor N, as a parent process hands it down.
func TestListenInheritedFD(t *testing.T) {
	parent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	f, err := parent.(*net.TCPListener).File()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// listen takes the descriptor over, so give it one f does not own.
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	l, err := listen(fmt.Sprintf("fd:%d", fd))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr().String() != parent.Addr().String() {
		t.Fatalf("fd listener on %s, want %s", l.Addr(), parent.Addr())
	}
}
