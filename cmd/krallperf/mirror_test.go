package main

import (
	"bytes"
	"testing"
)

// TestMirrorMatchesServer sends the first requests of every request
// workload, at tiny scale, both to kralld and through the workload's
// mirror. The answers must be byte-equal, so the traced run's spans time
// the work the server does; a handler change that the mirror does not
// follow fails here.
func TestMirrorMatchesServer(t *testing.T) {
	o := options{seed: 3, tiny: true}
	for _, mk := range []func(options) (*serviceWorkload, error){coldWorkload, hotWorkload, uploadWorkload} {
		w, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			srv, err := startServer()
			if err != nil {
				t.Fatal(err)
			}
			defer srv.stop()
			if err := w.warm(srv); err != nil {
				t.Fatal(err)
			}
			const n = 6
			if err := w.mirror.prepare(n); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				c := w.mirror.request(i)
				want, err := srv.post(c.endpoint, c.body)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.mirror.op(nil, i, &layerCounts{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					at := 0
					for at < min(len(got), len(want)) && got[at] == want[at] {
						at++
					}
					from := max(at-40, 0)
					t.Errorf("%s request %d: answers differ at byte %d: mirror %.120q, kralld %.120q",
						c.endpoint, i, at, got[from:], want[from:])
				}
			}
		})
	}
}
