package runner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The TestLRU tests pin the per-shard policy on a one-shard store, where
// the whole store is a single least-recently-used list.

func TestLRUBasics(t *testing.T) {
	l := NewSharded(2, 1)
	calls := 0
	get := func(k string) string {
		v, err := Cached(l, k, func() (string, error) {
			calls++
			return "v:" + k, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get("a") != "v:a" || get("a") != "v:a" {
		t.Fatal("wrong value")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (second get must hit)", calls)
	}
	get("b")
	get("c") // evicts a (capacity 2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	get("a")
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (a was evicted and recomputed)", calls)
	}
	hits, misses := l.Counters()
	if hits != 1 || misses != 4 {
		t.Fatalf("counters = %d hits / %d misses, want 1/4", hits, misses)
	}
}

// TestLRURecencyOrder pins that hitting an entry protects it from the next
// eviction.
func TestLRURecencyOrder(t *testing.T) {
	l := NewSharded(2, 1)
	calls := map[string]int{}
	get := func(k string) {
		if _, err := Cached(l, k, func() (string, error) {
			calls[k]++
			return k, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // a is now most recent
	get("c") // must evict b, not a
	get("a")
	if calls["a"] != 1 {
		t.Fatalf("a computed %d times, want 1 (recency must protect it)", calls["a"])
	}
	if calls["b"] != 1 {
		t.Fatalf("b computed %d times, want 1", calls["b"])
	}
}

// TestLRUErrorsNotCached pins the store's error policy: a failed (e.g.
// cancelled) computation must be retryable.
func TestLRUErrorsNotCached(t *testing.T) {
	l := NewSharded(4, 1)
	calls := 0
	boom := errors.New("boom")
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := Cached(l, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first call: %v, want boom", err)
	}
	v, err := Cached(l, "k", fn)
	if err != nil || v != 42 {
		t.Fatalf("retry = %d, %v; want 42, nil", v, err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

// TestLRUPanicBecomesError pins that a panicking fill surfaces as an error.
func TestLRUPanicBecomesError(t *testing.T) {
	l := NewSharded(4, 1)
	_, err := l.Do("k", func() (any, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("panicking fn returned nil error")
	}
}

// TestLRUSingleFlight hammers one key from many goroutines: the value must
// be computed exactly once and shared.
func TestLRUSingleFlight(t *testing.T) {
	l := NewSharded(8, 1)
	var computed atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err := Cached(l, "shared", func() (int, error) {
				computed.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computed.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computed.Load())
	}
}

// TestLRUConcurrentChurn runs many goroutines over a keyspace larger than
// the capacity — the race detector's target.
func TestLRUConcurrentChurn(t *testing.T) {
	l := NewSharded(4, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				v, err := Cached(l, k, func() (string, error) { return "v" + k, nil })
				if err != nil || v != "v"+k {
					t.Errorf("key %s: got %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.Len(); n > 4 {
		t.Fatalf("Len = %d exceeds capacity 4", n)
	}
}
