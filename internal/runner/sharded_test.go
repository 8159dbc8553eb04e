package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedOneShardMatchesLRU is the property test pinning the refactor:
// a Sharded store with one shard must be indistinguishable from the old
// LRU — same values, same errors-not-cached retry behaviour, same
// evictions (observed as recomputation), same hit/miss counters — over
// randomized op sequences of gets, failures, and panics.
func TestShardedOneShardMatchesLRU(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(6)
			old := NewLRU(capacity)
			neu := NewSharded(capacity, 1)
			if neu.Cap() != old.Cap() {
				t.Fatalf("Cap: sharded %d, lru %d", neu.Cap(), old.Cap())
			}
			// Call counts per key observe eviction: a key recomputes only
			// after it was evicted, so identical eviction order means
			// identical counts at every step.
			oldCalls, neuCalls := map[string]int{}, map[string]int{}
			for op := 0; op < 400; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(capacity*3))
				mode := rng.Intn(10) // 0 = error, 1 = panic, else success
				mk := func(calls map[string]int) func() (string, error) {
					return func() (string, error) {
						calls[key]++
						switch mode {
						case 0:
							return "", errors.New("transient")
						case 1:
							panic("transient")
						}
						return "v:" + key, nil
					}
				}
				ov, oerr := Cached(old, key, mk(oldCalls))
				nv, nerr := Cached[string](neu, key, mk(neuCalls))
				if ov != nv || (oerr == nil) != (nerr == nil) {
					t.Fatalf("op %d (%s, mode %d): lru (%q, %v) != sharded (%q, %v)",
						op, key, mode, ov, oerr, nv, nerr)
				}
				if oldCalls[key] != neuCalls[key] {
					t.Fatalf("op %d: key %s computed %d times on lru, %d on sharded (eviction drift)",
						op, key, oldCalls[key], neuCalls[key])
				}
				if old.Len() != neu.Len() {
					t.Fatalf("op %d: Len %d (lru) != %d (sharded)", op, old.Len(), neu.Len())
				}
				oh, om := old.Counters()
				nh, nm := neu.Counters()
				if oh != nh || om != nm {
					t.Fatalf("op %d: counters %d/%d (lru) != %d/%d (sharded)", op, oh, om, nh, nm)
				}
			}
		})
	}
}

// TestShardedSingleFlight hammers one key from many goroutines across a
// multi-shard store: dedup must hold exactly as on a single LRU.
func TestShardedSingleFlight(t *testing.T) {
	s := NewSharded(64, 8)
	var computed atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err := Cached[int](s, "shared", func() (int, error) {
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

// TestShardedRounding pins the shard-count and capacity arithmetic.
func TestShardedRounding(t *testing.T) {
	cases := []struct {
		capacity, shards    int
		wantShards, wantCap int
	}{
		{128, 1, 1, 128},
		{128, 8, 8, 128},
		{100, 8, 8, 104}, // ceil(100/8)=13 per shard
		{128, 5, 8, 128},
		{2, 16, 16, 16}, // every shard holds at least one entry
		{0, 0, 1, 1},
	}
	for _, tc := range cases {
		s := NewSharded(tc.capacity, tc.shards)
		if s.NumShards() != tc.wantShards || s.Cap() != tc.wantCap {
			t.Errorf("NewSharded(%d, %d): %d shards cap %d, want %d shards cap %d",
				tc.capacity, tc.shards, s.NumShards(), s.Cap(), tc.wantShards, tc.wantCap)
		}
	}
}

// TestShardedConcurrentChurn is the race-detector target: goroutines
// churn a keyspace larger than capacity across multiple shards while a
// reader snapshots the per-shard counters.
func TestShardedConcurrentChurn(t *testing.T) {
	s := NewSharded(16, 4)
	done := make(chan struct{})
	var snap sync.WaitGroup
	snap.Add(1)
	go func() {
		defer snap.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			total := 0
			for _, sh := range s.Shards() {
				total += sh.Entries
			}
			if total > s.Cap() {
				t.Errorf("resident entries %d exceed capacity %d", total, s.Cap())
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%64)
				v, err := Cached[string](s, k, func() (string, error) { return "v" + k, nil })
				if err != nil || v != "v"+k {
					t.Errorf("key %s: got %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	snap.Wait()
	hits, misses := s.Counters()
	if hits+misses != 8*300 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*300)
	}
}
