package runner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lruModel is a reference least-recently-used store for sequential use:
// a recency slice (most recent first); failed fills are dropped.
type lruModel struct {
	cap          int
	order        []string
	vals         map[string]string
	hits, misses int64
}

func (m *lruModel) do(key string, fn func() (string, error)) (v string, err error) {
	for i, k := range m.order {
		if k == key {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = key
			m.hits++
			return m.vals[key], nil
		}
	}
	// A miss claims the front slot (evicting if full) before computing, so
	// even a failed fill evicts.
	m.misses++
	m.order = append([]string{key}, m.order...)
	if len(m.order) > m.cap {
		delete(m.vals, m.order[m.cap])
		m.order = m.order[:m.cap]
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		v, err = fn()
	}()
	if err != nil {
		m.order = m.order[1:]
		return v, err
	}
	m.vals[key] = v
	return v, nil
}

// TestShardedOneShardMatchesLRU is the property test pinning the store's
// policy: a Sharded store with one shard must be indistinguishable from a
// reference LRU model — same values, same errors-not-cached retry
// behaviour, same evictions (observed as recomputation), same hit/miss
// counters — over randomized op sequences of gets, failures, and panics.
func TestShardedOneShardMatchesLRU(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(6)
			ref := &lruModel{cap: capacity, vals: map[string]string{}}
			neu := NewSharded(capacity, 1)
			if neu.Cap() != capacity {
				t.Fatalf("Cap: sharded %d, want %d", neu.Cap(), capacity)
			}
			// Call counts per key observe eviction: a key recomputes only
			// after it was evicted, so identical eviction order means
			// identical counts at every step.
			refCalls, neuCalls := map[string]int{}, map[string]int{}
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
				rv, rerr := ref.do(key, mk(refCalls))
				nv, nerr := Cached[string](neu, key, mk(neuCalls))
				if rv != nv || (rerr == nil) != (nerr == nil) {
					t.Fatalf("op %d (%s, mode %d): model (%q, %v) != sharded (%q, %v)",
						op, key, mode, rv, rerr, nv, nerr)
				}
				if refCalls[key] != neuCalls[key] {
					t.Fatalf("op %d: key %s computed %d times on the model, %d on sharded (eviction drift)",
						op, key, refCalls[key], neuCalls[key])
				}
				if len(ref.order) != neu.Len() {
					t.Fatalf("op %d: Len %d (model) != %d (sharded)", op, len(ref.order), neu.Len())
				}
				nh, nm := neu.Counters()
				if ref.hits != nh || ref.misses != nm {
					t.Fatalf("op %d: counters %d/%d (model) != %d/%d (sharded)", op, ref.hits, ref.misses, nh, nm)
				}
			}
		})
	}
}

// TestShardedSingleFlight hammers one key from many goroutines across a
// multi-shard store: dedup must hold exactly as on a single shard.
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
		// Rounding capacity up must not overflow: an unbounded store
		// stays unbounded instead of wrapping to one entry per shard.
		{math.MaxInt, 16, 16, math.MaxInt},
		{math.MaxInt, 1, 1, math.MaxInt},
		{math.MaxInt - 3, 8, 8, math.MaxInt},
	}
	for _, tc := range cases {
		s := NewSharded(tc.capacity, tc.shards)
		if s.NumShards() != tc.wantShards || s.Cap() != tc.wantCap {
			t.Errorf("NewSharded(%d, %d): %d shards cap %d, want %d shards cap %d",
				tc.capacity, tc.shards, s.NumShards(), s.Cap(), tc.wantShards, tc.wantCap)
		}
	}
}

// TestShardedHugeShardCount pins the shard clamp: doubling toward a shard
// count past 1<<62 used to wrap to zero and never terminate.
func TestShardedHugeShardCount(t *testing.T) {
	done := make(chan *Sharded, 1)
	go func() { done <- NewSharded(128, math.MaxInt) }()
	select {
	case s := <-done:
		if s.NumShards() != maxShards || s.Cap() != maxShards {
			t.Fatalf("NewSharded(128, MaxInt): %d shards cap %d, want %d shards cap %d",
				s.NumShards(), s.Cap(), maxShards, maxShards)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewSharded(128, MaxInt) did not return")
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
