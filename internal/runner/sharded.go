package runner

import (
	"container/list"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
)

// Store is the content-addressed artifact store contract: single-flight
// population keyed by string, immutable values. Sharded implements it, and
// the service layers its disk tier over it; Cached is the typed entry point.
type Store interface {
	// Do returns the value stored under key, computing it with fn on
	// first request (single-flight: concurrent requests for a missing key
	// compute once and share the result).
	Do(key string, fn func() (any, error)) (any, error)
}

// Cached is the typed wrapper over Store.Do.
func Cached[V any](s Store, key string, fn func() (V, error)) (V, error) {
	v, err := s.Do(key, func() (any, error) { return fn() })
	if v == nil {
		var zero V
		return zero, err
	}
	return v.(V), err
}

// maxShards bounds the shard count: past it, more locks buy no
// parallelism and the shard table itself becomes the cost.
const maxShards = 1 << 12

// Sharded is the artifact store: a capacity-bounded, content-addressed map
// with single-flight population, split into a power-of-two number of
// independently locked shards, each with its own single-flight table and
// recency list. When several goroutines ask for the same missing key at
// once, exactly one computes it and the others wait for its result; sharding
// by key hash lets unrelated keys proceed in parallel. Each shard evicts its
// own least recently used entry, so a hot shard can evict while a cold one
// has room — invisible to correctness, only to hit rate. Waiters holding an
// evicted in-flight entry still receive its value.
//
// Errors (and panics, converted to errors) are not cached: a failed or
// cancelled fill is forgotten, so the next request for the key retries.
// The service relies on that after a cancelled request; the experiment
// engine stays deterministic regardless, because the functions it caches
// are pure (a retry fails identically) and Map reports the lowest-index
// error.
//
// Values must be treated as immutable by all callers: they are shared
// across goroutines without further synchronisation.
type Sharded struct {
	shards []*shard
	per    int // capacity of each shard
	seed   maphash.Seed
	mask   uint64
}

type shard struct {
	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	hits    atomic.Int64
	misses  atomic.Int64
}

type entry struct {
	key  string
	done chan struct{} // closed once val/err are final
	val  any
	err  error
}

// NewSharded creates a store of at most capacity entries split across
// shards (rounded up to a power of two, minimum 1, at most 4096). Capacity
// is divided evenly; every shard holds at least one entry, and a capacity
// of math.MaxInt leaves the store effectively unbounded.
func NewSharded(capacity, shards int) *Sharded {
	n := 1
	for n < shards && n < maxShards {
		n <<= 1
	}
	per := capacity / n
	if capacity%n != 0 {
		per++
	}
	if per < 1 {
		per = 1
	}
	s := &Sharded{shards: make([]*shard, n), per: per, seed: maphash.MakeSeed(), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i] = &shard{order: list.New(), entries: map[string]*list.Element{}}
	}
	return s
}

// Do implements Store on the shard owning key.
func (s *Sharded) Do(key string, fn func() (any, error)) (any, error) {
	sh := s.shards[maphash.String(s.seed, key)&s.mask]
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		e := el.Value.(*entry)
		sh.hits.Add(1)
		sh.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &entry{key: key, done: make(chan struct{})}
	sh.entries[key] = sh.order.PushFront(e)
	sh.misses.Add(1)
	for sh.order.Len() > s.per {
		back := sh.order.Back()
		sh.order.Remove(back)
		delete(sh.entries, back.Value.(*entry).key)
	}
	sh.mu.Unlock()

	e.val, e.err = protect(fn)
	if e.err != nil {
		sh.mu.Lock()
		if el, ok := sh.entries[key]; ok && el.Value.(*entry) == e {
			sh.order.Remove(el)
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Counters returns hit/miss totals summed over all shards.
func (s *Sharded) Counters() (hits, misses int64) {
	for _, sh := range s.shards {
		hits += sh.hits.Load()
		misses += sh.misses.Load()
	}
	return hits, misses
}

// Len is the number of resident (or in-flight) entries across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.Shards() {
		n += sh.Entries
	}
	return n
}

// Cap is the total capacity (per-shard capacity × shard count, saturating
// at math.MaxInt).
func (s *Sharded) Cap() int {
	if s.per > math.MaxInt/len(s.shards) {
		return math.MaxInt
	}
	return s.per * len(s.shards)
}

// NumShards is the shard count (a power of two).
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardCounters is one shard's occupancy and lookup totals, exported per
// shard on the service's /metrics.
type ShardCounters struct {
	Entries      int
	Hits, Misses int64
}

// Shards snapshots every shard's counters, in shard order.
func (s *Sharded) Shards() []ShardCounters {
	out := make([]ShardCounters, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = ShardCounters{Entries: sh.order.Len(), Hits: sh.hits.Load(), Misses: sh.misses.Load()}
		sh.mu.Unlock()
	}
	return out
}
