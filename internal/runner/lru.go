package runner

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is the long-running counterpart of Cache: a capacity-bounded,
// content-addressed artifact store with single-flight population. Cache
// memoises forever, which is right for one batch invocation of the
// experiment engine; a daemon that must survive an arbitrary request
// stream instead bounds resident artifacts and evicts the least recently
// used. Two deliberate behaviour differences from Cache:
//
//   - Errors are not cached. A batch sweep wants a failed job to fail
//     identically on re-request (determinism); a service wants a failed or
//     cancelled computation forgotten so the next request can retry.
//   - Entries are evicted. Waiters holding an evicted in-flight entry
//     still receive its value; the entry is simply no longer findable.
//
// Values must be treated as immutable by all callers, exactly as with
// Cache: they are shared across goroutines without further synchronisation.
type LRU struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry
	entries map[string]*list.Element
	hits    atomic.Int64
	misses  atomic.Int64
}

type lruEntry struct {
	key  string
	done chan struct{} // closed once val/err are final
	val  any
	err  error
}

// NewLRU creates a store holding at most capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// Do returns the value stored under key, computing it with fn on first
// request. Population is single-flight: concurrent requests for the same
// missing key compute once and share the result. A panicking fn is
// converted to an error. On error the entry is dropped, so a later Do of
// the same key retries.
func (l *LRU) Do(key string, fn func() (any, error)) (any, error) {
	l.mu.Lock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		e := el.Value.(*lruEntry)
		l.hits.Add(1)
		l.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &lruEntry{key: key, done: make(chan struct{})}
	l.entries[key] = l.order.PushFront(e)
	l.misses.Add(1)
	for l.order.Len() > l.cap {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.entries, back.Value.(*lruEntry).key)
	}
	l.mu.Unlock()

	e.val, e.err = protect(fn)
	if e.err != nil {
		l.mu.Lock()
		if el, ok := l.entries[key]; ok && el.Value.(*lruEntry) == e {
			l.order.Remove(el)
			delete(l.entries, key)
		}
		l.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Counters returns the hit/miss totals.
func (l *LRU) Counters() (hits, misses int64) {
	return l.hits.Load(), l.misses.Load()
}

// Len is the number of resident (or in-flight) entries.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Cap is the configured capacity.
func (l *LRU) Cap() int { return l.cap }
