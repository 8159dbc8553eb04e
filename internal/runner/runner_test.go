package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		e := New(workers)
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		got, err := Map(e, items, func(i, v int) (int, error) {
			if i != v {
				t.Errorf("fn called with i=%d item=%d", i, v)
			}
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if st := e.Stats(); st.Jobs != 100 {
			t.Fatalf("workers=%d: jobs = %d, want 100", workers, st.Jobs)
		}
	}
}

func TestMapSequentialAndParallelIdentical(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i * 3
	}
	f := func(i, v int) (string, error) { return fmt.Sprintf("%d:%d", i, v), nil }
	seq, err := Map(New(1), items, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(New(8), items, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("out[%d]: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapNilEngineRunsInline(t *testing.T) {
	got, err := Map[int, int](nil, []int{1, 2, 3}, func(i, v int) (int, error) { return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[2] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(New(4), nil, func(i int, v struct{}) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMapErrorDeterministic: whichever worker fails first, the returned
// error must be the lowest-index one.
func TestMapErrorDeterministic(t *testing.T) {
	items := make([]int, 50)
	for workers := 1; workers <= 8; workers *= 2 {
		_, err := Map(New(workers), items, func(i, _ int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3's error", workers, err)
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(New(4), []int{0, 1, 2}, func(i, _ int) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted: %v", err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New(4).Cache()
	var calls atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	vals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := Cached(c, "k", func() (int, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("populate ran %d times, want 1", n)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d", g, v)
		}
	}
	hits, misses := c.Counters()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("counters hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestCacheErrorsNotCached pins why the engine can share the service's
// error policy: a failed fill is retried, and because cached functions are
// pure every retry fails identically, so Map still reports the
// lowest-index job's error.
func TestCacheErrorsNotCached(t *testing.T) {
	e := New(4)
	var calls atomic.Int64
	items := make([]int, 16)
	_, err := Map(e, items, func(i, _ int) (int, error) {
		return Cached(e.Cache(), "bad", func() (int, error) {
			calls.Add(1)
			return 0, errors.New("nope")
		})
	})
	if err == nil || err.Error() != "nope" {
		t.Fatalf("Map error = %v, want nope", err)
	}
	if calls.Load() < 1 || e.Cache().Len() != 0 {
		t.Fatalf("calls = %d, resident = %d; want >= 1 call and no cached error", calls.Load(), e.Cache().Len())
	}
}

func TestCachePanicUnblocksWaiters(t *testing.T) {
	c := New(2).Cache()
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			_, err := Cached(c, "p", func() (int, error) { panic("kaboom") })
			done <- err
		}()
	}
	for g := 0; g < 2; g++ {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("err = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter deadlocked after populate panic")
		}
	}
}

// TestMapWithSharedCache is the engine's race test: many concurrent jobs
// populating and reading overlapping cache keys (run under -race in CI).
func TestMapWithSharedCache(t *testing.T) {
	e := New(8)
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	got, err := Map(e, items, func(i, v int) (int, error) {
		// 10 distinct keys, so ~20 jobs contend for each.
		key := fmt.Sprintf("k%d", v%10)
		return Cached(e.Cache(), key, func() (int, error) { return (v % 10) * 100, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (i%10)*100 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 10 || st.CacheHits != 190 {
		t.Fatalf("cache hits=%d misses=%d, want 190/10", st.CacheHits, st.CacheMisses)
	}
	if st.JobTime < 0 || st.Jobs != 200 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNestedMap(t *testing.T) {
	e := New(4)
	outer := []int{0, 1, 2, 3, 4}
	got, err := Map(e, outer, func(i, v int) ([]int, error) {
		inner := make([]int, 8)
		for j := range inner {
			inner[j] = j
		}
		return Map(e, inner, func(j, w int) (int, error) { return v*10 + w, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got {
		for j, v := range row {
			if v != i*10+j {
				t.Fatalf("got[%d][%d] = %d", i, j, v)
			}
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Workers: 4, Jobs: 10, JobTime: time.Second, CacheHits: 3, CacheMisses: 2}
	out := s.String()
	for _, want := range []string{"4 workers", "10 jobs", "3 hits", "2 misses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats string %q missing %q", out, want)
		}
	}
}

func TestNewDefaultsWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) produced no workers")
	}
	if New(-3).Workers() < 1 {
		t.Fatal("New(-3) produced no workers")
	}
	if New(7).Workers() != 7 {
		t.Fatal("explicit worker count not honoured")
	}
}
