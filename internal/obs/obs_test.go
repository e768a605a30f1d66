package obs

import (
	"sync"
	"testing"
)

// TestCounterConcurrent pins counter atomicity: concurrent writers must
// never lose an increment. Run under -race this also proves the counter is
// data-race free.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.hits")
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(workers*perWorker); got != want {
		t.Fatalf("counter lost updates: got %d, want %d", got, want)
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	r.Counter("b").Add(3)
	snap := r.Counters()
	if snap["a"] != 0 || snap["b"] != 3 {
		t.Fatalf("counter snapshot wrong: %v", snap)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("counter names not sorted: %v", names)
	}
}

func TestZeroValues(t *testing.T) {
	var w Watch
	if w.Started() {
		t.Fatal("zero watch reports started")
	}
	if w.Elapsed() != 0 || w.ElapsedNS() != 0 {
		t.Fatal("zero watch reports nonzero elapsed")
	}
	if got := StartWatch(); !got.Started() {
		t.Fatal("started watch reports not started")
	}
}
