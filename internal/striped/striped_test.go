package striped

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewRoundsUpToPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultStripes},
		{-3, DefaultStripes},
		{1, 1},
		{2, 2},
		{3, 4},
		{100, 128},
		{256, 256},
	}
	for _, c := range cases {
		if got := NewRW(c.in).Len(); got != c.want {
			t.Errorf("NewRW(%d).Len() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestForIsStableAndInRange(t *testing.T) {
	m := NewRW(64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("obj-%04d", i)
		if m.For(key) != m.For(key) {
			t.Fatalf("For(%q) not stable", key)
		}
	}
}

func TestDistinctKeysSpreadAcrossStripes(t *testing.T) {
	m := NewRW(64)
	seen := make(map[*sync.RWMutex]bool)
	for i := 0; i < 1024; i++ {
		seen[m.For(fmt.Sprintf("obj-%04d", i))] = true
	}
	// With 1024 keys over 64 stripes, essentially every stripe should
	// be hit; demand at least half to keep the bound robust.
	if len(seen) < 32 {
		t.Fatalf("1024 keys landed on only %d/64 stripes", len(seen))
	}
}

func TestMutualExclusionPerKey(t *testing.T) {
	m := NewRW(8)
	const (
		goroutines = 8
		iterations = 1000
	)
	counters := make(map[string]*int)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		counters[k] = new(int)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := keys[(g+i)%len(keys)]
				mu := m.For(k)
				mu.Lock()
				*counters[k]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += *c
	}
	if total != goroutines*iterations {
		t.Fatalf("total = %d, want %d (lost increments)", total, goroutines*iterations)
	}
}

func TestRWMutexesSameKeySameStripe(t *testing.T) {
	m := NewRW(64)
	if m.For("key-a") != m.For("key-a") {
		t.Fatal("same key resolved to different stripes")
	}
	if m.Len() != 64 {
		t.Fatalf("Len = %d, want 64", m.Len())
	}
}

func TestRWMutexesReadersShareWriterExcludes(t *testing.T) {
	m := NewRW(8)
	mu := m.For("obj")
	mu.RLock()
	secondReader := make(chan struct{})
	go func() {
		mu.RLock() // must not block alongside another reader
		mu.RUnlock()
		close(secondReader)
	}()
	select {
	case <-secondReader:
	case <-time.After(5 * time.Second):
		t.Fatal("second reader blocked while only readers hold the stripe")
	}
	writerDone := make(chan struct{})
	go func() {
		mu.Lock() // must wait for the reader
		mu.Unlock()
		close(writerDone)
	}()
	select {
	case <-writerDone:
		t.Fatal("writer acquired the stripe while a reader held it")
	case <-time.After(20 * time.Millisecond):
	}
	mu.RUnlock()
	select {
	case <-writerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired the stripe after readers left")
	}
}

func TestRWMutexesRoundsUpAndDefaults(t *testing.T) {
	if got := NewRW(100).Len(); got != 128 {
		t.Fatalf("NewRW(100).Len() = %d, want 128", got)
	}
	if got := NewRW(0).Len(); got != DefaultStripes {
		t.Fatalf("NewRW(0).Len() = %d, want %d", got, DefaultStripes)
	}
}
