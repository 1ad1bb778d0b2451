package plancache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"selforg/internal/obs"
)

func TestHitMiss(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	if !c.Put("a", 1, c.Epoch()) {
		t.Fatal("put refused")
	}
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("get = %v, %v", v, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3) // < 2*numShards → single shard, exact LRU
	ep := c.Epoch()
	c.Put("a", 1, ep)
	c.Put("b", 2, ep)
	c.Put("c", 3, ep)
	c.Get("a")        // a is now MRU; order: a, c, b
	c.Put("d", 4, ep) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived, want evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New(2)
	ep := c.Epoch()
	c.Put("a", 1, ep)
	c.Put("a", 2, ep)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	v, _ := c.Get("a")
	if v.(int) != 2 {
		t.Errorf("value = %v, want 2", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(8)
	ep := c.Epoch()
	c.Put("a", 1, ep)
	c.Invalidate()
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived invalidation")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after invalidate", c.Len())
	}
	// A compile that started before the bump must not publish.
	if c.Put("b", 2, ep) {
		t.Error("stale-epoch put accepted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("stale plan served")
	}
	// Fresh-epoch puts work again.
	if !c.Put("c", 3, c.Epoch()) {
		t.Error("fresh put refused")
	}
}

func TestEpochStampedEntriesLazilyReaped(t *testing.T) {
	// An entry written in epoch N must read as a miss after epoch N+1
	// even if it somehow survived the clear (white-box: stamp check).
	c := New(8)
	ep := c.Epoch()
	c.Put("a", 1, ep)
	s := c.shard("a")
	c.epoch.Add(1) // bump without clearing
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale-epoch entry served")
	}
	s.mu.Lock()
	_, still := s.entries["a"]
	s.mu.Unlock()
	if still {
		t.Error("stale entry not reaped on read")
	}
}

func TestShardedCapacityBound(t *testing.T) {
	c := New(256) // sharded: bound is capacity rounded up per shard
	ep := c.Epoch()
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, ep)
	}
	if n := c.Len(); n > 256+numShards {
		t.Errorf("len = %d, want <= %d", n, 256+numShards)
	}
	if _, _, ev := c.Stats(); ev == 0 {
		t.Error("no evictions recorded")
	}
}

func TestInstrument(t *testing.T) {
	c := New(2)
	ep := c.Epoch()
	c.Put("a", 1, ep)
	c.Get("a")
	c.Get("nope")
	reg := obs.NewRegistry()
	c.Instrument(reg) // pre-instrument counts carry over
	c.Get("a")
	c.Put("b", 2, ep)
	c.Put("c", 3, ep) // evicts
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"plancache_hits_total 2",
		"plancache_misses_total 1",
		"plancache_evictions_total 1",
		"plancache_size 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	total := 0
	for _, s := range c.shards {
		total += s.capacity
	}
	if total < DefaultCapacity {
		t.Errorf("total capacity %d < %d", total, DefaultCapacity)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%200)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i, c.Epoch())
				}
				if i%500 == 250 && g == 0 {
					c.Invalidate()
				}
				if i%100 == 0 {
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses != 8*2000 {
		t.Errorf("lookups = %d, want %d", hits+misses, 8*2000)
	}
}

// TestGetRacesPutSameKey: Put rewrites a live entry's value while Get
// returns it. Under -race this fails unless Get reads the value while
// it still holds the shard lock.
func TestGetRacesPutSameKey(t *testing.T) {
	c := New(16)
	c.Put("k", 0, c.Epoch())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Put("k", i, c.Epoch())
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if v, ok := c.Get("k"); !ok || v.(int) < 0 {
					t.Errorf("Get = %v, %v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
