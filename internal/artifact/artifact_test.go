package artifact

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/telemetry"
)

func testBin(tag byte) *native.Binary {
	return &native.Binary{Arch: native.ArchX64, Code: []byte{tag, tag, tag}, Name: "t"}
}

func TestGetOrBuildCachesByKey(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(Config{Registry: reg})
	var builds atomic.Int32
	build := func() (ext.Info, *native.Binary, error) {
		builds.Add(1)
		return ext.Info{Ops: 7}, testBin(1), nil
	}
	key := Key{Digest: "d1", Arch: native.ArchX64}

	a1, hit, err := c.GetOrBuild(key, build)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	a2, hit, err := c.GetOrBuild(key, build)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if builds.Load() != 1 {
		t.Fatalf("builder ran %d times, want 1", builds.Load())
	}
	if a1.Info.Ops != 7 || a2.Info.Ops != 7 {
		t.Fatal("cached info lost")
	}
	// A hit lends out the one cached master, not a copy.
	if a1.Master() != a2.Master() || a2.Master().Code[0] != 1 {
		t.Fatal("Master() does not return the cached binary")
	}
	if got := reg.Counter("artifact.cache.hit").Value(); got != 1 {
		t.Fatalf("hit counter = %d, want 1", got)
	}
	if got := reg.Counter("artifact.cache.miss").Value(); got != 1 {
		t.Fatalf("miss counter = %d, want 1", got)
	}
	if got := reg.Counter("artifact.compile.invocations").Value(); got != 1 {
		t.Fatalf("compile invocations = %d, want 1", got)
	}
	if got := reg.Gauge("artifact.cache.size").Value(); got != 1 {
		t.Fatalf("size gauge = %d, want 1", got)
	}
}

func TestGetOrBuildSingleFlight(t *testing.T) {
	c := NewCache(Config{})
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (ext.Info, *native.Binary, error) {
		builds.Add(1)
		<-release
		return ext.Info{}, testBin(2), nil
	}
	key := Key{Digest: "d", Arch: native.ArchX64}

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrBuild(key, build)
		}(i)
	}
	// Let every goroutine reach the cache before releasing the one build.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("%d concurrent first-time lookups ran the builder %d times, want 1", callers, builds.Load())
	}
}

func TestGetOrBuildErrorNotCached(t *testing.T) {
	c := NewCache(Config{})
	boom := errors.New("boom")
	calls := 0
	key := Key{Digest: "d", Arch: native.ArchX64}
	fail := func() (ext.Info, *native.Binary, error) { calls++; return ext.Info{}, nil, boom }
	if _, _, err := c.GetOrBuild(key, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	ok := func() (ext.Info, *native.Binary, error) { calls++; return ext.Info{}, testBin(3), nil }
	if _, hit, err := c.GetOrBuild(key, ok); err != nil || hit {
		t.Fatalf("after failed build: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (failure must not be memoized)", calls)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(Config{Registry: reg})
	mk := func(d string) (hit bool) {
		_, hit, err := c.GetOrBuild(Key{Digest: d, Arch: native.ArchX64},
			func() (ext.Info, *native.Binary, error) { return ext.Info{}, testBin(9), nil })
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	for i := 0; i < DefaultCapacity; i++ {
		mk(fmt.Sprint(i))
	}
	mk("0")      // promote 0
	mk("new")    // evicts 1
	if mk("1") { // must rebuild
		t.Fatal("evicted digest reported a hit")
	}
	if !mk("0") {
		t.Fatal("promoted digest was evicted")
	}
	if c.Len() != DefaultCapacity {
		t.Fatalf("len = %d, want capacity %d", c.Len(), DefaultCapacity)
	}
	if got := reg.Counter("artifact.cache.evictions").Value(); got < 2 {
		t.Fatalf("evict counter = %d, want >= 2", got)
	}
	if got := reg.Gauge("artifact.cache.size").Value(); got != DefaultCapacity {
		t.Fatalf("size gauge = %d, want %d", got, DefaultCapacity)
	}
}

func TestValidateSingleFlightAndMemo(t *testing.T) {
	c := NewCache(Config{})
	var runs atomic.Int32
	validate := func() (ext.Info, error) {
		runs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return ext.Info{Ops: 3}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Validate("dig", validate); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if info, hit, err := c.Validate("dig", validate); err != nil || !hit || info.Ops != 3 {
		t.Fatalf("memoized validate: hit=%v info=%+v err=%v", hit, info, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("validator ran %d times, want 1", runs.Load())
	}
}

func TestLRUBasics(t *testing.T) {
	var evicted []string
	l := NewLRU[string, int](3, func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3)
	l.Get("a")
	l.Put("d", 4) // evicts b, the least recently used
	if len(evicted) != 1 || evicted[0] != "b=2" {
		t.Fatalf("evicted = %v, want [b=2]", evicted)
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("evicted key still resident")
	}
	if v, ok := l.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d,%v", v, ok)
	}
	l.Put("a", 10)
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("Put replace: got %d", v)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if len(evicted) != 1 {
		t.Fatalf("replacing a resident key must not evict: %v", evicted)
	}
}
