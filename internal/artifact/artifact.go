// Package artifact is the control plane's content-addressed artifact store:
// validated extension facts and JIT-compiled binaries keyed by code digest,
// held in bounded LRUs with cross-job single-flight. Repeated Inject or
// Broadcast of the same digest — from any job, any fleet member, any time
// while the entry is resident — skips validation and compilation entirely.
// The package also houses the page-granular binary delta computer used by
// delta injection (delta.go).
package artifact

import (
	"sync"

	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/telemetry"
)

// Key addresses one compiled artifact: the content digest of the extension
// IR plus the target architecture it was lowered for.
type Key struct {
	Digest string
	Arch   native.Arch
}

// Artifact is one validated + compiled unit.
type Artifact struct {
	Info ext.Info
	bin  *native.Binary
}

// Master returns the cached binary itself, shared by every caller. It is
// read-only: linking patches code in place, so a caller that links copies
// the code first (native.Binary.Clone, or into a blob image).
func (a *Artifact) Master() *native.Binary { return a.bin }

// Config shapes a Cache.
type Config struct {
	// Registry receives the cache's instruments; nil creates a private one.
	Registry *telemetry.Registry
}

// DefaultCapacity bounds the compiled artifacts a Cache holds. Validation
// facts get 4x this, since they are small and shared across architectures.
const DefaultCapacity = 128

// Cache is the store. All lookups are single-flight: concurrent misses on
// one key run the builder once and share the result, so a fleet-wide
// broadcast racing another job over a cold digest compiles exactly once.
type Cache struct {
	mu       sync.Mutex
	arts     *LRU[Key, *Artifact]
	infos    *LRU[string, ext.Info]
	building map[Key]*flight
	checking map[string]*flight

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	compiles  *telemetry.Counter
	validates *telemetry.Counter
	size      *telemetry.Gauge
}

type flight struct {
	done chan struct{}
	art  *Artifact
	info ext.Info
	err  error
}

// NewCache builds a Cache and registers its instruments.
func NewCache(cfg Config) *Cache {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cache{
		infos:     NewLRU[string, ext.Info](DefaultCapacity*4, nil),
		building:  map[Key]*flight{},
		checking:  map[string]*flight{},
		hits:      reg.Counter("artifact.cache.hit"),
		misses:    reg.Counter("artifact.cache.miss"),
		evictions: reg.Counter("artifact.cache.evictions"),
		compiles:  reg.Counter("artifact.compile.invocations"),
		validates: reg.Counter("artifact.validate.invocations"),
		size:      reg.Gauge("artifact.cache.size"),
	}
	c.arts = NewLRU[Key, *Artifact](DefaultCapacity, func(Key, *Artifact) {
		c.evictions.Inc()
	})
	return c
}

// GetOrBuild returns the artifact for key, invoking build at most once
// across all concurrent callers on a miss. hit reports whether this caller
// skipped the build (resident entry or joined another caller's flight).
// Build errors are never cached.
func (c *Cache) GetOrBuild(key Key, build func() (ext.Info, *native.Binary, error)) (art *Artifact, hit bool, err error) {
	c.mu.Lock()
	if a, ok := c.arts.Get(key); ok {
		c.mu.Unlock()
		c.hits.Inc()
		return a, true, nil
	}
	if fl, ok := c.building[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.hits.Inc()
		return fl.art, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.building[key] = fl
	c.mu.Unlock()
	c.misses.Inc()

	c.compiles.Inc()
	info, bin, err := build()
	if err == nil {
		fl.art = &Artifact{Info: info, bin: bin}
	}
	fl.err = err

	c.mu.Lock()
	delete(c.building, key)
	if err == nil {
		c.arts.Put(key, fl.art)
		c.size.Set(int64(c.arts.Len()))
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, false, err
	}
	return fl.art, false, nil
}

// Validate returns the validation facts for digest, running validate at
// most once across concurrent callers on a miss. Errors are not cached.
func (c *Cache) Validate(digest string, validate func() (ext.Info, error)) (info ext.Info, hit bool, err error) {
	c.mu.Lock()
	if in, ok := c.infos.Get(digest); ok {
		c.mu.Unlock()
		c.hits.Inc()
		return in, true, nil
	}
	if fl, ok := c.checking[digest]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return ext.Info{}, false, fl.err
		}
		c.hits.Inc()
		return fl.info, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.checking[digest] = fl
	c.mu.Unlock()
	c.misses.Inc()

	c.validates.Inc()
	fl.info, fl.err = validate()

	c.mu.Lock()
	delete(c.checking, digest)
	if fl.err == nil {
		c.infos.Put(digest, fl.info)
	}
	c.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return ext.Info{}, false, fl.err
	}
	return fl.info, false, nil
}

// Peek reports residency of key without touching recency or counters.
func (c *Cache) Peek(key Key) (*Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arts.Peek(key)
}

// Len returns the number of resident compiled artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arts.Len()
}
