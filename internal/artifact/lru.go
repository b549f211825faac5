package artifact

import "container/list"

// LRU is a bounded least-recently-used map. It is not safe for concurrent
// use; callers guard it with their own lock (the Cache does). A capacity
// <= 0 means unbounded.
type LRU[K comparable, V any] struct {
	cap     int
	ll      *list.List
	idx     map[K]*list.Element
	onEvict func(K, V)
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU builds an LRU holding at most capacity entries; onEvict (may be
// nil) observes each displaced entry.
func NewLRU[K comparable, V any](capacity int, onEvict func(K, V)) *LRU[K, V] {
	return &LRU[K, V]{
		cap:     capacity,
		ll:      list.New(),
		idx:     make(map[K]*list.Element),
		onEvict: onEvict,
	}
}

// Get returns the value for k and promotes it to most-recently-used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	if el, ok := l.idx[k]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Peek returns the value for k without touching recency.
func (l *LRU[K, V]) Peek(k K) (V, bool) {
	if el, ok := l.idx[k]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces k, evicting the least-recently-used entry when
// the cache is over capacity.
func (l *LRU[K, V]) Put(k K, v V) {
	if el, ok := l.idx[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		l.ll.MoveToFront(el)
		return
	}
	l.idx[k] = l.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	if l.cap > 0 && l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		ent := oldest.Value.(*lruEntry[K, V])
		l.ll.Remove(oldest)
		delete(l.idx, ent.key)
		if l.onEvict != nil {
			l.onEvict(ent.key, ent.val)
		}
	}
}

// Len returns the number of resident entries.
func (l *LRU[K, V]) Len() int { return l.ll.Len() }
