//! Sharded single-flight LRU cache over serialized recommendation
//! responses.
//!
//! Keyed by *request content* (the raw MatrixMarket body, or the bit
//! patterns of a feature vector), valued by the exact response bytes, so
//! a cache hit is bit-identical to the cold-miss response it memoizes.
//!
//! ## Sharding — by key, never by worker
//!
//! The cache is split into [`DEFAULT_SHARDS`] independent shards, each
//! with its own mutex, condvar, and LRU clock; a key's home shard is a
//! pure function of its content hash. That is a deliberate choice over
//! per-worker caches: which *worker shard* serves a connection is
//! scheduling (one-shot clients arrive on arbitrary ephemeral
//! connections), and per-worker caches would make hit/miss totals
//! depend on connection placement — breaking the invariant that the
//! deterministic manifest section is a pure function of the request
//! mix. Key-sharding keeps every identical request in one shard, so
//! single-flight and the `1 miss + n-1 hits` accounting hold at any
//! worker count, while the mutex contention of the old single-lock
//! design is split `DEFAULT_SHARDS` ways.
//!
//! ## Single flight
//!
//! The first arrival for a key inserts a *pending* slot and computes; any
//! concurrent arrival for the same key blocks on the slot instead of
//! recomputing, and is counted as a hit. For `n` identical well-formed
//! requests the tally is always 1 miss + `n-1` hits, no matter how the
//! requests interleave across worker shards — the property the
//! 1-vs-4-worker manifest diff in CI depends on.
//!
//! ## Collision safety
//!
//! Slots are found by a 64-bit key hash *and then* full-key comparison;
//! two keys that collide in the hash coexist as separate slots and never
//! alias each other's responses. A key is a scope (the model generation
//! and a namespace byte) plus the content; the hash is computed once per
//! request, by [`ResponseCache::scoped_key`], from the content's hash and
//! the scope. A reservation finds its slot again by the slot's insertion
//! tick. The content is shared, not copied: a server hands over the
//! request body itself in an `Arc`, so the slot and the request's parse
//! read the same bytes.
//!
//! Lookup is a linear scan over the shard's slot vector — deliberately:
//! per-shard capacity is a handful-to-hundreds knob, the scan is
//! branch-predictable, and it keeps eviction (true least-recently-used
//! within the shard, pending slots pinned) free of auxiliary index
//! structures that would have to stay coherent under the condvar dance.
//! Eviction counts are deterministic for a given build because the
//! shard count is a compile-time constant, not a deployment knob.

use std::sync::{Arc, Condvar, Mutex};

/// Number of key-hash shards. Fixed at compile time so cache behavior
/// (including eviction under pressure) never varies with `--workers`.
pub const DEFAULT_SHARDS: usize = 8;

/// One fold step: rotate, xor in a little-endian word, multiply.
fn step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// murmur3's 64-bit finalizer: spreads every input bit over the high
/// bits that [`ResponseCache::shard_of`] reads.
fn fmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Content hash of a key body. Four independent lanes each fold in every
/// fourth 8-byte little-endian word, so four multiply chains run side by
/// side; the lanes, the remaining words (the tail zero-padded) and the
/// length (so padding cannot alias) are then folded into one. Bodies are
/// a few hundred kilobytes, so a serial hash costs as much as parsing a
/// small one.
fn content_hash(bytes: &[u8]) -> u64 {
    let (blocks, rest) = bytes.as_chunks::<32>();
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    let mut h = lanes.into_iter().fold(0, step);
    h = words.iter().fold(h, |h, w| step(h, u64::from_le_bytes(*w)));
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    fmix(step(step(h, u64::from_le_bytes(last)), bytes.len() as u64))
}

/// The scope a key is looked up in: the model generation that answers it
/// and a namespace byte that keeps request kinds apart.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Scope {
    generation: u64,
    namespace: u8,
}

/// A request's cache key: its scope, its content, and their hash, made by
/// [`ResponseCache::scoped_key`] (or [`ResponseCache::key`] for the empty
/// scope).
pub struct CacheKey {
    hash: u64,
    scope: Scope,
    content: Arc<Vec<u8>>,
}

struct Slot {
    hash: u64,
    scope: Scope,
    content: Arc<Vec<u8>>,
    /// The shard tick at insertion: unique within the shard, it is how a
    /// reservation finds its pending slot.
    id: u64,
    /// `None` while the first arrival is still computing.
    value: Option<Arc<Vec<u8>>>,
    last_used: u64,
}

struct Inner {
    slots: Vec<Slot>,
    tick: u64,
}

impl Inner {
    fn position(&self, hash: u64, scope: Scope, content: &[u8]) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.hash == hash && s.scope == scope && s.content[..] == *content)
    }

    fn position_of(&self, id: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.id == id)
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.slots[idx].last_used = self.tick;
    }

    /// Evict completed least-recently-used slots until at most `capacity`
    /// remain. Pending slots are pinned (their reservations own them).
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.slots.len() > capacity {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.value.is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.slots.swap_remove(i);
                    evicted += 1;
                }
                None => break, // everything pending; over-capacity is transient
            }
        }
        evicted
    }
}

/// One key-hash shard: its own lock, waiters, and LRU clock.
struct CacheShard {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl CacheShard {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Shard state is only ever mutated under this lock by code that
        // does not panic; if it somehow did, serving stale-but-complete
        // slots is still sound, so shrug the poison off.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What a lookup resolved to.
pub enum Lookup<'a> {
    /// The cached (or concurrently computed) response bytes.
    Hit(Arc<Vec<u8>>),
    /// This caller must compute and then [`Reservation::fulfill`].
    Miss(Reservation<'a>),
}

/// The obligation created by a miss: the pending slot this caller must
/// fill. Dropping it unfulfilled (the compute path failed) removes the
/// slot and wakes waiters so they can take over.
pub struct Reservation<'a> {
    shard: Option<&'a CacheShard>,
    shard_capacity: usize,
    /// The pending slot's [`Slot::id`].
    id: u64,
}

impl Reservation<'_> {
    /// Publish the computed response and wake every waiter.
    pub fn fulfill(mut self, value: Arc<Vec<u8>>) {
        if let Some(shard) = self.shard.take() {
            {
                let mut inner = shard.lock();
                if let Some(idx) = inner.position_of(self.id) {
                    inner.slots[idx].value = Some(value);
                    inner.touch(idx);
                }
                let evicted = inner.evict_to(self.shard_capacity);
                if evicted > 0 {
                    spmv_observe::counter("serve.cache.evictions", evicted);
                }
            }
            shard.cond.notify_all();
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(shard) = self.shard.take() {
            {
                let mut inner = shard.lock();
                if let Some(idx) = inner.position_of(self.id) {
                    if inner.slots[idx].value.is_none() {
                        inner.slots.swap_remove(idx);
                    }
                }
            }
            shard.cond.notify_all();
        }
    }
}

/// The cache. `capacity == 0` disables it: every lookup is a miss with a
/// no-op reservation, and nothing is retained.
pub struct ResponseCache {
    /// Per-shard retained-slot budget; total capacity is spread evenly.
    shard_capacity: usize,
    disabled: bool,
    hasher: fn(&[u8]) -> u64,
    shards: Vec<CacheShard>,
}

impl ResponseCache {
    /// A cache holding up to `capacity` completed responses, spread over
    /// [`DEFAULT_SHARDS`] key-hash shards.
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (tests use 1 to pin exact
    /// global LRU ordering).
    pub fn with_shards(capacity: usize, nshards: usize) -> ResponseCache {
        let nshards = nshards.max(1);
        ResponseCache {
            shard_capacity: capacity.div_ceil(nshards),
            disabled: capacity == 0,
            hasher: content_hash,
            shards: (0..nshards)
                .map(|_| CacheShard {
                    inner: Mutex::new(Inner {
                        slots: Vec::new(),
                        tick: 0,
                    }),
                    cond: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Test hook: a single-shard cache with a custom (e.g. constant)
    /// hash function, for exercising the collision path on demand.
    #[doc(hidden)]
    pub fn with_hasher(capacity: usize, hasher: fn(&[u8]) -> u64) -> ResponseCache {
        ResponseCache {
            hasher,
            ..ResponseCache::with_shards(capacity, 1)
        }
    }

    fn shard_of(&self, hash: u64) -> &CacheShard {
        // High bits: the hash's finalizer mixes them well, and the slot
        // scan already compares the full hash so no entropy is wasted.
        let idx = (hash >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Hash `bytes` into a lookup key in the empty scope (generation 0,
    /// namespace 0).
    pub fn key(&self, bytes: Vec<u8>) -> CacheKey {
        self.scoped_key(0, 0, Arc::new(bytes))
    }

    /// A lookup key for `content` in the scope of model `generation` and
    /// `namespace`: keys differing in either never match, so a hot-swap
    /// changes every key. The content is hashed once, here, and shared
    /// with the slot rather than copied.
    pub fn scoped_key(&self, generation: u64, namespace: u8, content: Arc<Vec<u8>>) -> CacheKey {
        let scope = Scope {
            generation,
            namespace,
        };
        CacheKey {
            hash: self.hash(scope, &content),
            scope,
            content,
        }
    }

    /// The key hash: the content's hash with the scope folded in.
    fn hash(&self, scope: Scope, content: &[u8]) -> u64 {
        let h = step((self.hasher)(content), scope.generation);
        fmix(step(h, u64::from(scope.namespace)))
    }

    /// Look `key` up; either return the (possibly awaited) response bytes
    /// or make this caller responsible for computing them.
    pub fn get_or_reserve(&self, key: CacheKey) -> Lookup<'_> {
        if self.disabled {
            spmv_observe::counter("serve.cache.misses", 1);
            return Lookup::Miss(Reservation {
                shard: None,
                shard_capacity: 0,
                id: 0,
            });
        }
        let CacheKey {
            hash,
            scope,
            content,
        } = key;
        let shard = self.shard_of(hash);
        let mut inner = shard.lock();
        loop {
            match inner.position(hash, scope, &content) {
                Some(idx) if inner.slots[idx].value.is_some() => {
                    inner.touch(idx);
                    let value = match &inner.slots[idx].value {
                        Some(v) => Arc::clone(v),
                        None => continue, // unreachable: guarded above
                    };
                    spmv_observe::counter("serve.cache.hits", 1);
                    return Lookup::Hit(value);
                }
                Some(_pending) => {
                    // Another worker is computing this exact key: wait for
                    // it instead of redoing the work (single flight).
                    inner = shard
                        .cond
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                None => {
                    inner.tick += 1;
                    let id = inner.tick;
                    inner.slots.push(Slot {
                        hash,
                        scope,
                        content,
                        id,
                        value: None,
                        last_used: id,
                    });
                    spmv_observe::counter("serve.cache.misses", 1);
                    return Lookup::Miss(Reservation {
                        shard: Some(shard),
                        shard_capacity: self.shard_capacity,
                        id,
                    });
                }
            }
        }
    }

    /// Whether a *completed* entry for `key` (in the empty scope) is
    /// resident (no recency bump, no counters). Test/introspection helper.
    pub fn contains(&self, key: &[u8]) -> bool {
        if self.disabled {
            return false;
        }
        let scope = Scope {
            generation: 0,
            namespace: 0,
        };
        let hash = self.hash(scope, key);
        let shard = self.shard_of(hash);
        let inner = shard.lock();
        inner
            .position(hash, scope, key)
            .is_some_and(|idx| inner.slots[idx].value.is_some())
    }

    /// Number of resident slots (completed + pending), summed across
    /// shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slots.len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn get<'a>(cache: &'a ResponseCache, key: &[u8]) -> Lookup<'a> {
        cache.get_or_reserve(cache.key(key.to_vec()))
    }

    fn fill(cache: &ResponseCache, key: &[u8], value: &[u8]) {
        match get(cache, key) {
            Lookup::Miss(res) => res.fulfill(Arc::new(value.to_vec())),
            Lookup::Hit(_) => panic!("expected a miss for {key:?}"),
        }
    }

    #[test]
    fn hit_returns_the_fulfilled_bytes() {
        let cache = ResponseCache::new(4);
        fill(&cache, b"k", b"response");
        match get(&cache, b"k") {
            Lookup::Hit(v) => assert_eq!(&**v, b"response"),
            Lookup::Miss(_) => panic!("expected hit"),
        };
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        // Single shard pins global LRU order.
        let cache = ResponseCache::with_shards(2, 1);
        fill(&cache, b"a", b"1");
        fill(&cache, b"b", b"2");
        // Touch `a`, making `b` the LRU victim.
        assert!(matches!(get(&cache, b"a"), Lookup::Hit(_)));
        fill(&cache, b"c", b"3");
        assert!(cache.contains(b"a"));
        assert!(!cache.contains(b"b"), "b was least recently used");
        assert!(cache.contains(b"c"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_cache_retains_at_most_capacity_overall() {
        let cache = ResponseCache::new(16);
        for i in 0..64u32 {
            fill(&cache, &i.to_le_bytes(), b"v");
        }
        // Per-shard budget is ceil(16/8) = 2; with 8 shards the total
        // retained population never exceeds the requested capacity.
        assert!(cache.len() <= 16, "len = {}", cache.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn colliding_hashes_do_not_alias() {
        // Constant hasher: every key collides (and lands in one shard).
        let cache = ResponseCache::with_hasher(4, |_| 42);
        fill(&cache, b"alpha", b"A");
        fill(&cache, b"beta", b"B");
        match get(&cache, b"alpha") {
            Lookup::Hit(v) => assert_eq!(&**v, b"A"),
            Lookup::Miss(_) => panic!("alpha should be resident"),
        }
        match get(&cache, b"beta") {
            Lookup::Hit(v) => assert_eq!(&**v, b"B"),
            Lookup::Miss(_) => panic!("beta should be resident"),
        };
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = ResponseCache::new(0);
        fill(&cache, b"k", b"v");
        assert!(matches!(get(&cache, b"k"), Lookup::Miss(_)));
        assert!(cache.is_empty());
    }

    #[test]
    fn aborted_reservation_unblocks_the_key() {
        let cache = ResponseCache::new(4);
        match get(&cache, b"k") {
            Lookup::Miss(res) => drop(res), // compute "failed"
            Lookup::Hit(_) => panic!(),
        }
        // The key is free again: the next arrival recomputes.
        assert!(matches!(get(&cache, b"k"), Lookup::Miss(_)));
    }

    #[test]
    fn single_flight_waiters_get_the_leaders_bytes() {
        let cache = Arc::new(ResponseCache::new(4));
        let res = match get(&cache, b"k") {
            Lookup::Miss(res) => res,
            Lookup::Hit(_) => panic!(),
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match get(&cache, b"k") {
                    Lookup::Hit(v) => v,
                    Lookup::Miss(_) => panic!("waiter must not recompute"),
                })
            })
            .collect();
        // Give the waiters time to block on the pending slot.
        std::thread::sleep(std::time::Duration::from_millis(30));
        res.fulfill(Arc::new(b"computed-once".to_vec()));
        for w in waiters {
            assert_eq!(&**w.join().unwrap(), b"computed-once");
        }
    }

    #[test]
    fn pending_slots_are_never_evicted() {
        let cache = ResponseCache::with_shards(1, 1);
        let pending = match get(&cache, b"pinned") {
            Lookup::Miss(res) => res,
            Lookup::Hit(_) => panic!(),
        };
        fill(&cache, b"other", b"x"); // over capacity while `pinned` is pending
        pending.fulfill(Arc::new(b"done".to_vec()));
        assert!(cache.contains(b"pinned"));
        assert!(cache.len() <= 1 || cache.contains(b"pinned"));
    }

    #[test]
    fn hit_miss_totals_are_shard_count_invariant() {
        // The same key sequence produces identical hit/miss behavior at
        // 1 and 8 shards: every key's single flight lives in its home
        // shard, so lookups resolve the same way.
        for nshards in [1usize, 8] {
            let cache = ResponseCache::with_shards(64, nshards);
            let keys: Vec<Vec<u8>> = (0..16u32).map(|i| i.to_le_bytes().to_vec()).collect();
            for k in &keys {
                assert!(
                    matches!(get(&cache, k), Lookup::Miss(_)),
                    "first sight must miss at {nshards} shards"
                );
                // Unfulfilled reservation dropped: recomputes next time.
            }
            for k in &keys {
                fill(&cache, k, b"v");
            }
            for k in &keys {
                assert!(
                    matches!(get(&cache, k), Lookup::Hit(_)),
                    "fulfilled key must hit at {nshards} shards"
                );
            }
        }
    }
}
