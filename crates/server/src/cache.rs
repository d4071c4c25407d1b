//! Instance and hierarchy caches.
//!
//! The service's traffic shape (the ROADMAP north star) is heavy query
//! volume over *few* netlists: the same instance partitioned again and
//! again under different balance constraints, part counts, budgets and
//! seeds. Two cache layers exploit that:
//!
//! * the **instance cache** maps a content digest
//!   ([`Hypergraph::content_digest`]) to the parsed CSR, so repeat jobs
//!   skip parsing and share one immutable `Arc<Hypergraph>`;
//! * the **hierarchy cache** maps `(digest, coarsening config, seed)` to
//!   a frozen [`SharedHierarchy`], so a 2-way re-query with the same
//!   seed and a new balance or budget pays only initial partitioning +
//!   refinement. A `k > 2` job runs recursive bisection, which coarsens
//!   each induced subregion afresh and never consults this cache. The
//!   key includes the seed because the hierarchy is a pure function of
//!   `(instance, config, seed)` — a hit is *bitwise* the hierarchy a
//!   fresh build would produce, which is what keeps cache hits
//!   trace-equivalent to cold runs (modulo the leading
//!   `hierarchy_reused` event).
//!
//! Both are one [`CountedCache`]: a bounded map behind a mutex with hit
//! and miss counters, free of clock-driven eviction so behavior stays
//! deterministic under test. They differ in what they keep. The instance
//! cache is a [`FifoMap`], which keeps the newest instances whatever
//! their reuse: its misses are client-visible (`unknown_instance`). The
//! hierarchy cache is a [`TwoQueue`]: a seeded multi-start client sends
//! most 2-way jobs with a fresh seed, whose hierarchy is never looked up
//! again, so a reused hierarchy stays resident and a one-shot one only
//! passes through a small probation queue.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hypart_core::SharedHierarchy;
use hypart_hypergraph::Hypergraph;
use hypart_ml::coarsen::CoarsenConfig;

/// A map holding at most `capacity` entries: inserting a new key past
/// the bound evicts the oldest key. Replacing a key's value keeps its
/// place in the eviction order.
pub(crate) struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> FifoMap<K, V> {
    /// An empty map holding at most `capacity` entries (none at 0).
    pub(crate) fn new(capacity: usize) -> Self {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts or replaces `key`'s value. Returns the entry a new key
    /// pushed out: the oldest, or at capacity 0 the new one itself.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.map.insert(key.clone(), value).is_some() {
            return None;
        }
        self.order.push_back(key);
        if self.order.len() <= self.capacity {
            return None;
        }
        let oldest = self.order.pop_front()?;
        let value = self.map.remove(&oldest)?;
        Some((oldest, value))
    }

    /// Removes `key`, returning its value.
    fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        self.order.retain(|k| k != key);
        Some(value)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The 2Q admission rule of Johnson and Shasha ("2Q: A Low Overhead High
/// Performance Buffer Management Replacement Algorithm", VLDB 1994),
/// holding at most `capacity` values in three [`FifoMap`]s:
///
/// * **probation** takes every new key, max(1, ⌊capacity/4⌋) of them. A
///   hit there promotes the entry to main; at capacity 1, where main is
///   empty, it stays.
/// * **ghosts** keep, without their values, the last ⌊capacity/2⌋ keys
///   that probation pushed out. A ghost key's next insert goes straight
///   to main.
/// * **main** holds the rest of the capacity, oldest-first, and leaves
///   no ghost.
///
/// So a key looked up again before probation fills with other new keys
/// hits, and once hit it survives any number of one-shot keys, until
/// main fills with other promoted keys.
pub(crate) struct TwoQueue<K, V> {
    probation: FifoMap<K, V>,
    main: FifoMap<K, V>,
    ghosts: FifoMap<K, ()>,
}

/// What a [`CountedCache`] keeps its entries in, and which it evicts.
pub(crate) trait Store {
    type Key;
    type Value;
    /// An empty store holding at most `capacity` values.
    fn with_capacity(capacity: usize) -> Self;
    /// The value held under `key`, if any.
    fn lookup(&mut self, key: &Self::Key) -> Option<Self::Value>;
    /// Registers a freshly built value.
    fn admit(&mut self, key: Self::Key, value: Self::Value);
    /// Number of values held.
    fn held(&self) -> usize;
}

impl<K: Hash + Eq + Clone, V: Clone> Store for FifoMap<K, V> {
    type Key = K;
    type Value = V;
    fn with_capacity(capacity: usize) -> Self {
        FifoMap::new(capacity)
    }
    fn lookup(&mut self, key: &K) -> Option<V> {
        self.get(key)
    }
    fn admit(&mut self, key: K, value: V) {
        self.insert(key, value);
    }
    fn held(&self) -> usize {
        self.len()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Store for TwoQueue<K, V> {
    type Key = K;
    type Value = V;

    fn with_capacity(capacity: usize) -> Self {
        let probation = (capacity / 4).max(1);
        TwoQueue {
            probation: FifoMap::new(probation),
            main: FifoMap::new(capacity.saturating_sub(probation)),
            ghosts: FifoMap::new(capacity / 2),
        }
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        if let Some(value) = self.main.get(key) {
            return Some(value);
        }
        let value = self.probation.get(key)?;
        if self.main.capacity > 0 {
            self.probation.remove(key);
            self.main.insert(key.clone(), value.clone());
        }
        Some(value)
    }

    /// A key already held (two workers missed on it at once) keeps its
    /// place and value: both builds are the same pure function of the key.
    fn admit(&mut self, key: K, value: V) {
        if self.main.contains_key(&key) || self.probation.contains_key(&key) {
            return;
        }
        if self.ghosts.remove(&key).is_some() {
            self.main.insert(key, value);
        } else if let Some((pushed, _)) = self.probation.insert(key, value) {
            self.ghosts.insert(pushed, ());
        }
    }

    fn held(&self) -> usize {
        self.probation.len() + self.main.len()
    }
}

/// A bounded cache shared by the worker threads. Hit/miss counters
/// are monotonically increasing and exposed through the `stats` op.
pub(crate) struct CountedCache<S> {
    inner: Mutex<S>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Digest-keyed cache of parsed instances (FIFO).
pub(crate) type InstanceCache = CountedCache<FifoMap<u128, Arc<Hypergraph>>>;

/// `(digest, coarsening config, seed)`-keyed cache of frozen coarsening
/// hierarchies (2Q). Concurrent misses for the same key may each build
/// the hierarchy; both builds are bitwise identical (pure function of
/// the key), so whichever lands first is kept.
pub(crate) type HierarchyCache = CountedCache<TwoQueue<HierarchyKey, SharedHierarchy>>;

impl<S: Store> CountedCache<S> {
    /// Creates a cache holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        CountedCache {
            inner: Mutex::new(S::with_capacity(capacity.max(1))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks an entry up, counting a hit or miss.
    pub(crate) fn get(&self, key: &S::Key) -> Option<S::Value> {
        let found = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Registers a freshly built entry.
    pub(crate) fn insert(&self, key: S::Key, value: S::Value) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(key, value);
    }

    /// Cumulative hit count.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative miss count.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries currently held (for the `ping` health
    /// snapshot).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).held()
    }
}

/// The hierarchy-cache key: instance digest, coarsening config and seed
/// — everything the hierarchy depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct HierarchyKey {
    digest: u128,
    coarsen: CoarsenConfig,
    seed: u64,
}

impl HierarchyKey {
    /// Builds the key for `(digest, config, seed)`.
    pub(crate) fn new(digest: u128, config: &CoarsenConfig, seed: u64) -> Self {
        HierarchyKey {
            digest,
            coarsen: *config,
            seed,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_core::Hierarchy;
    use hypart_ml::coarsen::CoarsenScheme;

    fn toy_graph(n: usize) -> Arc<Hypergraph> {
        let mut b = hypart_hypergraph::HypergraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in vs.windows(2) {
            b.add_net([w[0], w[1]], 1).unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn instance_cache_hits_and_evicts_fifo() {
        let cache = InstanceCache::new(2);
        let (a, b, c) = (toy_graph(3), toy_graph(4), toy_graph(5));
        let (da, db, dc) = (a.content_digest(), b.content_digest(), c.content_digest());
        assert!(cache.get(&da).is_none());
        cache.insert(da, Arc::clone(&a));
        cache.insert(db, Arc::clone(&b));
        assert!(cache.get(&da).is_some());
        assert!(cache.get(&db).is_some());
        cache.insert(dc, Arc::clone(&c)); // evicts the oldest (a)
        assert!(cache.get(&da).is_none());
        assert!(cache.get(&dc).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn hierarchy_key_distinguishes_every_knob() {
        let base = CoarsenConfig::default();
        let k0 = HierarchyKey::new(1, &base, 7);
        assert_eq!(k0, HierarchyKey::new(1, &base, 7));
        assert_ne!(k0, HierarchyKey::new(2, &base, 7));
        assert_ne!(k0, HierarchyKey::new(1, &base, 8));
        let mut cfg = base;
        cfg.scheme = CoarsenScheme::HeavyEdge;
        assert_ne!(k0, HierarchyKey::new(1, &cfg, 7));
        let mut cfg = base;
        cfg.stop_size += 1;
        assert_ne!(k0, HierarchyKey::new(1, &cfg, 7));
        let mut cfg = base;
        cfg.max_net_size_for_matching += 1;
        assert_ne!(k0, HierarchyKey::new(1, &cfg, 7));
    }

    #[test]
    fn hierarchy_cache_round_trips() {
        let cache = HierarchyCache::new(4);
        let key = HierarchyKey::new(9, &CoarsenConfig::default(), 3);
        assert!(cache.get(&key).is_none());
        cache.insert(key, Hierarchy::new(Vec::new()).into_shared());
        let hit = cache.get(&key).unwrap();
        assert!(hit.is_empty());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    /// The capacities the 2Q rule is checked at: every one up to 8, where
    /// the queue sizes' rounding changes most, and the daemon's default.
    const CAPACITIES: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 32];

    fn probation_len(capacity: usize) -> usize {
        (capacity / 4).max(1)
    }

    /// What the daemon does per 2-way job: look the key up, and insert a
    /// rebuilt value on a miss. Returns whether it hit.
    fn query(q: &mut TwoQueue<u64, u64>, key: u64) -> bool {
        let hit = q.lookup(&key).is_some();
        if !hit {
            q.admit(key, key);
        }
        hit
    }

    /// Keys `base..` that no test queries twice.
    fn one_shots(base: u64, n: usize) -> impl Iterator<Item = u64> {
        (0..n as u64).map(move |i| base + i)
    }

    #[test]
    fn two_queue_never_holds_more_than_its_capacity() {
        for capacity in CAPACITIES {
            let mut q = TwoQueue::with_capacity(capacity);
            // A stream mixing re-queries and one-shot keys: each step
            // picks from a key range three times the capacity.
            let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ capacity as u64;
            for _ in 0..2000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                query(&mut q, (state >> 33) % (3 * capacity as u64));
                assert!(q.held() <= capacity, "capacity {capacity}: {}", q.held());
                assert!(q.ghosts.len() <= capacity / 2, "capacity {capacity}");
                for key in q.probation.map.keys() {
                    assert!(!q.main.contains_key(key) && !q.ghosts.contains_key(key));
                }
                for key in q.main.map.keys() {
                    assert!(!q.ghosts.contains_key(key));
                }
            }
        }
    }

    #[test]
    fn a_key_queried_again_before_probation_fills_hits() {
        for capacity in CAPACITIES {
            let probation = probation_len(capacity);
            for others in 0..=probation {
                let mut q = TwoQueue::with_capacity(capacity);
                assert!(!query(&mut q, 0));
                for key in one_shots(100, others) {
                    assert!(!query(&mut q, key));
                }
                assert_eq!(
                    query(&mut q, 0),
                    others < probation,
                    "capacity {capacity}, {others} other new keys"
                );
            }
        }
    }

    #[test]
    fn a_hit_key_outlives_one_shot_keys_until_main_fills() {
        for capacity in CAPACITIES.into_iter().filter(|&c| c >= 2) {
            let main = capacity - probation_len(capacity);
            for promoted in 0..=main {
                let mut q = TwoQueue::with_capacity(capacity);
                query(&mut q, 0);
                assert!(query(&mut q, 0), "capacity {capacity}: promotion");
                // One-shot keys before, between and after the promotions.
                let mut next = 1000;
                for p in 0..promoted as u64 {
                    for key in one_shots(next, 3 * capacity) {
                        query(&mut q, key);
                    }
                    next += 3 * capacity as u64;
                    query(&mut q, 1 + p);
                    assert!(query(&mut q, 1 + p), "capacity {capacity}: promotion");
                }
                for key in one_shots(next, 10 * capacity) {
                    query(&mut q, key);
                }
                assert_eq!(
                    query(&mut q, 0),
                    promoted < main,
                    "capacity {capacity}, {promoted} other keys promoted"
                );
            }
        }
    }

    #[test]
    fn a_ghost_key_is_admitted_to_main() {
        for capacity in CAPACITIES.into_iter().filter(|&c| c >= 2) {
            let probation = probation_len(capacity);
            let mut q = TwoQueue::with_capacity(capacity);
            query(&mut q, 0);
            for key in one_shots(100, probation) {
                query(&mut q, key);
            }
            assert!(q.ghosts.contains_key(&0), "capacity {capacity}");
            assert!(!query(&mut q, 0), "a ghost holds no value");
            assert!(q.main.contains_key(&0), "capacity {capacity}");
            assert!(!q.probation.contains_key(&0) && !q.ghosts.contains_key(&0));
        }
    }

    #[test]
    fn at_capacity_one_a_probation_hit_stays_in_probation() {
        let mut q = TwoQueue::with_capacity(1);
        assert!(!query(&mut q, 0));
        assert!(query(&mut q, 0));
        assert!(q.probation.contains_key(&0));
        assert_eq!((q.held(), q.main.len(), q.ghosts.len()), (1, 0, 0));
        assert!(!query(&mut q, 1));
        assert!(!query(&mut q, 0), "the next new key pushes it out");
    }

    #[test]
    fn a_concurrent_rebuild_of_a_held_key_is_not_held_twice() {
        let mut q = TwoQueue::with_capacity(8);
        q.admit(0, 0);
        assert_eq!(q.lookup(&0), Some(0)); // promoted to main
        q.admit(0, 0); // a second worker's build of the same key
        assert_eq!((q.main.len(), q.probation.len()), (1, 0));
    }
}
