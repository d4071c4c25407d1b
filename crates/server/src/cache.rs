//! Instance and hierarchy caches.
//!
//! The service's traffic shape (the ROADMAP north star) is heavy query
//! volume over *few* netlists: the same instance partitioned again and
//! again under different balance constraints, part counts, and budgets.
//! Two cache layers exploit that:
//!
//! * the **instance cache** maps a content digest
//!   ([`Hypergraph::content_digest`]) to the parsed CSR, so repeat jobs
//!   skip parsing and share one immutable `Arc<Hypergraph>`;
//! * the **hierarchy cache** maps `(digest, coarsening config, seed)` to
//!   a frozen [`SharedHierarchy`], so a re-query with a new balance or
//!   `k` pays only initial partitioning + refinement. The key includes
//!   the seed because the hierarchy is a pure function of
//!   `(instance, config, seed)` — a hit is *bitwise* the hierarchy a
//!   fresh build would produce, which is what keeps cache hits
//!   trace-equivalent to cold runs (modulo the leading
//!   `hierarchy_reused` event).
//!
//! Both are one [`CountedCache`]: a bounded FIFO map behind a mutex,
//! small, predictable, and free of clock-driven eviction so behavior
//! stays deterministic under test.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hypart_core::SharedHierarchy;
use hypart_hypergraph::Hypergraph;
use hypart_ml::coarsen::{CoarsenConfig, CoarsenScheme};

/// A map holding at most `capacity` entries: inserting a new key past
/// the bound evicts the oldest key. Replacing a key's value keeps its
/// place in the eviction order.
pub(crate) struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> FifoMap<K, V> {
    /// An empty map holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// A bounded FIFO cache shared by the worker threads. Hit/miss counters
/// are monotonically increasing and exposed through the `stats` op.
pub struct CountedCache<K, V> {
    inner: Mutex<FifoMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Digest-keyed cache of parsed instances.
pub type InstanceCache = CountedCache<u128, Arc<Hypergraph>>;

/// `(digest, coarsening config, seed)`-keyed cache of frozen coarsening
/// hierarchies. Concurrent misses for the same key may each build the
/// hierarchy; both builds are bitwise identical (pure function of the
/// key), so last-insert-wins is harmless.
pub type HierarchyCache = CountedCache<HierarchyKey, SharedHierarchy>;

impl<K: std::hash::Hash + Eq + Clone, V: Clone> CountedCache<K, V> {
    /// Creates a cache retaining at most `capacity` entries (FIFO).
    pub fn new(capacity: usize) -> Self {
        CountedCache {
            inner: Mutex::new(FifoMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks an entry up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Registers a freshly built entry.
    pub fn insert(&self, key: K, value: V) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, value);
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries currently retained (for the `ping` health
    /// snapshot).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The hierarchy-cache key: instance digest plus every knob the
/// hierarchy depends on. `CoarsenConfig` carries `f64` fields, so the
/// key stores their IEEE bit patterns — exact equality, no float
/// comparison pitfalls (a NaN-configured cache key would simply never
/// hit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HierarchyKey {
    digest: u128,
    scheme: u8,
    stop_size: usize,
    shrink_bits: u64,
    max_net_size: usize,
    cap_bits: u64,
    seed: u64,
}

impl HierarchyKey {
    /// Builds the key for `(digest, config, seed)`.
    pub fn new(digest: u128, config: &CoarsenConfig, seed: u64) -> Self {
        HierarchyKey {
            digest,
            scheme: match config.scheme {
                CoarsenScheme::FirstChoice => 0,
                CoarsenScheme::HeavyEdge => 1,
            },
            stop_size: config.stop_size,
            shrink_bits: config.shrink_threshold.to_bits(),
            max_net_size: config.max_net_size_for_matching,
            cap_bits: config.cluster_cap_multiple.to_bits(),
            seed,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_core::Hierarchy;

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
        cfg.shrink_threshold += 0.01;
        assert_ne!(k0, HierarchyKey::new(1, &cfg, 7));
        let mut cfg = base;
        cfg.cluster_cap_multiple += 0.5;
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
}
