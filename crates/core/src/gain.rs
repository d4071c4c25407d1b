//! The FM gain container: a bucket array of intrusive doubly-linked lists.
//!
//! One container holds the pending moves of the free vertices currently in
//! one partition (moves are segregated by source partition, which is what
//! creates the two-highest-gain-buckets tie the paper's `TieBreak` knob
//! resolves). Buckets are indexed by the move's key — the current gain for
//! classic FM, the cumulative delta gain for CLIP — and every structural
//! operation is O(1).
//!
//! Where a vertex is attached within its bucket is the
//! [`InsertionPolicy`] decision (LIFO / FIFO / random); the engine passes
//! the policy (and its RNG) down to every insertion.
//!
//! A bitmap with one bit per bucket marks the non-empty ones, so the
//! selection scan ([`descend_max`](GainContainer::descend_max),
//! [`next_key_below`](GainContainer::next_key_below)) jumps over runs of
//! empty buckets a 64-bit word at a time instead of stepping key by key.

use rand::Rng;

use crate::config::InsertionPolicy;
use hypart_hypergraph::VertexId;

const NIL: u32 = u32::MAX;

/// Bucket-array priority structure over vertices keyed by gain.
///
/// Capacity is set at construction (vertex ids in `0..num_vertices`, keys
/// in `-max_abs_key..=max_abs_key`) and can be re-pointed at a new target
/// with [`retarget`](Self::retarget), which keeps the allocations — this
/// is what lets an [`crate::FmWorkspace`] reuse one arena across passes,
/// levels, and starts. [`clear`](Self::clear) is O(len + buckets touched),
/// not O(bucket range): insertions record the buckets they dirty and only
/// those are reset. A per-bucket bit marks the non-empty buckets for the
/// selection scan. Exposed publicly so that other engines (e.g. n-level
/// localized FM) can build on the same audited container — the paper
/// argues that *benchmark algorithm implementations* in source form are
/// as valuable as benchmark data.
#[derive(Clone, Debug)]
pub struct GainContainer {
    /// Array capacity: bucket indices cover keys in `[-offset, offset]`.
    /// May exceed `bound` after a [`retarget`](Self::retarget) to a
    /// smaller key range (capacity is grow-only so reuse stays cheap).
    offset: i64,
    /// Declared logical key bound: every stored key must lie in
    /// `[-bound, bound]` (debug-asserted on every insertion).
    bound: i64,
    head: Vec<u32>,
    tail: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    key_of: Vec<i64>,
    present: Vec<bool>,
    /// Bucket indices dirtied since the last clear — the lazy-clear
    /// work list. A bucket is pushed at most once (guarded by `dirty`).
    touched: Vec<u32>,
    dirty: Vec<bool>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    nonempty: Vec<u64>,
    max_key: i64,
    len: usize,
}

impl GainContainer {
    /// Creates an empty container for `num_vertices` vertices and keys in
    /// `[-max_abs_key, max_abs_key]`.
    pub fn new(num_vertices: usize, max_abs_key: i64) -> Self {
        assert!(max_abs_key >= 0, "key bound must be non-negative");
        let buckets = (2 * max_abs_key + 1) as usize;
        GainContainer {
            offset: max_abs_key,
            bound: max_abs_key,
            head: vec![NIL; buckets],
            tail: vec![NIL; buckets],
            prev: vec![NIL; num_vertices],
            next: vec![NIL; num_vertices],
            key_of: vec![0; num_vertices],
            present: vec![false; num_vertices],
            touched: Vec::new(),
            dirty: vec![false; buckets],
            nonempty: vec![0; buckets.div_ceil(64)],
            max_key: -max_abs_key - 1,
            len: 0,
        }
    }

    /// Re-points this container at a (possibly different) vertex count and
    /// key bound, clearing it. Arena reuse for [`crate::FmWorkspace`]:
    /// existing allocations are kept and only *grown* when the new target
    /// exceeds capacity, so re-targeting an already-large container is
    /// O(len + buckets touched) instead of O(V + bucket range).
    pub fn retarget(&mut self, num_vertices: usize, max_abs_key: i64) {
        assert!(max_abs_key >= 0, "key bound must be non-negative");
        self.clear();
        if max_abs_key > self.offset {
            // All buckets are NIL after the clear, so re-basing the
            // key -> bucket mapping needs no relocation.
            let buckets = (2 * max_abs_key + 1) as usize;
            self.head.resize(buckets, NIL);
            self.tail.resize(buckets, NIL);
            self.dirty.resize(buckets, false);
            self.nonempty.resize(buckets.div_ceil(64), 0);
            self.offset = max_abs_key;
        }
        if num_vertices > self.prev.len() {
            self.prev.resize(num_vertices, NIL);
            self.next.resize(num_vertices, NIL);
            self.key_of.resize(num_vertices, 0);
            self.present.resize(num_vertices, false);
        }
        self.bound = max_abs_key;
        self.max_key = -max_abs_key - 1;
    }

    #[inline]
    fn bucket(&self, key: i64) -> usize {
        debug_assert!(
            key >= -self.bound && key <= self.bound,
            "key {key} out of declared bound ±{}",
            self.bound
        );
        let idx = key + self.offset;
        debug_assert!(
            idx >= 0 && (idx as usize) < self.head.len(),
            "key {key} out of range ±{}",
            self.offset
        );
        idx as usize
    }

    /// Marks `b` non-empty and dirty, scheduling it for the next
    /// [`clear`](Self::clear).
    #[inline]
    fn touch(&mut self, b: usize) {
        self.nonempty[b / 64] |= 1 << (b % 64);
        if !self.dirty[b] {
            self.dirty[b] = true;
            self.touched.push(b as u32);
        }
    }

    /// Marks `b` empty.
    #[inline]
    fn mark_empty(&mut self, b: usize) {
        self.nonempty[b / 64] &= !(1 << (b % 64));
    }

    /// The highest non-empty bucket at or below bucket `b`.
    #[inline]
    fn nonempty_at_or_below(&self, b: usize) -> Option<usize> {
        let mut word = b / 64;
        // Keep bits 0..=b % 64 of the first word.
        let mut bits = self.nonempty[word] & (u64::MAX >> (63 - b % 64));
        while bits == 0 {
            word = word.checked_sub(1)?;
            bits = self.nonempty[word];
        }
        Some(word * 64 + 63 - bits.leading_zeros() as usize)
    }

    /// Number of vertices currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no vertices are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `v` is currently stored.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.present[v.index()]
    }

    /// Current key of `v`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is not present.
    #[inline]
    pub fn key_of(&self, v: VertexId) -> i64 {
        debug_assert!(self.present[v.index()]);
        self.key_of[v.index()]
    }

    /// Inserts `v` with `key` at the position chosen by `policy`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is already present or `key` is out
    /// of range.
    pub fn insert<R: Rng>(&mut self, v: VertexId, key: i64, policy: InsertionPolicy, rng: &mut R) {
        let at_head = match policy {
            InsertionPolicy::Lifo => true,
            InsertionPolicy::Fifo => false,
            InsertionPolicy::Random => rng.gen::<bool>(),
        };
        if at_head {
            self.push_head(v, key);
        } else {
            self.push_tail(v, key);
        }
    }

    /// Inserts `v` with `key` at the head of its bucket (unconditional LIFO
    /// — used for CLIP pass seeding, which prescribes its own order).
    pub fn push_head(&mut self, v: VertexId, key: i64) {
        debug_assert!(!self.present[v.index()], "{v:?} already present");
        let b = self.bucket(key);
        self.touch(b);
        let old = self.head[b];
        self.next[v.index()] = old;
        self.prev[v.index()] = NIL;
        if old == NIL {
            self.tail[b] = v.raw();
        } else {
            self.prev[old as usize] = v.raw();
        }
        self.head[b] = v.raw();
        self.key_of[v.index()] = key;
        self.present[v.index()] = true;
        self.len += 1;
        self.max_key = self.max_key.max(key);
    }

    /// Inserts `v` with `key` at the tail of its bucket.
    pub fn push_tail(&mut self, v: VertexId, key: i64) {
        debug_assert!(!self.present[v.index()], "{v:?} already present");
        let b = self.bucket(key);
        self.touch(b);
        let old = self.tail[b];
        self.prev[v.index()] = old;
        self.next[v.index()] = NIL;
        if old == NIL {
            self.head[b] = v.raw();
        } else {
            self.next[old as usize] = v.raw();
        }
        self.tail[b] = v.raw();
        self.key_of[v.index()] = key;
        self.present[v.index()] = true;
        self.len += 1;
        self.max_key = self.max_key.max(key);
    }

    /// Removes `v`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is not present.
    pub fn remove(&mut self, v: VertexId) {
        debug_assert!(self.present[v.index()], "{v:?} not present");
        let b = self.bucket(self.key_of[v.index()]);
        let p = self.prev[v.index()];
        let n = self.next[v.index()];
        if p == NIL {
            self.head[b] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[b] = p;
        } else {
            self.prev[n as usize] = p;
        }
        if p == NIL && n == NIL {
            self.mark_empty(b);
        }
        self.present[v.index()] = false;
        self.len -= 1;
        // max_key is a lazy upper bound; it descends in `descend_max`.
    }

    /// Moves `v` to `new_key`, re-attaching it per `policy`. This is the
    /// operation whose *zero-delta* invocation the paper's
    /// `ZeroDeltaPolicy` knob controls: calling it with `new_key ==
    /// key_of(v)` still shifts the vertex's position within its bucket.
    pub fn update<R: Rng>(
        &mut self,
        v: VertexId,
        new_key: i64,
        policy: InsertionPolicy,
        rng: &mut R,
    ) {
        self.remove(v);
        self.insert(v, new_key, policy, rng);
    }

    /// Lowers the lazy max-key bound past empty buckets and returns the
    /// highest non-empty key, or `None` if the container is empty.
    pub fn descend_max(&mut self) -> Option<i64> {
        if self.len == 0 {
            self.max_key = -self.bound - 1;
            return None;
        }
        // Every stored key is at most `max_key`, so a bucket is found.
        let b = self.nonempty_at_or_below(self.bucket(self.max_key))?;
        self.max_key = b as i64 - self.offset;
        Some(self.max_key)
    }

    /// The highest non-empty key below `key`, or `None` if every bucket
    /// below it is empty: the next bucket a selection scan examines after
    /// the one at `key`.
    pub fn next_key_below(&self, key: i64) -> Option<i64> {
        if key <= -self.bound {
            return None;
        }
        let start = (key - 1).min(self.bound);
        let b = self.nonempty_at_or_below(self.bucket(start))?;
        Some(b as i64 - self.offset)
    }

    /// Head vertex of the bucket at `key`, if any. (Without descending the
    /// lazy max bound — combine with [`descend_max`](Self::descend_max) and
    /// [`next_key_below`](Self::next_key_below) for selection scans.)
    #[inline]
    pub fn head_of(&self, key: i64) -> Option<VertexId> {
        if key < -self.bound || key > self.bound {
            return None;
        }
        let h = self.head[self.bucket(key)];
        (h != NIL).then(|| VertexId::new(h))
    }

    /// Successor of `v` within its bucket, if any.
    #[inline]
    pub fn next_in_bucket(&self, v: VertexId) -> Option<VertexId> {
        debug_assert!(self.present[v.index()]);
        let n = self.next[v.index()];
        (n != NIL).then(|| VertexId::new(n))
    }

    /// Minimum representable key.
    #[inline]
    pub fn min_key_bound(&self) -> i64 {
        -self.bound
    }

    /// Number of buckets dirtied since the last clear — the exact count
    /// the next [`clear`](Self::clear) will walk. Exposed so tests (and
    /// diagnostics) can observe that clearing is O(len + buckets touched)
    /// rather than O(bucket range).
    #[inline]
    pub fn touched_buckets(&self) -> usize {
        self.touched.len()
    }

    /// Removes all vertices in O(len + buckets touched): only buckets an
    /// insertion dirtied since the last clear are walked and reset — never
    /// the whole bucket range, which for macro-heavy instances is orders
    /// of magnitude wider than the set of keys actually used. (Every set
    /// bitmap bit belongs to a touched bucket, so zeroing the touched
    /// buckets' words clears the bitmap.)
    pub fn clear(&mut self) {
        for &b in &self.touched {
            let b = b as usize;
            let mut cur = self.head[b];
            while cur != NIL {
                self.present[cur as usize] = false;
                cur = self.next[cur as usize];
            }
            self.head[b] = NIL;
            self.tail[b] = NIL;
            self.dirty[b] = false;
            self.nonempty[b / 64] = 0;
        }
        self.touched.clear();
        self.len = 0;
        self.max_key = -self.bound - 1;
    }

    /// Full contents of the bucket at `key`, head to tail. Intended for
    /// tests and diagnostics (O(bucket length)).
    pub fn bucket_contents(&self, key: i64) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut cur = self.head_of(key);
        while let Some(v) = cur {
            out.push(v);
            cur = self.next_in_bucket(v);
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn lifo_inserts_at_head() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), 3, InsertionPolicy::Lifo, &mut r);
        g.insert(v(1), 3, InsertionPolicy::Lifo, &mut r);
        g.insert(v(2), 3, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.bucket_contents(3), vec![v(2), v(1), v(0)]);
    }

    #[test]
    fn fifo_inserts_at_tail() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), -2, InsertionPolicy::Fifo, &mut r);
        g.insert(v(1), -2, InsertionPolicy::Fifo, &mut r);
        g.insert(v(2), -2, InsertionPolicy::Fifo, &mut r);
        assert_eq!(g.bucket_contents(-2), vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn remove_relinks_neighbors() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        for i in 0..4 {
            g.insert(v(i), 0, InsertionPolicy::Fifo, &mut r);
        }
        g.remove(v(1));
        assert_eq!(g.bucket_contents(0), vec![v(0), v(2), v(3)]);
        g.remove(v(0)); // head
        assert_eq!(g.bucket_contents(0), vec![v(2), v(3)]);
        g.remove(v(3)); // tail
        assert_eq!(g.bucket_contents(0), vec![v(2)]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn descend_max_finds_highest_nonempty() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), -5, InsertionPolicy::Lifo, &mut r);
        g.insert(v(1), 7, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.descend_max(), Some(7));
        g.remove(v(1));
        assert_eq!(g.descend_max(), Some(-5));
        g.remove(v(0));
        assert_eq!(g.descend_max(), None);
    }

    #[test]
    fn update_moves_between_buckets() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), 2, InsertionPolicy::Lifo, &mut r);
        g.update(v(0), -1, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.key_of(v(0)), -1);
        assert!(g.head_of(2).is_none());
        assert_eq!(g.head_of(-1), Some(v(0)));
    }

    #[test]
    fn zero_delta_update_shifts_position_under_lifo() {
        // This is the "All∆gain" effect: re-inserting at the same key moves
        // the vertex to the bucket head.
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), 0, InsertionPolicy::Lifo, &mut r);
        g.insert(v(1), 0, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.bucket_contents(0), vec![v(1), v(0)]);
        g.update(v(0), 0, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.bucket_contents(0), vec![v(0), v(1)]);
    }

    #[test]
    fn clip_seeding_order_via_push_head() {
        // Seed ascending by initial gain with push_head: the head ends up
        // being the highest-initial-gain vertex, per CLIP's prescription.
        let mut g = GainContainer::new(8, 10);
        for (vertex, _initial_gain) in [(v(3), -1i64), (v(1), 2), (v(0), 5)] {
            g.push_head(vertex, 0);
        }
        assert_eq!(g.bucket_contents(0), vec![v(0), v(1), v(3)]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut g = GainContainer::new(4, 5);
        let mut r = rng();
        for i in 0..4 {
            g.insert(v(i), i as i64 - 2, InsertionPolicy::Lifo, &mut r);
        }
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.descend_max(), None);
        for i in 0..4 {
            assert!(!g.contains(v(i)));
        }
        // Reusable after clear.
        g.insert(v(2), 1, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.descend_max(), Some(1));
    }

    #[test]
    fn clear_touches_only_dirtied_buckets() {
        // Regression for the O(bucket-range) clear: with a huge key range,
        // one insert must dirty exactly one bucket, and that is all the
        // following clear is allowed to walk.
        let mut g = GainContainer::new(4, 10_000);
        let mut r = rng();
        assert_eq!(g.touched_buckets(), 0);
        g.insert(v(0), 9_999, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.touched_buckets(), 1);
        g.clear();
        assert_eq!(g.touched_buckets(), 0);
        assert!(g.is_empty());
        assert!(!g.contains(v(0)));
        // Moving a vertex between buckets dirties both; re-keying within
        // the same bucket does not add a second entry.
        g.insert(v(1), -5_000, InsertionPolicy::Lifo, &mut r);
        g.update(v(1), 5_000, InsertionPolicy::Lifo, &mut r);
        g.update(v(1), 5_000, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.touched_buckets(), 2);
        g.clear();
        assert_eq!(g.touched_buckets(), 0);
        assert_eq!(g.descend_max(), None);
    }

    #[test]
    fn retarget_reuses_and_grows() {
        let mut g = GainContainer::new(4, 5);
        let mut r = rng();
        g.insert(v(0), 5, InsertionPolicy::Lifo, &mut r);
        // Shrink the key range: contents cleared, old keys now rejected.
        g.retarget(8, 2);
        assert!(g.is_empty());
        assert_eq!(g.min_key_bound(), -2);
        assert!(g.head_of(5).is_none());
        g.insert(v(6), 2, InsertionPolicy::Lifo, &mut r);
        assert_eq!(g.descend_max(), Some(2));
        // Grow both dimensions: more vertices and a wider key range.
        g.retarget(16, 12);
        assert!(g.is_empty());
        assert_eq!(g.min_key_bound(), -12);
        g.insert(v(15), -12, InsertionPolicy::Fifo, &mut r);
        g.insert(v(0), 12, InsertionPolicy::Fifo, &mut r);
        assert_eq!(g.descend_max(), Some(12));
        g.remove(v(0));
        assert_eq!(g.descend_max(), Some(-12));
    }

    #[test]
    fn next_in_bucket_walks_the_list() {
        let mut g = GainContainer::new(8, 10);
        let mut r = rng();
        g.insert(v(0), 4, InsertionPolicy::Fifo, &mut r);
        g.insert(v(1), 4, InsertionPolicy::Fifo, &mut r);
        let head = g.head_of(4).unwrap();
        assert_eq!(head, v(0));
        assert_eq!(g.next_in_bucket(head), Some(v(1)));
        assert_eq!(g.next_in_bucket(v(1)), None);
    }

    #[test]
    fn random_policy_is_deterministic_under_seed() {
        let mut g1 = GainContainer::new(8, 10);
        let mut g2 = GainContainer::new(8, 10);
        let mut r1 = SmallRng::seed_from_u64(99);
        let mut r2 = SmallRng::seed_from_u64(99);
        for i in 0..6 {
            g1.insert(v(i), 0, InsertionPolicy::Random, &mut r1);
            g2.insert(v(i), 0, InsertionPolicy::Random, &mut r2);
        }
        assert_eq!(g1.bucket_contents(0), g2.bucket_contents(0));
    }

    #[test]
    fn head_of_out_of_range_is_none() {
        let g = GainContainer::new(4, 3);
        assert!(g.head_of(4).is_none());
        assert!(g.head_of(-4).is_none());
        assert_eq!(g.min_key_bound(), -3);
    }

    /// One operation of the bitmap proptest; vertices and keys are taken
    /// modulo the container's current size and key range.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, i64, u8),
        Remove(u32),
        Update(u32, i64, u8),
        Clear,
        Retarget(usize, i64),
    }

    /// Mostly inserts and updates, so buckets fill up between the rarer
    /// clears and retargets.
    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..15,
            any::<u32>(),
            any::<i64>(),
            0u8..3,
            1usize..80,
            0i64..150,
        )
            .prop_map(|(kind, v, k, p, n, b)| match kind {
                0..=5 => Op::Insert(v, k, p),
                6..=8 => Op::Remove(v),
                9..=12 => Op::Update(v, k, p),
                13 => Op::Clear,
                _ => Op::Retarget(n, b),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitmap scan finds what a linear scan of `head_of` finds:
        /// `descend_max` the highest non-empty key and `next_key_below`
        /// the highest one below any key, after every operation.
        #[test]
        fn bitmap_scan_matches_a_linear_scan(
            (n0, bound0) in (1usize..80, 0i64..150),
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let mut g = GainContainer::new(n0, bound0);
            let (mut n, mut bound) = (n0, bound0);
            let mut r = rng();
            let policies = [InsertionPolicy::Lifo, InsertionPolicy::Fifo, InsertionPolicy::Random];
            let policy = |p: u8| policies[usize::from(p)];
            for op in ops {
                let span = 2 * bound + 1;
                match op {
                    Op::Insert(v, k, p) => {
                        let v = VertexId::from_index(v as usize % n);
                        if !g.contains(v) {
                            g.insert(v, k.rem_euclid(span) - bound, policy(p), &mut r);
                        }
                    }
                    Op::Remove(v) => {
                        let v = VertexId::from_index(v as usize % n);
                        if g.contains(v) {
                            g.remove(v);
                        }
                    }
                    Op::Update(v, k, p) => {
                        let v = VertexId::from_index(v as usize % n);
                        if g.contains(v) {
                            g.update(v, k.rem_euclid(span) - bound, policy(p), &mut r);
                        }
                    }
                    Op::Clear => g.clear(),
                    Op::Retarget(new_n, new_bound) => {
                        g.retarget(new_n, new_bound);
                        (n, bound) = (new_n, new_bound);
                    }
                }
                // Linear scan upwards: `below` is the highest key under
                // `key` whose bucket has a head.
                let mut below = None;
                for key in -bound - 2..=bound + 2 {
                    prop_assert_eq!(g.next_key_below(key), below, "below {}", key);
                    if g.head_of(key).is_some() {
                        below = Some(key);
                    }
                }
                prop_assert_eq!(g.descend_max(), below);
            }
        }
    }
}
