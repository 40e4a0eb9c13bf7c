//! Compute tables (operation caches).
//!
//! Real decision-diagram packages memoize recursive operation results so
//! repeated sub-computations are answered in O(1) (paper footnote 4). Keys
//! are canonical operand node ids (weights are factored out by the callers,
//! so cached entries are scale-invariant and hit rates stay high).
//!
//! The tables are **direct-mapped** in the style of production DD packages
//! (JKQ/MQT): a fixed power-of-two slot array, the key hashed once to a slot
//! index, and a colliding insert overwriting the previous occupant in place.
//! Compared to a general hash map this removes per-insert allocation, rehash
//! storms, and clear-the-world eviction from the hottest loops of the
//! package — a lookup is one multiply-rotate hash, one index, one compare.

use crate::types::{MatEdge, MNodeId, Qubit, VecEdge, VNodeId};
use qdd_complex::{ComplexIdx, FxHasher};
use std::hash::{Hash, Hasher};

/// A single direct-mapped memoization table with hit statistics.
///
/// The slot array is allocated lazily on the first insert, so packages that
/// never use an operation pay nothing for its table. A colliding insert
/// (different key hashing to an occupied slot) drops exactly one entry — the
/// previous occupant — which is counted in [`Cache::dropped`]; explicit
/// [`Cache::clear`] calls (mandatory after garbage collection) are counted
/// separately in [`Cache::clears`]. A clear empties only the slots filled
/// since the previous one, so it costs the entries it drops, not the
/// table's capacity.
#[derive(Clone, Debug)]
pub(crate) struct Cache<K, V> {
    slots: Vec<Option<(K, V)>>,
    /// Index of every occupied slot, in the order the slots were filled.
    occupied: Vec<u32>,
    /// Power-of-two capacity the slot array takes on first insert.
    cap: usize,
    lookups: u64,
    hits: u64,
    dropped: u64,
    clears: u64,
}

/// Smallest direct-mapped table: below this the table thrashes (every
/// insert collides) without saving meaningful memory.
pub(crate) const MIN_CACHE_CAP: usize = 16;

/// Largest direct-mapped table (slot indices are stored as `u32`).
const MAX_CACHE_CAP: usize = 1 << 26;

#[inline]
fn slot_of<K: Hash>(key: &K, mask: usize) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

impl<K: Eq + Hash + Copy, V: Copy> Cache<K, V> {
    /// A table with `cap` slots, clamped to `[MIN_CACHE_CAP, MAX_CACHE_CAP]`
    /// and rounded down to a power of two.
    pub(crate) fn with_cap(cap: usize) -> Self {
        let cap = cap.clamp(MIN_CACHE_CAP, MAX_CACHE_CAP);
        let cap = if cap.is_power_of_two() {
            cap
        } else {
            cap.next_power_of_two() >> 1
        };
        Cache {
            slots: Vec::new(),
            occupied: Vec::new(),
            cap,
            lookups: 0,
            hits: 0,
            dropped: 0,
            clears: 0,
        }
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        self.lookups += 1;
        if self.slots.is_empty() {
            return None;
        }
        match &self.slots[slot_of(key, self.cap - 1)] {
            Some((k, v)) if k == key => {
                self.hits += 1;
                Some(*v)
            }
            _ => None,
        }
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.slots.is_empty() {
            self.slots.resize_with(self.cap, || None);
        }
        let index = slot_of(&key, self.cap - 1);
        let slot = &mut self.slots[index];
        match slot {
            None => self.occupied.push(index as u32),
            Some((k, _)) if *k != key => self.dropped += 1,
            Some(_) => {}
        }
        *slot = Some((key, value));
    }

    /// Drops every entry (used after garbage collection, when keys refer to
    /// node ids that may have been freed). Counted in [`Cache::clears`];
    /// the slot array is kept allocated and only occupied slots are written.
    pub(crate) fn clear(&mut self) {
        if !self.occupied.is_empty() {
            self.clears += 1;
            for &index in &self.occupied {
                self.slots[index as usize] = None;
            }
            self.occupied.clear();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.occupied.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries dropped by colliding inserts (one per collision).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Non-empty [`Cache::clear`] calls since construction.
    pub(crate) fn clears(&self) -> u64 {
        self.clears
    }
}

/// Public per-table statistics snapshot (see
/// [`DdPackage::compute_table_stats`](crate::DdPackage::compute_table_stats)).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ComputeTableStat {
    /// Stable table name (e.g. `"mat-vec"`).
    pub name: &'static str,
    /// Total lookups.
    pub lookups: u64,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Entries dropped by colliding inserts.
    pub dropped: u64,
    /// Whole-table clears (after GC or by explicit request).
    pub clears: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Slot capacity.
    pub capacity: usize,
}

impl ComputeTableStat {
    /// Hit rate in `[0, 1]` (0 when the table was never probed).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

macro_rules! stat_of {
    ($table:expr, $name:literal) => {
        ComputeTableStat {
            name: $name,
            lookups: $table.lookups(),
            hits: $table.hits(),
            dropped: $table.dropped(),
            clears: $table.clears(),
            entries: $table.len(),
            capacity: $table.capacity(),
        }
    };
}

/// All operation caches of a package.
#[derive(Clone, Debug)]
pub(crate) struct ComputeTables {
    /// `add(x, y·β)` for unit-weight `x`: key `(x, y, β)`.
    pub add_vec: Cache<(VNodeId, VNodeId, ComplexIdx), VecEdge>,
    /// Matrix addition, same keying as `add_vec`.
    pub add_mat: Cache<(MNodeId, MNodeId, ComplexIdx), MatEdge>,
    /// `M · v` for unit-weight operands.
    pub mat_vec: Cache<(MNodeId, VNodeId), VecEdge>,
    /// `A · B` for unit-weight operands.
    pub mat_mat: Cache<(MNodeId, MNodeId), MatEdge>,
    /// `a ⊗ b` for unit-weight operands.
    pub kron_vec: Cache<(VNodeId, VNodeId), VecEdge>,
    /// `A ⊗ B` for unit-weight operands; the third component is the level
    /// shift applied to `A` (`B`'s logical span, which identity-skipped
    /// roots under-report, so it cannot be derived from the node alone).
    pub kron_mat: Cache<(MNodeId, MNodeId, Qubit), MatEdge>,
    /// Conjugate transpose of a unit-weight matrix node.
    pub adjoint: Cache<MNodeId, MatEdge>,
    /// `⟨a|b⟩` for unit-weight operands.
    pub inner: Cache<(VNodeId, VNodeId), ComplexIdx>,
    /// Probability of measuring `1` on a qubit below a unit-weight node.
    pub prob_one: Cache<(VNodeId, Qubit), f64>,
}

/// Number of caches in [`ComputeTables`].
const CACHE_COUNT: usize = 9;

/// Slot count of the four hot tables (addition and multiplication carry
/// almost all traffic in simulation and verification).
const HOT_CAP: usize = 1 << 15;

/// Slot count of the remaining tables.
const COLD_CAP: usize = 1 << 12;

impl ComputeTables {
    /// Empty tables: [`HOT_CAP`] slots for addition and multiplication,
    /// [`COLD_CAP`] for the rest.
    pub(crate) fn new() -> Self {
        ComputeTables {
            add_vec: Cache::with_cap(HOT_CAP),
            add_mat: Cache::with_cap(HOT_CAP),
            mat_vec: Cache::with_cap(HOT_CAP),
            mat_mat: Cache::with_cap(HOT_CAP),
            kron_vec: Cache::with_cap(COLD_CAP),
            kron_mat: Cache::with_cap(COLD_CAP),
            adjoint: Cache::with_cap(COLD_CAP),
            inner: Cache::with_cap(COLD_CAP),
            prob_one: Cache::with_cap(COLD_CAP),
        }
    }

    /// Drops every cached entry (mandatory after garbage collection, since
    /// keys refer to node ids that may have been freed).
    pub(crate) fn clear(&mut self) {
        self.add_vec.clear();
        self.add_mat.clear();
        self.mat_vec.clear();
        self.mat_mat.clear();
        self.kron_vec.clear();
        self.kron_mat.clear();
        self.adjoint.clear();
        self.inner.clear();
        self.prob_one.clear();
    }

    /// Per-table statistics in reporting order.
    pub(crate) fn per_table(&self) -> [ComputeTableStat; CACHE_COUNT] {
        [
            stat_of!(self.add_vec, "add-vec"),
            stat_of!(self.add_mat, "add-mat"),
            stat_of!(self.mat_vec, "mat-vec"),
            stat_of!(self.mat_mat, "mat-mat"),
            stat_of!(self.kron_vec, "kron-vec"),
            stat_of!(self.kron_mat, "kron-mat"),
            stat_of!(self.adjoint, "adjoint"),
            stat_of!(self.inner, "inner"),
            stat_of!(self.prob_one, "prob-one"),
        ]
    }

    pub(crate) fn total_lookups(&self) -> u64 {
        self.per_table().iter().map(|t| t.lookups).sum()
    }

    pub(crate) fn total_hits(&self) -> u64 {
        self.per_table().iter().map(|t| t.hits).sum()
    }

    pub(crate) fn total_entries(&self) -> usize {
        self.per_table().iter().map(|t| t.entries).sum()
    }

    /// Entries dropped by colliding inserts across all tables.
    pub(crate) fn total_dropped(&self) -> u64 {
        self.per_table().iter().map(|t| t.dropped).sum()
    }

    /// Whole-table clears across all tables.
    pub(crate) fn total_clears(&self) -> u64 {
        self.per_table().iter().map(|t| t.clears).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut c: Cache<u32, u32> = Cache::with_cap(64);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.lookups(), 2);
        assert_eq!(c.hits(), 1);
        c.clear();
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.clears(), 1);
    }

    #[test]
    fn colliding_insert_drops_exactly_one_entry() {
        let mut c: Cache<u32, u32> = Cache::with_cap(16);
        // Find two keys that collide on the 16-slot table.
        let mask = c.capacity() - 1;
        let base_slot = slot_of(&0u32, mask);
        let colliding = (1u32..1000)
            .find(|k| slot_of(k, mask) == base_slot)
            .expect("a colliding key exists");
        c.insert(0, 100);
        assert_eq!(c.len(), 1);
        c.insert(colliding, 200);
        // Overwrite in place: one entry dropped, still one stored.
        assert_eq!(c.len(), 1);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.clears(), 0);
        // The old key is gone; the new key answers with its own value.
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&colliding), Some(200));
    }

    #[test]
    fn overwriting_same_key_is_not_a_drop() {
        let mut c: Cache<u32, u32> = Cache::with_cap(16);
        c.insert(7, 1);
        c.insert(7, 2);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&7), Some(2));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let c: Cache<u32, u32> = Cache::with_cap(100);
        assert_eq!(c.capacity(), 64);
        let c: Cache<u32, u32> = Cache::with_cap(128);
        assert_eq!(c.capacity(), 128);
        let c: Cache<u32, u32> = Cache::with_cap(3);
        assert_eq!(c.capacity(), MIN_CACHE_CAP);
    }

    #[test]
    fn clear_on_empty_is_not_counted() {
        let mut c: Cache<u32, u32> = Cache::with_cap(16);
        c.clear();
        assert_eq!(c.clears(), 0);
        c.insert(1, 1);
        c.clear();
        c.clear();
        assert_eq!(c.clears(), 1);
    }

    #[test]
    fn compute_tables_clear_all() {
        let mut t = ComputeTables::new();
        t.mat_vec
            .insert((MNodeId::from_index(0), VNodeId::from_index(0)), VecEdge::ZERO);
        assert_eq!(t.total_entries(), 1);
        t.clear();
        assert_eq!(t.total_entries(), 0);
        assert_eq!(t.total_clears(), 1);
    }

    #[test]
    fn per_table_stats_name_every_cache() {
        let t = ComputeTables::new();
        let stats = t.per_table();
        assert_eq!(stats.len(), CACHE_COUNT);
        let names: std::collections::HashSet<&str> =
            stats.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), CACHE_COUNT, "table names must be distinct");
    }

    use proptest::prelude::*;

    proptest! {
        /// A direct-mapped table must never answer with a value for the
        /// wrong key, no matter the collision pattern, and a clear empties
        /// it: afterwards every probe misses, and refilling an emptied slot
        /// adds an entry instead of counting an eviction.
        #[test]
        fn collisions_never_alias_keys(
            // `None` clears the table (one op in sixteen on average).
            ops in prop::collection::vec(
                (0u32..16, 0u32..64, 0u32..1000)
                    .prop_map(|(roll, key, value)| (roll > 0).then_some((key, value))),
                1..200,
            )
        ) {
            let mut cache: Cache<u32, u32> = Cache::with_cap(MIN_CACHE_CAP);
            let mask = cache.capacity() - 1;
            // The table as it must be: slot -> (key, value).
            let mut model = std::collections::HashMap::new();
            let mut dropped = 0;
            for op in ops {
                match op {
                    Some((key, value)) => {
                        cache.insert(key, value);
                        if let Some((old, _)) = model.insert(slot_of(&key, mask), (key, value)) {
                            dropped += u64::from(old != key);
                        }
                    }
                    None => {
                        cache.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
                prop_assert_eq!(cache.dropped(), dropped);
                for probe in 0..64u32 {
                    let stored = model
                        .get(&slot_of(&probe, mask))
                        .filter(|(key, _)| *key == probe)
                        .map(|&(_, value)| value);
                    prop_assert_eq!(cache.get(&probe), stored);
                }
            }
        }
    }
}
