//! Tolerance-based interning of complex edge weights.
//!
//! Every edge weight occurring in a decision diagram is stored exactly once
//! in a [`ComplexTable`] and referred to by a compact [`ComplexIdx`] handle.
//! Handle equality *is* value equality (up to the table's tolerance), which
//! makes node hashing exact and decision diagrams canonical — the scheme of
//! reference \[14\] of the reproduced paper.
//!
//! Interning is the innermost loop of the whole package (every normalization
//! step interns one or more weights), so the table is a plain single-owner
//! structure: a `Vec` of values, one tolerance-grid index map, and a small
//! exact-bits front cache that answers repeats of the handful of hot
//! constants (±1/√2, phase factors, …) without touching the grid.
//!
//! Reclamation ([`ComplexTable::retain_referenced`]) keeps surviving handles
//! stable. A **warm mark** ([`ComplexTable::mark_warm`]) makes every value
//! interned so far permanent; [`ComplexTable::reset_to_warm`] then drops
//! everything interned since, by truncating the value storage back to the
//! mark.

use crate::complex::Complex;
use crate::hash::FxHashMap;
use crate::DEFAULT_TOLERANCE;

/// A stable handle to an interned complex value in a [`ComplexTable`].
///
/// Two handles from the same table are equal iff they denote the same
/// (tolerance-collapsed) value; handles are meaningless across tables.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComplexIdx(u32);

/// The handle of the interned value `0`, identical in every table.
pub const C_ZERO: ComplexIdx = ComplexIdx(0);
/// The handle of the interned value `1`, identical in every table.
pub const C_ONE: ComplexIdx = ComplexIdx(1);

impl ComplexIdx {
    /// Returns the raw table slot, mainly useful for diagnostics.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is the interned zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == C_ZERO
    }

    /// Returns `true` if this is the interned one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == C_ONE
    }
}

/// Aggregate statistics of a [`ComplexTable`], for diagnostics and the
/// ablation experiments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ComplexTableStats {
    /// Number of distinct interned values.
    pub entries: usize,
    /// Total `lookup` calls.
    pub lookups: u64,
    /// Lookups answered by an existing entry.
    pub hits: u64,
    /// Approximate heap footprint of the table (value storage plus grid
    /// index), for resource diagnostics.
    pub approx_bytes: usize,
    /// Total value slots reclaimed by [`ComplexTable::retain_referenced`]
    /// over the table's lifetime.
    pub reclaimed: u64,
    /// Lookups answered by the inline front cache alone (exact bit-pattern
    /// repeats that skipped the grid probe); a subset of `hits`.
    pub front_hits: u64,
}

/// One slot of the front cache: exact bit patterns of a recently interned
/// value and its handle.
#[derive(Copy, Clone, Debug)]
struct RecentEntry {
    re_bits: u64,
    im_bits: u64,
    idx: u32,
}

const EMPTY: u32 = u32::MAX;

impl RecentEntry {
    const VACANT: RecentEntry = RecentEntry { re_bits: 0, im_bits: 0, idx: EMPTY };
}

/// Size of the front cache (direct-mapped on the value's bit hash).
const RECENT_SLOTS: usize = 8;

#[inline]
fn recent_slot(re_bits: u64, im_bits: u64) -> usize {
    (re_bits ^ im_bits.rotate_left(32)) as usize % RECENT_SLOTS
}

/// An interned value plus the next slot in its grid cell's chain (`EMPTY`
/// at the end).
#[derive(Clone, Debug)]
struct CEntry {
    v: Complex,
    next: u32,
}

/// The nine probe cells around `(cr, ci)` in the fixed scan order.
///
/// The order is load-bearing: which in-tolerance representative wins
/// determines how drifting intermediate values snap back, and a different
/// preference lets near-tolerance noise fragment diagrams (see
/// `grover_16_stays_compact`). Saturating adds: astronomically large values
/// (overflow products of degenerate inputs) quantize to the clamped edge
/// cells instead of wrapping the cell coordinate space.
#[inline]
fn probe_cells(cr: i64, ci: i64) -> [(i64, i64); 9] {
    let mut out = [(0i64, 0i64); 9];
    let mut k = 0;
    for dr in -1..=1i64 {
        for di in -1..=1i64 {
            out[k] = (cr.saturating_add(dr), ci.saturating_add(di));
            k += 1;
        }
    }
    out
}

/// What [`ComplexTable::reset_to_warm`] rewinds to.
#[derive(Clone, Debug, Default)]
struct WarmMark {
    /// Value slots below this are permanent.
    len: usize,
    /// Live entries at the mark.
    live: usize,
}

/// An interning table for complex numbers with tolerance-bucketed lookup.
///
/// Values are quantized onto a grid of cell size equal to the tolerance;
/// a lookup probes the value's cell and the eight neighbouring cells, so any
/// stored value within the tolerance ball is found. Slots `0` and `1` are
/// pre-seeded with the constants `0` and `1` ([`C_ZERO`], [`C_ONE`]).
///
/// # Examples
///
/// ```
/// use qdd_complex::{Complex, ComplexTable, C_ONE, C_ZERO};
///
/// let mut t = ComplexTable::new();
/// assert_eq!(t.lookup(Complex::ZERO), C_ZERO);
/// assert_eq!(t.lookup(Complex::ONE), C_ONE);
/// let a = t.lookup(Complex::new(0.25, 0.75));
/// assert_eq!(t.lookup(Complex::new(0.25, 0.75)), a);
/// ```
#[derive(Clone, Debug)]
pub struct ComplexTable {
    /// Value storage indexed by handle; `None` marks a reclaimed slot.
    values: Vec<Option<CEntry>>,
    /// Grid index: cell → first slot of the chain of values quantizing
    /// there, oldest first (chained through [`CEntry::next`]). Because the
    /// cell size equals the tolerance, a chain almost always holds one slot;
    /// longer ones come from rounding at the tolerance boundary and from
    /// the clamped edge cells of astronomically large values.
    index: FxHashMap<(i64, i64), u32>,
    /// Reclaimed slots at or above the warm mark, reused before the value
    /// storage grows.
    free: Vec<u32>,
    /// Number of live entries.
    live: usize,
    recent: [RecentEntry; RECENT_SLOTS],
    warm: WarmMark,
    tolerance: f64,
    lookups: u64,
    hits: u64,
    reclaimed: u64,
    front_hits: u64,
}

impl ComplexTable {
    /// Creates a table with the [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table collapsing values within `tolerance` of each other.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not finite and positive.
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be finite and positive"
        );
        let mut table = ComplexTable {
            values: Vec::new(),
            index: FxHashMap::default(),
            free: Vec::new(),
            live: 0,
            recent: [RecentEntry::VACANT; RECENT_SLOTS],
            warm: WarmMark::default(),
            tolerance,
            lookups: 0,
            hits: 0,
            reclaimed: 0,
            front_hits: 0,
        };
        // Seed the two ubiquitous constants at fixed slots, bypassing the
        // constant fast path (which answers without inserting), and make
        // them permanent.
        let zero = table.insert(Complex::ZERO);
        let one = table.insert(Complex::ONE);
        debug_assert_eq!(zero, C_ZERO);
        debug_assert_eq!(one, C_ONE);
        table.mark_warm();
        table
    }

    /// The interning tolerance.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The number of distinct live interned values.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the table holds only the seeded constants.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// Current statistics snapshot (constant time).
    pub fn stats(&self) -> ComplexTableStats {
        ComplexTableStats {
            entries: self.len(),
            lookups: self.lookups,
            hits: self.hits,
            approx_bytes: self.len()
                * (std::mem::size_of::<Option<CEntry>>() + std::mem::size_of::<((i64, i64), u32)>()),
            reclaimed: self.reclaimed,
            front_hits: self.front_hits,
        }
    }

    /// Returns the value behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` did not come from this table or was reclaimed.
    #[inline]
    pub fn value(&self, idx: ComplexIdx) -> Complex {
        self.entry(idx.0).v
    }

    #[inline]
    fn entry(&self, slot: u32) -> &CEntry {
        match &self.values[slot as usize] {
            Some(e) => e,
            None => panic!("reclaimed complex handle {slot}"),
        }
    }

    fn entry_mut(&mut self, slot: u32) -> &mut CEntry {
        self.values[slot as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("reclaimed complex handle {slot}"))
    }

    #[inline]
    fn cell(&self, v: Complex) -> (i64, i64) {
        (
            (v.re / self.tolerance).round() as i64,
            (v.im / self.tolerance).round() as i64,
        )
    }

    /// Finds a stored handle for `v` within tolerance, probing the nine
    /// cells around it in the fixed scan order (earliest cell wins).
    fn find(&self, v: Complex) -> Option<ComplexIdx> {
        let (cr, ci) = self.cell(v);
        for cell in probe_cells(cr, ci) {
            let mut slot = self.index.get(&cell).copied().unwrap_or(EMPTY);
            while slot != EMPTY {
                let e = self.entry(slot);
                if e.v.approx_eq(v, self.tolerance) {
                    return Some(ComplexIdx(slot));
                }
                slot = e.next;
            }
        }
        None
    }

    /// Stores `v` in a fresh (or recycled) slot and indexes it.
    fn insert(&mut self, v: Complex) -> ComplexIdx {
        let entry = Some(CEntry { v, next: EMPTY });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.values[slot as usize] = entry;
                slot
            }
            None => {
                self.values.push(entry);
                (self.values.len() - 1) as u32
            }
        };
        self.live += 1;
        self.link(slot);
        ComplexIdx(slot)
    }

    /// Appends `slot` to the end of its cell's chain, so older values keep
    /// winning the probe.
    fn link(&mut self, slot: u32) {
        let cell = self.cell(self.entry(slot).v);
        let Some(&head) = self.index.get(&cell) else {
            self.index.insert(cell, slot);
            return;
        };
        let mut tail = head;
        while self.entry(tail).next != EMPTY {
            tail = self.entry(tail).next;
        }
        self.entry_mut(tail).next = slot;
    }

    /// Reclaims every interned value whose handle fails `keep`, except
    /// everything below the warm mark (which always covers the seeded
    /// constants `0` and `1`).
    ///
    /// Kept handles stay valid and keep denoting bit-identical values;
    /// reclaimed slots are recycled by later insertions. The grid index is
    /// rebuilt over the survivors (shrinking it back towards cache-resident
    /// size) and the front cache is flushed, since it may remember
    /// reclaimed handles.
    ///
    /// This is the complex-table half of garbage collection: a long run
    /// interns a fresh set of amplitudes per applied gate, and without
    /// reclamation the probe index grows until every lookup is a cache
    /// miss. The caller supplies liveness (weights referenced by live DD
    /// nodes and registered roots). Returns the number of slots reclaimed.
    pub fn retain_referenced(&mut self, keep: impl Fn(ComplexIdx) -> bool) -> usize {
        let mut freed = 0usize;
        for slot in self.warm.len..self.values.len() {
            if self.values[slot].is_some() && !keep(ComplexIdx(slot as u32)) {
                self.values[slot] = None;
                self.free.push(slot as u32);
                freed += 1;
            }
        }
        self.live -= freed;
        self.reclaimed += freed as u64;
        self.index = FxHashMap::with_capacity_and_hasher(self.live, Default::default());
        for slot in 0..self.values.len() {
            if let Some(e) = &mut self.values[slot] {
                e.next = EMPTY;
                self.link(slot as u32);
            }
        }
        self.flush_recent();
        freed
    }

    /// Makes every value interned so far permanent: reclamation never
    /// frees a slot below the mark, no later insertion reuses one, and
    /// [`Self::reset_to_warm`] rewinds to exactly this point.
    pub fn mark_warm(&mut self) {
        self.free.clear();
        self.warm = WarmMark {
            len: self.values.len(),
            live: self.live,
        };
        self.flush_recent();
    }

    /// Drops every value interned since the last [`Self::mark_warm`] (or
    /// since construction, leaving only the seeded constants): value
    /// storage is truncated back to the mark. Handles below the mark keep
    /// denoting bit-identical values. Statistics counters keep counting.
    pub fn reset_to_warm(&mut self) {
        let len = self.warm.len as u32;
        for slot in len..self.values.len() as u32 {
            let Some(e) = &self.values[slot as usize] else {
                continue;
            };
            // Every chain lists its slots below the mark first (the free
            // list holds none of them, and rebuilds link in slot order), so
            // cutting a chain before its first slot at or above the mark
            // unlinks all of them.
            let cell = self.cell(e.v);
            match self.index.get(&cell) {
                None => {}
                Some(&head) if head >= len => {
                    self.index.remove(&cell);
                }
                Some(&head) => {
                    // `EMPTY` exceeds every slot, so this also stops at the
                    // chain's end.
                    let mut s = head;
                    while self.entry(s).next < len {
                        s = self.entry(s).next;
                    }
                    self.entry_mut(s).next = EMPTY;
                }
            }
        }
        self.values.truncate(self.warm.len);
        self.free.clear();
        self.live = self.warm.live;
        self.flush_recent();
    }

    fn flush_recent(&mut self) {
        self.recent = [RecentEntry::VACANT; RECENT_SLOTS];
    }

    /// Interns `v`, returning the handle of an existing value within
    /// tolerance if there is one.
    ///
    /// # Panics
    ///
    /// Panics if `v` has a NaN or infinite component — such weights indicate
    /// a bug upstream (e.g. normalizing an all-zero node) and must never be
    /// interned.
    pub fn lookup(&mut self, v: Complex) -> ComplexIdx {
        assert!(
            !v.is_non_finite(),
            "cannot intern non-finite complex value {v:?}"
        );
        self.lookups += 1;
        if v.is_zero(self.tolerance) {
            self.hits += 1;
            return C_ZERO;
        }
        if v.is_one(self.tolerance) {
            self.hits += 1;
            return C_ONE;
        }
        // Front cache: repeats of a hot value (exact bit pattern) skip the
        // grid probe entirely. Interning is deterministic and the cache is
        // flushed whenever entries are reclaimed or truncated, so a
        // remembered handle stays correct.
        let (re_bits, im_bits) = (v.re.to_bits(), v.im.to_bits());
        let rslot = recent_slot(re_bits, im_bits);
        let r = self.recent[rslot];
        if r.idx != EMPTY && r.re_bits == re_bits && r.im_bits == im_bits {
            self.hits += 1;
            self.front_hits += 1;
            return ComplexIdx(r.idx);
        }
        let idx = match self.find(v) {
            Some(idx) => {
                self.hits += 1;
                idx
            }
            None => self.insert(v),
        };
        self.recent[rslot] = RecentEntry { re_bits, im_bits, idx: idx.0 };
        idx
    }

    /// Interns the product of two handles.
    pub fn mul(&mut self, a: ComplexIdx, b: ComplexIdx) -> ComplexIdx {
        if a.is_zero() || b.is_zero() {
            return C_ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let v = self.value(a) * self.value(b);
        self.lookup(v)
    }

    /// Interns the sum of two handles.
    pub fn add(&mut self, a: ComplexIdx, b: ComplexIdx) -> ComplexIdx {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let v = self.value(a) + self.value(b);
        self.lookup(v)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the interned zero.
    pub fn div(&mut self, a: ComplexIdx, b: ComplexIdx) -> ComplexIdx {
        assert!(!b.is_zero(), "division by interned zero");
        if a.is_zero() {
            return C_ZERO;
        }
        if b.is_one() {
            return a;
        }
        if a == b {
            return C_ONE;
        }
        let v = self.value(a) / self.value(b);
        self.lookup(v)
    }

    /// Interns the negation of a handle.
    pub fn neg(&mut self, a: ComplexIdx) -> ComplexIdx {
        if a.is_zero() {
            return C_ZERO;
        }
        let v = -self.value(a);
        self.lookup(v)
    }

    /// Interns the complex conjugate of a handle.
    pub fn conj(&mut self, a: ComplexIdx) -> ComplexIdx {
        let v = self.value(a);
        if v.im == 0.0 {
            return a;
        }
        self.lookup(v.conj())
    }

    /// Returns `true` if the two handles denote values within tolerance.
    ///
    /// Because interning already collapses such values, this is simply
    /// handle equality — exposed as a named method for readability at call
    /// sites that check canonicity.
    #[inline]
    pub fn approx_equal(&self, a: ComplexIdx, b: ComplexIdx) -> bool {
        a == b
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_zero_and_one() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::ZERO), C_ZERO);
        assert_eq!(t.lookup(Complex::ONE), C_ONE);
        assert_eq!(t.value(C_ZERO), Complex::ZERO);
        assert_eq!(t.value(C_ONE), Complex::ONE);
    }

    #[test]
    fn collapses_values_within_tolerance() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::new(0.3, 0.4));
        let b = t.lookup(Complex::new(0.3 + 4e-11, 0.4 - 4e-11));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinguishes_values_beyond_tolerance() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::new(0.3, 0.4));
        let b = t.lookup(Complex::new(0.3 + 1e-6, 0.4));
        assert_ne!(a, b);
    }

    #[test]
    fn near_zero_and_near_one_snap_to_constants() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::new(1e-14, -1e-14)), C_ZERO);
        assert_eq!(t.lookup(Complex::new(1.0 + 1e-14, 1e-14)), C_ONE);
    }

    #[test]
    fn arithmetic_shortcuts() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.5, 0.5));
        assert_eq!(t.mul(a, C_ZERO), C_ZERO);
        assert_eq!(t.mul(a, C_ONE), a);
        assert_eq!(t.add(a, C_ZERO), a);
        assert_eq!(t.div(a, C_ONE), a);
        assert_eq!(t.neg(C_ZERO), C_ZERO);
    }

    #[test]
    fn mul_and_div_are_inverse() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.6, -0.8));
        let b = t.lookup(Complex::new(0.1, 0.2));
        let prod = t.mul(a, b);
        assert_eq!(t.div(prod, b), a);
    }

    #[test]
    fn conj_of_real_is_identity_handle() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.7, 0.0));
        assert_eq!(t.conj(a), a);
        let b = t.lookup(Complex::new(0.0, 0.7));
        let bc = t.conj(b);
        assert_eq!(t.value(bc), Complex::new(0.0, -0.7));
    }

    #[test]
    fn stats_track_hits() {
        let mut t = ComplexTable::new();
        let v = Complex::new(0.33, 0.44);
        t.lookup(v);
        t.lookup(v);
        let s = t.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        // Bytes: at least the value storage.
        assert!(s.approx_bytes >= 3 * std::mem::size_of::<Complex>());
        t.lookup(Complex::new(0.1, 0.9));
        let s2 = t.stats();
        assert_eq!(s2.entries, 4);
        assert!(s2.approx_bytes >= s.approx_bytes);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let mut t = ComplexTable::new();
        t.lookup(Complex::new(f64::NAN, 0.0));
    }

    #[test]
    #[should_panic(expected = "division by interned zero")]
    fn rejects_division_by_zero_handle() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.5, 0.0));
        t.div(a, C_ZERO);
    }

    #[test]
    fn boundary_values_across_grid_cells_collapse() {
        // Two values straddling a grid-cell boundary but within tolerance
        // must still collapse (exercises the neighbour probing).
        let tol = 1e-10;
        let mut t = ComplexTable::with_tolerance(tol);
        let base = 0.25 + tol * 0.49;
        let a = t.lookup(Complex::new(base, 0.5));
        let b = t.lookup(Complex::new(base + tol * 0.9, 0.5));
        assert_eq!(a, b);
    }

    #[test]
    fn index_grows_past_initial_capacity() {
        // Intern well past any initial capacity; handles must stay unique
        // and resolvable.
        let mut t = ComplexTable::new();
        let mut handles = Vec::new();
        for i in 0..2000 {
            let v = Complex::new(0.001 * i as f64 + 0.1, 0.5);
            handles.push((v, t.lookup(v)));
        }
        assert_eq!(t.len(), 2002);
        for (v, h) in handles {
            assert_eq!(t.lookup(v), h, "re-interning must return the same handle");
            assert_eq!(t.value(h), v);
        }
    }

    #[test]
    fn inline_cache_survives_table_growth() {
        let mut t = ComplexTable::new();
        let hot = Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        let h = t.lookup(hot);
        for i in 0..500 {
            let _ = t.lookup(Complex::new(0.002 * i as f64 + 0.2, 0.7));
            assert_eq!(t.lookup(hot), h);
        }
    }

    #[test]
    fn retain_keeps_handles_stable_and_recycles_slots() {
        let mut t = ComplexTable::new();
        let keep_v = Complex::new(0.3, 0.4);
        let kept = t.lookup(keep_v);
        let dropped: Vec<ComplexIdx> = (0..100)
            .map(|i| t.lookup(Complex::new(0.01 * i as f64 + 1.5, -0.5)))
            .collect();
        let freed = t.retain_referenced(|idx| idx == kept);
        assert_eq!(freed, 100);
        assert_eq!(t.len(), 3, "0, 1 and the kept value survive");
        assert_eq!(t.stats().reclaimed, 100);
        // The kept handle still resolves and re-interning finds it.
        assert_eq!(t.value(kept), keep_v);
        assert_eq!(t.lookup(keep_v), kept);
        assert_eq!(t.lookup(Complex::ZERO), C_ZERO);
        assert_eq!(t.lookup(Complex::ONE), C_ONE);
        // Reclaimed slots are recycled before the value arena grows.
        let recycled = t.lookup(Complex::new(-0.9, 0.9));
        assert!(
            dropped.contains(&recycled),
            "new value should land in a reclaimed slot"
        );
    }

    #[test]
    fn retain_shrinks_the_probe_index() {
        let mut t = ComplexTable::new();
        for i in 0..5000 {
            let _ = t.lookup(Complex::new(0.001 * i as f64 + 0.1, 0.6));
        }
        let before = t.stats().approx_bytes;
        t.retain_referenced(|_| false);
        assert_eq!(t.len(), 2);
        assert!(
            t.stats().approx_bytes < before,
            "index should shrink back after reclamation"
        );
        // The table keeps working after a full sweep.
        let a = t.lookup(Complex::new(0.123, 0.456));
        assert_eq!(t.lookup(Complex::new(0.123, 0.456)), a);
    }

    #[test]
    fn reset_to_warm_truncates_back_to_the_mark() {
        let mut t = ComplexTable::new();
        let warm_v = Complex::new(0.6, -0.2);
        let warm = t.lookup(warm_v);
        t.mark_warm();
        let run = |t: &mut ComplexTable| -> Vec<ComplexIdx> {
            (0..50)
                .map(|i| t.lookup(Complex::new(0.01 * i as f64 + 0.3, 0.1)))
                .collect()
        };
        let first = run(&mut t);
        assert_eq!(t.len(), 53);
        // Reclamation never frees a warm value, whatever `keep` says.
        assert_eq!(t.retain_referenced(|_| false), 50);
        assert_eq!(t.value(warm), warm_v);
        t.reset_to_warm();
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(warm_v), warm);
        // Truncation makes the replay land on the same handles.
        assert_eq!(run(&mut t), first);
        assert!(first.iter().all(|h| h.index() >= 3), "no slot below the mark is reused");
    }

    #[test]
    fn values_sharing_a_cell_chain_in_insertion_order() {
        // Astronomically large values all quantize to the clamped edge cell,
        // so distinct values share one chain.
        let huge = |k: f64| Complex::new(k * 1e300, 0.0);
        let mut t = ComplexTable::new();
        let a = t.lookup(huge(1.0));
        t.mark_warm();
        let b = t.lookup(huge(2.0));
        let c = t.lookup(huge(3.0));
        assert!(a != b && b != c);
        assert_eq!(t.lookup(huge(2.0)), b);
        // Reclaiming the middle of a chain keeps both ends findable.
        t.retain_referenced(|h| h != b);
        assert_eq!(t.lookup(huge(1.0)), a);
        assert_eq!(t.lookup(huge(3.0)), c);
        // The reset cuts the chain right after its warm value.
        t.reset_to_warm();
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(huge(1.0)), a);
        assert_eq!(t.lookup(huge(3.0)).index(), 3);
    }

    #[test]
    fn reset_without_a_mark_keeps_only_the_constants() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.25, 0.5));
        t.reset_to_warm();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Complex::ONE), C_ONE);
        assert_eq!(t.lookup(Complex::new(0.25, 0.5)), a);
    }

    use proptest::prelude::*;

    proptest! {
        /// Interning is idempotent and the stored value is within tolerance
        /// of the request, for arbitrary inputs.
        #[test]
        fn interning_is_idempotent(
            re in -2.0f64..2.0,
            im in -2.0f64..2.0,
        ) {
            let mut t = ComplexTable::new();
            let v = Complex::new(re, im);
            let a = t.lookup(v);
            let b = t.lookup(v);
            prop_assert_eq!(a, b);
            let stored = t.value(a);
            prop_assert!((stored.re - re).abs() <= t.tolerance());
            prop_assert!((stored.im - im).abs() <= t.tolerance());
        }

        /// Handles behave like tolerance-collapsed values: after interning a
        /// batch, re-interning each original value returns its handle, and
        /// distinct handles denote values farther apart than the tolerance.
        #[test]
        fn handles_partition_values(
            vals in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..100)
        ) {
            let mut t = ComplexTable::new();
            let handles: Vec<ComplexIdx> = vals
                .iter()
                .map(|&(re, im)| t.lookup(Complex::new(re, im)))
                .collect();
            for (&(re, im), &h) in vals.iter().zip(&handles) {
                prop_assert_eq!(t.lookup(Complex::new(re, im)), h);
            }
            // Distinct handles must denote distinguishable values.
            for (i, &a) in handles.iter().enumerate() {
                for &b in &handles[i + 1..] {
                    if a != b {
                        let va = t.value(a);
                        let vb = t.value(b);
                        prop_assert!(!va.approx_eq(vb, t.tolerance() * 0.5));
                    }
                }
            }
        }
    }
}
