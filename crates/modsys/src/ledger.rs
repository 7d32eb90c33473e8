//! Accounting of checked-versus-shared compilation work.
//!
//! The paper's translation is "modular and efficient, in that code compiled
//! for fields of a base family can be shared with derived families without
//! having to be rechecked" (Section 4). The ledger makes that claim
//! measurable: every module registration records a *check*; every reuse by
//! a derived family records a *share*. `tests/paper_counts.rs` pins the
//! resulting Section 7 counts (CS1-share) against the copy-paste foil.
//!
//! Since the check-session refactor the ledger also records the
//! *cross-family* reuse channel — content-addressed proof-cache hits and
//! misses — plus per-unit wall time, so the paper's O(delta) claim is
//! observable at lattice scale: a derived variant's ledger shows not just
//! *that* fields were shared but *how much checking time* the shared
//! session saved.
//!
//! Entries are stored deduplicated: one counted record per unit name
//! (`name → {checked, shared, nanos}`), in first-appearance order. The
//! public counting API (`checked_count`, `shared_count`, `reuse_ratio`) is
//! unchanged; `checked()`/`shared()` materialize the name series with
//! multiplicity for callers that filter by substring.
//! A unit name is allocated once, where it is first recorded; absorbing or
//! cloning a ledger shares it (`Arc<str>`) instead of copying it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One deduplicated ledger record: how often a unit was checked fresh vs
/// shared, and how much wall time its fresh checks cost.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerEntry {
    /// Unit name (e.g. `STLC◦typesafe` or `STLCFix◦preserve◦ht_fix`).
    pub name: Arc<str>,
    /// Number of fresh checks recorded for this unit.
    pub checked: usize,
    /// Number of reuses (no recheck) recorded for this unit.
    pub shared: usize,
    /// Accumulated wall time spent checking this unit, in nanoseconds.
    pub nanos: u64,
}

/// Counters and logs of compilation work.
#[derive(Clone, Default, Debug)]
pub struct CheckLedger {
    entries: Vec<LedgerEntry>,
    index: HashMap<Arc<str>, usize>,
    checked_total: usize,
    shared_total: usize,
    cache_hits: usize,
    cache_misses: usize,
}

impl CheckLedger {
    /// A fresh ledger.
    pub fn new() -> CheckLedger {
        CheckLedger::default()
    }

    fn entry_mut(&mut self, name: impl AsRef<str> + Into<Arc<str>>) -> &mut LedgerEntry {
        if let Some(&i) = self.index.get(name.as_ref()) {
            return &mut self.entries[i];
        }
        let i = self.entries.len();
        let name: Arc<str> = name.into();
        self.index.insert(Arc::clone(&name), i);
        self.entries.push(LedgerEntry {
            name,
            checked: 0,
            shared: 0,
            nanos: 0,
        });
        &mut self.entries[i]
    }

    /// Records a fresh check of `name`.
    pub fn record_checked(&mut self, name: &str) {
        self.entry_mut(name).checked += 1;
        self.checked_total += 1;
    }

    /// Records a reuse (no recheck) of `name`.
    pub fn record_shared(&mut self, name: &str) {
        self.entry_mut(name).shared += 1;
        self.shared_total += 1;
    }

    /// Accumulates wall time spent checking `name`.
    pub fn record_unit_time(&mut self, name: &str, elapsed: Duration) {
        self.entry_mut(name).nanos += elapsed.as_nanos() as u64;
    }

    /// Records a content-addressed proof-cache hit (a proof reused from the
    /// shared session without rechecking).
    pub fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Records a proof-cache miss (the proof had to be run).
    pub fn record_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// Number of freshly checked entities.
    pub fn checked_count(&self) -> usize {
        self.checked_total
    }

    /// Number of shared (reused) entities.
    pub fn shared_count(&self) -> usize {
        self.shared_total
    }

    /// Proof-cache hits recorded in this ledger.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Proof-cache misses recorded in this ledger.
    pub fn cache_misses(&self) -> usize {
        self.cache_misses
    }

    /// Proof-cache hit ratio `hits / (hits + misses)`; 0 when no lookups.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The deduplicated counted entries, in first-appearance order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total wall time accumulated across all units.
    pub fn total_time(&self) -> Duration {
        Duration::from_nanos(self.entries.iter().map(|e| e.nanos).sum())
    }

    /// Wall time accumulated for one unit, if recorded.
    pub fn unit_time(&self, name: &str) -> Option<Duration> {
        self.index
            .get(name)
            .map(|&i| Duration::from_nanos(self.entries[i].nanos))
    }

    /// The checked entity names with multiplicity, in first-check order.
    pub fn checked(&self) -> Vec<String> {
        self.entries
            .iter()
            .flat_map(|e| std::iter::repeat_n(e.name.to_string(), e.checked))
            .collect()
    }

    /// The shared entity names with multiplicity, in first-share order.
    pub fn shared(&self) -> Vec<String> {
        self.entries
            .iter()
            .flat_map(|e| std::iter::repeat_n(e.name.to_string(), e.shared))
            .collect()
    }

    /// Reuse ratio `shared / (shared + checked)`; 0 when empty.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.checked_total + self.shared_total;
        if total == 0 {
            0.0
        } else {
            self.shared_total as f64 / total as f64
        }
    }

    /// The `n` slowest units by accumulated wall time, slowest first, as
    /// `(name, duration)` pairs. Ties keep first-appearance order. This
    /// backs the engine's slow-elaboration log: after a lattice build the
    /// engine absorbs every family's ledger and asks for the top-N.
    pub fn slowest(&self, n: usize) -> Vec<(String, Duration)> {
        let mut by_time: Vec<&LedgerEntry> = self.entries.iter().collect();
        by_time.sort_by_key(|e| std::cmp::Reverse(e.nanos));
        by_time
            .into_iter()
            .take(n)
            .map(|e| (e.name.to_string(), Duration::from_nanos(e.nanos)))
            .collect()
    }

    /// Merges another ledger into this one.
    ///
    /// Entries are merged *by name* into counted records — a name new to
    /// this ledger is shared with `other`, not copied, and absorbing the
    /// same ledger shape repeatedly grows counters, not allocations.
    pub fn absorb(&mut self, other: &CheckLedger) {
        for e in &other.entries {
            let mine = self.entry_mut(Arc::clone(&e.name));
            mine.checked += e.checked;
            mine.shared += e.shared;
            mine.nanos += e.nanos;
        }
        self.checked_total += other.checked_total;
        self.shared_total += other.shared_total;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Equality of the observable totals and per-unit counts (ignores wall
    /// time, which is never deterministic). Used by the parallel-lattice
    /// determinism tests.
    pub fn same_counts(&self, other: &CheckLedger) -> bool {
        if self.checked_total != other.checked_total
            || self.shared_total != other.shared_total
            || self.entries.len() != other.entries.len()
        {
            return false;
        }
        self.entries.iter().all(|e| {
            other
                .index
                .get(&e.name)
                .map(|&i| {
                    let o = &other.entries[i];
                    o.checked == e.checked && o.shared == e.shared
                })
                .unwrap_or(false)
        })
    }
}

/// Merges ledgers with [`CheckLedger::absorb`], in iteration order.
impl<'a> FromIterator<&'a CheckLedger> for CheckLedger {
    fn from_iter<I: IntoIterator<Item = &'a CheckLedger>>(ledgers: I) -> CheckLedger {
        let mut all = CheckLedger::new();
        for l in ledgers {
            all.absorb(l);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ratio() {
        let mut l = CheckLedger::new();
        assert_eq!(l.reuse_ratio(), 0.0);
        l.record_checked("a");
        l.record_checked("b");
        l.record_shared("a");
        assert_eq!(l.checked_count(), 2);
        assert_eq!(l.shared_count(), 1);
        assert!((l.reuse_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CheckLedger::new();
        a.record_checked("x");
        let mut b = CheckLedger::new();
        b.record_shared("y");
        a.absorb(&b);
        assert_eq!(a.checked_count(), 1);
        assert_eq!(a.shared_count(), 1);
    }

    #[test]
    fn absorb_dedupes_names() {
        let mut a = CheckLedger::new();
        a.record_checked("x");
        a.record_shared("x");
        let mut b = CheckLedger::new();
        b.record_checked("x");
        b.record_shared("x");
        b.record_shared("x");
        a.absorb(&b);
        // One counted entry, not four strings.
        assert_eq!(a.entries().len(), 1);
        assert_eq!(a.entries()[0].checked, 2);
        assert_eq!(a.entries()[0].shared, 3);
        assert_eq!(a.checked_count(), 2);
        assert_eq!(a.shared_count(), 3);
        // Multiplicity is preserved in the materialized series.
        assert_eq!(a.checked().len(), 2);
        assert_eq!(a.shared().len(), 3);
    }

    #[test]
    fn absorb_and_clone_share_names() {
        let mut b = CheckLedger::new();
        b.record_checked("x");
        let mut a = CheckLedger::new();
        a.absorb(&b);
        let c = a.clone();
        // One allocation of "x" serves all three ledgers.
        assert!(Arc::ptr_eq(&a.entries()[0].name, &b.entries()[0].name));
        assert!(Arc::ptr_eq(&c.entries()[0].name, &b.entries()[0].name));
        assert_eq!(&*a.entries()[0].name, "x");
    }

    #[test]
    fn cache_counters() {
        let mut l = CheckLedger::new();
        l.record_cache_hit();
        l.record_cache_hit();
        l.record_cache_miss();
        assert_eq!(l.cache_hits(), 2);
        assert_eq!(l.cache_misses(), 1);
        assert!((l.cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        let mut m = CheckLedger::new();
        m.absorb(&l);
        assert_eq!(m.cache_hits(), 2);
        assert_eq!(m.cache_misses(), 1);
        // Collecting ledgers absorbs each in turn.
        let both: CheckLedger = [&l, &m].into_iter().collect();
        assert_eq!((both.cache_hits(), both.cache_misses()), (4, 2));
    }

    #[test]
    fn unit_times_accumulate() {
        let mut l = CheckLedger::new();
        l.record_checked("u");
        l.record_unit_time("u", Duration::from_micros(3));
        l.record_unit_time("u", Duration::from_micros(4));
        assert_eq!(l.unit_time("u"), Some(Duration::from_micros(7)));
        assert_eq!(l.total_time(), Duration::from_micros(7));
        assert_eq!(l.unit_time("missing"), None);
    }

    #[test]
    fn slowest_orders_by_time_and_truncates() {
        let mut l = CheckLedger::new();
        l.record_unit_time("fast", Duration::from_micros(1));
        l.record_unit_time("slow", Duration::from_micros(30));
        l.record_unit_time("mid", Duration::from_micros(10));
        let top = l.slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "slow");
        assert_eq!(top[1].0, "mid");
        assert_eq!(top[0].1, Duration::from_micros(30));
        assert_eq!(l.slowest(10).len(), 3, "n larger than entries is fine");
        assert!(CheckLedger::new().slowest(5).is_empty());
    }

    #[test]
    fn same_counts_ignores_time_and_order() {
        let mut a = CheckLedger::new();
        a.record_checked("x");
        a.record_shared("y");
        a.record_unit_time("x", Duration::from_secs(1));
        let mut b = CheckLedger::new();
        b.record_shared("y");
        b.record_checked("x");
        assert!(a.same_counts(&b));
        b.record_checked("x");
        assert!(!a.same_counts(&b));
    }
}
