//! Interned identifiers.
//!
//! Every name in the object language — datatype names, constructor names,
//! function names, bound variables — is a [`Symbol`]: a small copyable
//! handle into a global string interner. Interning makes term equality and
//! substitution cheap and keeps the syntax types `Copy`-friendly.
//!
//! # Concurrency
//!
//! The interner is designed for the check-session architecture
//! (`fpop::Session`), where many elaborations run on different threads and
//! hammer `Symbol::as_str` on hot paths (`Display`, hashing of cache keys,
//! ledger unit names). The design splits the paths by frequency:
//!
//! * **Reading** (`Symbol::as_str`) is *lock-free*: symbols index into an
//!   append-only, segmented string table whose slots are published with
//!   release/acquire semantics (`OnceLock`). A reader performs two atomic
//!   loads and two pointer chases — no mutex, no contention, ever.
//! * **Re-interning an existing name** (`Symbol::new` on the hot path:
//!   elaborations constantly rebuild the same `Fam◦field` names) takes
//!   only a *read* lock on the dedup map, so any number of threads probe
//!   concurrently.
//! * **First-time interning** takes the write lock, re-checks, then
//!   publishes — rare and idempotent, so the exclusive section is tiny.
//!
//! Segments double in size (1024, 2048, 4096, …) and are allocated lazily
//! under the intern write lock, so existing slots are never moved: a
//! `&'static str` handed out by [`Symbol::as_str`] stays valid for the
//! process lifetime.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Two `Symbol`s are equal iff they intern the same string.
///
/// # Examples
///
/// ```
/// use objlang::ident::Symbol;
/// let a = Symbol::new("tm_app");
/// let b = Symbol::new("tm_app");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "tm_app");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Size of segment 0; segment `s` holds `FIRST_SEGMENT << s` slots.
const FIRST_SEGMENT: usize = 1 << 10;
/// Enough segments to cover every `u32` symbol id.
const NUM_SEGMENTS: usize = 23;

/// The lock-free read side: an append-only segmented table of interned
/// strings. Slots are written exactly once (under the intern mutex) and
/// read with acquire loads.
struct StringTable {
    segments: [OnceLock<Box<[OnceLock<&'static str>]>>; NUM_SEGMENTS],
}

impl StringTable {
    const fn new() -> StringTable {
        // `OnceLock::new()` is const; an inline-const block lets the
        // array-repeat initializer instantiate it per element.
        StringTable {
            segments: [const { OnceLock::new() }; NUM_SEGMENTS],
        }
    }

    /// Maps a symbol id to `(segment, offset)`.
    ///
    /// Segment `s` covers ids `[FIRST * (2^s - 1), FIRST * (2^(s+1) - 1))`.
    #[inline]
    fn locate(id: usize) -> (usize, usize) {
        let seg = (usize::BITS - 1 - (id / FIRST_SEGMENT + 1).leading_zeros()) as usize;
        let base = FIRST_SEGMENT * ((1usize << seg) - 1);
        (seg, id - base)
    }

    /// Lock-free read of a published slot.
    #[inline]
    fn get(&self, id: usize) -> &'static str {
        let (seg, off) = Self::locate(id);
        let segment = self.segments[seg]
            .get()
            .expect("symbol id beyond allocated segments");
        segment[off].get().expect("symbol read before publication")
    }

    /// Publishes `s` at `id`. Called only under the intern write lock, and
    /// only once per id, in id order.
    fn publish(&self, id: usize, s: &'static str) {
        let (seg, off) = Self::locate(id);
        let cap = FIRST_SEGMENT << seg;
        let segment =
            self.segments[seg].get_or_init(|| (0..cap).map(|_| OnceLock::new()).collect());
        segment[off].set(s).expect("slot published twice");
    }
}

static STRINGS: StringTable = StringTable::new();

/// The dedup map. Reads (the overwhelmingly common case: re-interning a
/// name that already exists) take the read lock and run concurrently;
/// first-time interning takes the write lock, re-checks, and publishes.
/// `Symbol::as_str` never touches it.
struct Interner {
    map: HashMap<&'static str, u32>,
    len: u32,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            len: 0,
        })
    })
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    pub fn new(s: &str) -> Symbol {
        // Fast path: already interned — shared read lock only, so hot
        // elaboration loops on many threads don't serialize here.
        if let Some(&id) = interner().read().expect("interner poisoned").map.get(s) {
            return Symbol(id);
        }
        let mut int = interner().write().expect("interner poisoned");
        // Re-check under the write lock: another thread may have interned
        // `s` between our read probe and the write acquisition.
        if let Some(&id) = int.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = int.len;
        // Publish the string *before* the id can escape the lock, so any
        // thread that legitimately holds a `Symbol` observes its slot.
        STRINGS.publish(id as usize, leaked);
        int.len += 1;
        int.map.insert(leaked, id);
        Symbol(id)
    }

    /// Looks up an already-interned string **without** interning it.
    ///
    /// Useful for probing candidate names (see [`Symbol::freshen`]) without
    /// permanently leaking an interner entry per rejected candidate.
    pub fn get(s: &str) -> Option<Symbol> {
        let int = interner().read().expect("interner poisoned");
        int.map.get(s).map(|&id| Symbol(id))
    }

    /// Returns the interned string.
    ///
    /// Lock-free: performs two acquire loads into the append-only string
    /// table — safe to call concurrently from any number of threads (e.g.
    /// `Display`/`Debug` on hot elaboration paths) without contending with
    /// interning.
    #[inline]
    pub fn as_str(self) -> &'static str {
        STRINGS.get(self.0 as usize)
    }

    /// Number of symbols interned so far (diagnostic; used by stress tests
    /// to verify the freshen probe does not leak rejected candidates).
    pub fn interned_count() -> usize {
        interner().read().expect("interner poisoned").len as usize
    }

    /// Returns a symbol guaranteed fresh with respect to `taken`, derived
    /// from `self` by appending primes/counters.
    ///
    /// Candidates are probed via [`Symbol::get`] first: a candidate that
    /// was never interned cannot be `taken` by any symbol-keyed structure,
    /// and a candidate that is interned is tested without re-interning.
    /// At most one *new* string is interned per call (the winner), instead
    /// of one per rejected candidate as in the earlier quadratic scheme.
    pub fn freshen(self, taken: &dyn Fn(Symbol) -> bool) -> Symbol {
        if !taken(self) {
            return self;
        }
        use std::fmt::Write as _;
        let base = self.as_str();
        let mut cand = String::with_capacity(base.len() + 4);
        for i in 0u64.. {
            cand.clear();
            let _ = write!(cand, "{base}'{i}");
            match Symbol::get(&cand) {
                Some(existing) => {
                    if !taken(existing) {
                        return existing;
                    }
                    // Already interned *and* taken: probe the next counter
                    // without having leaked anything new.
                }
                None => {
                    // Never interned: intern once and accept unless the
                    // predicate rejects non-symbol-derived names too.
                    let fresh = Symbol::new(&cand);
                    if !taken(fresh) {
                        return fresh;
                    }
                }
            }
        }
        unreachable!()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

/// Shorthand for [`Symbol::new`].
pub fn sym(s: &str) -> Symbol {
    Symbol::new(s)
}

// The whole point of the session architecture: symbols (and everything
// built from them) cross thread boundaries freely.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Symbol>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let s = Symbol::new("hello_world");
        assert_eq!(s.as_str(), "hello_world");
    }

    #[test]
    fn equality_by_content() {
        assert_eq!(Symbol::new("x"), Symbol::new("x"));
        assert_ne!(Symbol::new("x"), Symbol::new("y"));
    }

    #[test]
    fn get_does_not_intern() {
        // Only names this test owns: other tests intern concurrently, so
        // the global interned count is not ours to assert on.
        assert!(Symbol::get("never_interned_name_qq").is_none());
        assert!(
            Symbol::get("never_interned_name_qq").is_none(),
            "get interned its probe"
        );
        let s = Symbol::new("now_interned_name_qq");
        assert_eq!(Symbol::get("now_interned_name_qq"), Some(s));
    }

    #[test]
    fn freshen_avoids_taken() {
        let x = Symbol::new("v");
        let also_v = x;
        let fresh = x.freshen(&|s| s == also_v);
        assert_ne!(fresh, x);
        assert!(fresh.as_str().starts_with('v'));
    }

    #[test]
    fn freshen_no_conflict_is_identity() {
        let x = Symbol::new("unique_name_zz");
        let fresh = x.freshen(&|_| false);
        assert_eq!(fresh, x);
    }

    #[test]
    fn freshen_interns_at_most_one_new_symbol() {
        // Pre-intern a long run of candidates, mark them all taken, and
        // verify freshen probes through them without interning more than
        // the single winner.
        let base = Symbol::new("fr_base");
        let taken: Vec<Symbol> = (0..64)
            .map(|i| Symbol::new(&format!("fr_base'{i}")))
            .collect();
        assert!(Symbol::get("fr_base'64").is_none());
        let fresh = base.freshen(&|s| s == base || taken.contains(&s));
        assert_eq!(fresh.as_str(), "fr_base'64");
        assert!(
            Symbol::get("fr_base'65").is_none(),
            "only the winning candidate may be interned"
        );
    }

    #[test]
    fn display_matches_str() {
        let s = Symbol::new("display_me");
        assert_eq!(format!("{s}"), "display_me");
        assert_eq!(format!("{s:?}"), "display_me");
    }

    #[test]
    fn ordering_is_stable() {
        let a = Symbol::new("ord_a");
        let b = Symbol::new("ord_b");
        // Interner ids are allocation-ordered; just check total order works.
        assert!(a == a.min(a));
        assert!(a.max(b) == a || a.max(b) == b);
    }

    #[test]
    fn segment_locate_covers_boundaries() {
        assert_eq!(StringTable::locate(0), (0, 0));
        assert_eq!(
            StringTable::locate(FIRST_SEGMENT - 1),
            (0, FIRST_SEGMENT - 1)
        );
        assert_eq!(StringTable::locate(FIRST_SEGMENT), (1, 0));
        assert_eq!(
            StringTable::locate(3 * FIRST_SEGMENT - 1),
            (1, 2 * FIRST_SEGMENT - 1)
        );
        assert_eq!(StringTable::locate(3 * FIRST_SEGMENT), (2, 0));
        assert_eq!(StringTable::locate(7 * FIRST_SEGMENT), (3, 0));
    }

    #[test]
    fn mass_interning_crosses_segments() {
        // Force allocation past segment 0 and verify every symbol reads
        // back correctly (ids are global, so go well past FIRST_SEGMENT).
        let syms: Vec<(Symbol, String)> = (0..3 * FIRST_SEGMENT + 17)
            .map(|i| {
                let s = format!("mass_sym_{i}");
                (Symbol::new(&s), s)
            })
            .collect();
        for (sym, s) in &syms {
            assert_eq!(sym.as_str(), s);
        }
    }
}
