//! First-order object syntax: sorts, terms, and propositions.
//!
//! The object language deliberately stays first order: terms are built from
//! variables, datatype constructors, defined-function applications and
//! identifier literals. Propositions add equality, inductive-predicate
//! atoms, defined propositions, the usual connectives, and sorted
//! quantifiers. This is the fragment the paper's case studies actually
//! exercise (Section 7), and it is what makes a small trustworthy proof
//! kernel feasible.
//!
//! # Representation
//!
//! Since the hash-consing change, every *recursive position* is an interned
//! handle (see [`crate::intern`]): argument vectors are [`TermList`]s and
//! sub-propositions are [`PropRef`]s. [`Term`] and [`Prop`] are therefore
//! `Copy`, structural equality is an id comparison, and every subtree
//! carries a cached content digest, node count, and free-variable summary
//! that `subst`/`replace`/`contains` use to prune untouched subtrees
//! without walking (or allocating) anything.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::ident::Symbol;
use crate::intern::{fnv_step, sym_digest, PropRef, TermList, FNV_OFFSET};

/// A sort (object-level type).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// A named datatype sort (e.g. `tm`, `ty`, `bool`, `env`).
    Named(Symbol),
    /// The builtin sort of object identifiers (e.g. variable names of an
    /// object language), with decidable equality `id_eqb`.
    Id,
}

impl Sort {
    /// Convenience constructor for a named sort.
    pub fn named(s: &str) -> Sort {
        Sort::Named(Symbol::new(s))
    }

    /// Content digest of the sort (a function of the sort *name*, so it is
    /// stable across processes).
    pub fn digest(self) -> u64 {
        match self {
            Sort::Named(s) => fnv_step(fnv_step(FNV_OFFSET, 20), sym_digest(s)),
            Sort::Id => fnv_step(FNV_OFFSET, 21),
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Named(s) => write!(f, "{s}"),
            Sort::Id => write!(f, "id"),
        }
    }
}

/// Pushes every element of the cached summary `free` that is not yet in
/// `out`. `out` stays a small first-occurrence list for API compatibility;
/// the per-occurrence quadratic accumulation of the old representation is
/// gone because summaries are precomputed per *distinct* subtree.
fn merge_free(out: &mut Vec<Symbol>, free: &[Symbol]) {
    for v in free {
        if !out.contains(v) {
            out.push(*v);
        }
    }
}

/// A first-order term.
///
/// `Copy` (12 bytes): the recursive position is an interned [`TermList`].
/// Derived equality is O(1) *and* structural — equal trees intern to equal
/// list ids, inductively.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable (free in a sequent, or bound by an enclosing quantifier).
    Var(Symbol),
    /// A fully applied datatype constructor.
    Ctor(Symbol, TermList),
    /// A fully applied (defined or builtin) function.
    Fn(Symbol, TermList),
    /// An identifier literal of sort [`Sort::Id`].
    Lit(Symbol),
}

impl Term {
    /// Variable term.
    pub fn var(s: &str) -> Term {
        Term::Var(Symbol::new(s))
    }
    /// Constructor application.
    pub fn ctor(s: &str, args: Vec<Term>) -> Term {
        Term::Ctor(Symbol::new(s), args.into())
    }
    /// Nullary constructor.
    pub fn c0(s: &str) -> Term {
        Term::Ctor(Symbol::new(s), TermList::empty())
    }
    /// Function application.
    pub fn func(s: &str, args: Vec<Term>) -> Term {
        Term::Fn(Symbol::new(s), args.into())
    }
    /// Identifier literal.
    pub fn lit(s: &str) -> Term {
        Term::Lit(Symbol::new(s))
    }

    /// Content digest of the term — a compositional FNV-64 over symbol
    /// strings (process-stable). For applications this is two FNV steps on
    /// top of the cached argument-list digest.
    pub fn digest(&self) -> u64 {
        match self {
            Term::Var(v) => fnv_step(fnv_step(FNV_OFFSET, 1), sym_digest(*v)),
            Term::Ctor(c, args) => fnv_step(
                fnv_step(fnv_step(FNV_OFFSET, 2), sym_digest(*c)),
                args.digest(),
            ),
            Term::Fn(f, args) => fnv_step(
                fnv_step(fnv_step(FNV_OFFSET, 3), sym_digest(*f)),
                args.digest(),
            ),
            Term::Lit(l) => fnv_step(fnv_step(FNV_OFFSET, 4), sym_digest(*l)),
        }
    }

    /// Whether `v` occurs free — O(log f) on the cached summary.
    pub fn free_contains(&self, v: Symbol) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::Ctor(_, args) | Term::Fn(_, args) => args.free_contains(v),
            Term::Lit(_) => false,
        }
    }

    /// Collects the free variables of the term into `out`
    /// (first-occurrence order, deduplicated).
    pub fn free_vars_into(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Ctor(_, args) | Term::Fn(_, args) => merge_free(out, args.free_vars()),
            Term::Lit(_) => {}
        }
    }

    /// The free variables of the term.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out
    }

    /// True iff any key of `map` occurs free in the term.
    fn hit_by(&self, map: &HashMap<Symbol, Term>) -> bool {
        match self {
            Term::Var(v) => map.contains_key(v),
            Term::Ctor(_, args) | Term::Fn(_, args) => {
                let free = args.free_vars();
                if map.len() <= free.len() {
                    map.keys().any(|k| args.free_contains(*k))
                } else {
                    free.iter().any(|v| map.contains_key(v))
                }
            }
            Term::Lit(_) => false,
        }
    }

    /// Simultaneous substitution of variables. Subtrees in which no mapped
    /// variable occurs free are returned as-is (no allocation, no walk).
    pub fn subst(&self, map: &HashMap<Symbol, Term>) -> Term {
        match self {
            Term::Var(v) => map.get(v).copied().unwrap_or(*self),
            Term::Ctor(c, args) => {
                if !self.hit_by(map) {
                    return *self;
                }
                Term::Ctor(*c, args.iter().map(|a| a.subst(map)).collect())
            }
            Term::Fn(f, args) => {
                if !self.hit_by(map) {
                    return *self;
                }
                Term::Fn(*f, args.iter().map(|a| a.subst(map)).collect())
            }
            Term::Lit(_) => *self,
        }
    }

    /// Substitutes a single variable (directly — no per-call map).
    pub fn subst1(&self, var: Symbol, replacement: &Term) -> Term {
        match self {
            Term::Var(v) => {
                if *v == var {
                    *replacement
                } else {
                    *self
                }
            }
            Term::Ctor(c, args) => {
                if !args.free_contains(var) {
                    return *self;
                }
                Term::Ctor(
                    *c,
                    args.iter().map(|a| a.subst1(var, replacement)).collect(),
                )
            }
            Term::Fn(f, args) => {
                if !args.free_contains(var) {
                    return *self;
                }
                Term::Fn(
                    *f,
                    args.iter().map(|a| a.subst1(var, replacement)).collect(),
                )
            }
            Term::Lit(_) => *self,
        }
    }

    /// Returns `true` if `needle` occurs as a subterm.
    pub fn contains(&self, needle: &Term) -> bool {
        fn go(t: &Term, needle: &Term, needle_size: usize) -> bool {
            if t == needle {
                return true;
            }
            match t {
                Term::Ctor(_, args) | Term::Fn(_, args) => {
                    // A strict subterm is smaller than its parent.
                    if needle_size >= t.size() {
                        return false;
                    }
                    args.iter().any(|a| go(a, needle, needle_size))
                }
                _ => false,
            }
        }
        go(self, needle, needle.size())
    }

    /// Replaces every occurrence of `from` (as a whole subterm) by `to`.
    /// Subtrees too small to contain `from` are returned as-is.
    pub fn replace(&self, from: &Term, to: &Term) -> Term {
        fn go(t: &Term, from: &Term, to: &Term, from_size: usize) -> Term {
            if t == from {
                return *to;
            }
            match t {
                Term::Ctor(c, args) => {
                    if from_size >= t.size() {
                        return *t;
                    }
                    Term::Ctor(
                        *c,
                        args.iter().map(|a| go(a, from, to, from_size)).collect(),
                    )
                }
                Term::Fn(f, args) => {
                    if from_size >= t.size() {
                        return *t;
                    }
                    Term::Fn(
                        *f,
                        args.iter().map(|a| go(a, from, to, from_size)).collect(),
                    )
                }
                _ => *t,
            }
        }
        go(self, from, to, from.size())
    }

    /// One-sided first-order matching: tries to instantiate the variables
    /// in `pattern_vars` (treated as metavariables of `self`) so that
    /// `self` becomes `target`. Other variables match only themselves.
    ///
    /// On success extends `subst` in place; on failure `subst` may contain
    /// partial bindings, so callers should pass a scratch map.
    pub fn match_against(
        &self,
        target: &Term,
        pattern_vars: &[Symbol],
        subst: &mut HashMap<Symbol, Term>,
    ) -> bool {
        match (self, target) {
            (Term::Var(v), _) if pattern_vars.contains(v) => {
                if let Some(bound) = subst.get(v) {
                    bound == target
                } else {
                    subst.insert(*v, *target);
                    true
                }
            }
            (Term::Var(v), Term::Var(w)) => v == w,
            (Term::Lit(a), Term::Lit(b)) => a == b,
            (Term::Ctor(c, xs), Term::Ctor(d, ys)) if c == d && xs.len() == ys.len() => xs
                .iter()
                .zip(ys)
                .all(|(x, y)| x.match_against(y, pattern_vars, subst)),
            (Term::Fn(c, xs), Term::Fn(d, ys)) if c == d && xs.len() == ys.len() => xs
                .iter()
                .zip(ys)
                .all(|(x, y)| x.match_against(y, pattern_vars, subst)),
            _ => false,
        }
    }

    /// Size of the term (number of nodes); O(1) from the cached summary.
    /// Used by automation heuristics and the subtree-pruning guards.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Lit(_) => 1,
            Term::Ctor(_, args) | Term::Fn(_, args) => 1 + args.total_size() as usize,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Lit(l) => write!(f, "\"{l}\""),
            Term::Ctor(c, args) | Term::Fn(c, args) => {
                if args.is_empty() {
                    write!(f, "{c}")
                } else {
                    write!(f, "({c}")?;
                    for a in args.iter() {
                        write!(f, " {a}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

/// A proposition of the object logic.
///
/// `Copy`: connective and quantifier bodies are interned [`PropRef`]s
/// (which `Deref` to `Prop`, so `*body` copies the node out exactly like
/// the old `Box<Prop>` representation), and predicate arguments are
/// interned [`TermList`]s. Equality is O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Prop {
    /// Trivial truth.
    True,
    /// Falsity.
    False,
    /// Equality of two terms of a common sort.
    Eq(Term, Term),
    /// Application of an inductively defined predicate.
    Atom(Symbol, TermList),
    /// Application of a transparent, unfoldable defined proposition.
    Def(Symbol, TermList),
    /// Conjunction.
    And(PropRef, PropRef),
    /// Disjunction.
    Or(PropRef, PropRef),
    /// Implication.
    Imp(PropRef, PropRef),
    /// Universal quantification over a sort.
    Forall(Symbol, Sort, PropRef),
    /// Existential quantification over a sort.
    Exists(Symbol, Sort, PropRef),
}

impl Prop {
    /// Equality proposition.
    pub fn eq(a: Term, b: Term) -> Prop {
        Prop::Eq(a, b)
    }
    /// Predicate atom.
    pub fn atom(s: &str, args: Vec<Term>) -> Prop {
        Prop::Atom(Symbol::new(s), args.into())
    }
    /// Implication, interning both sides.
    pub fn imp(a: Prop, b: Prop) -> Prop {
        Prop::Imp(a.into(), b.into())
    }
    /// Conjunction.
    pub fn and(a: Prop, b: Prop) -> Prop {
        Prop::And(a.into(), b.into())
    }
    /// Disjunction.
    pub fn or(a: Prop, b: Prop) -> Prop {
        Prop::Or(a.into(), b.into())
    }
    /// Negation, encoded as `p → ⊥`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Prop) -> Prop {
        Prop::imp(p, Prop::False)
    }
    /// Universal quantifier.
    pub fn forall(v: &str, sort: Sort, body: Prop) -> Prop {
        Prop::Forall(Symbol::new(v), sort, body.into())
    }
    /// Existential quantifier.
    pub fn exists(v: &str, sort: Sort, body: Prop) -> Prop {
        Prop::Exists(Symbol::new(v), sort, body.into())
    }
    /// Nested universal quantification.
    pub fn foralls(binders: &[(Symbol, Sort)], body: Prop) -> Prop {
        binders
            .iter()
            .rev()
            .fold(body, |acc, (v, s)| Prop::Forall(*v, *s, acc.into()))
    }
    /// Chains implications: `ps[0] → … → ps[n] → concl`.
    pub fn imps(ps: &[Prop], concl: Prop) -> Prop {
        ps.iter().rev().fold(concl, |acc, p| Prop::imp(*p, acc))
    }

    /// Content digest of the proposition — compositional FNV-64 over
    /// symbol strings (process-stable). O(1) per node: children are read
    /// from the cached [`PropRef`]/[`TermList`] digests.
    pub fn digest(&self) -> u64 {
        match self {
            Prop::True => fnv_step(FNV_OFFSET, 10),
            Prop::False => fnv_step(FNV_OFFSET, 11),
            Prop::Eq(a, b) => fnv_step(fnv_step(fnv_step(FNV_OFFSET, 12), a.digest()), b.digest()),
            Prop::Atom(p, args) => fnv_step(
                fnv_step(fnv_step(FNV_OFFSET, 13), sym_digest(*p)),
                args.digest(),
            ),
            Prop::Def(p, args) => fnv_step(
                fnv_step(fnv_step(FNV_OFFSET, 14), sym_digest(*p)),
                args.digest(),
            ),
            Prop::And(a, b) => fnv_step(fnv_step(fnv_step(FNV_OFFSET, 15), a.digest()), b.digest()),
            Prop::Or(a, b) => fnv_step(fnv_step(fnv_step(FNV_OFFSET, 16), a.digest()), b.digest()),
            Prop::Imp(a, b) => fnv_step(fnv_step(fnv_step(FNV_OFFSET, 17), a.digest()), b.digest()),
            Prop::Forall(v, s, body) => fnv_step(
                fnv_step(
                    fnv_step(fnv_step(FNV_OFFSET, 18), sym_digest(*v)),
                    s.digest(),
                ),
                body.digest(),
            ),
            Prop::Exists(v, s, body) => fnv_step(
                fnv_step(
                    fnv_step(fnv_step(FNV_OFFSET, 19), sym_digest(*v)),
                    s.digest(),
                ),
                body.digest(),
            ),
        }
    }

    /// Node count of the proposition; O(1) per node from cached summaries.
    pub fn size(&self) -> usize {
        match self {
            Prop::True | Prop::False => 1,
            Prop::Eq(a, b) => 1 + a.size() + b.size(),
            Prop::Atom(_, args) | Prop::Def(_, args) => 1 + args.total_size() as usize,
            Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
                1 + a.total_size() as usize + b.total_size() as usize
            }
            Prop::Forall(_, _, body) | Prop::Exists(_, _, body) => 1 + body.total_size() as usize,
        }
    }

    /// Whether `v` occurs free — O(log f) on the cached summaries.
    pub fn free_contains(&self, v: Symbol) -> bool {
        match self {
            Prop::True | Prop::False => false,
            Prop::Eq(a, b) => a.free_contains(v) || b.free_contains(v),
            Prop::Atom(_, args) | Prop::Def(_, args) => args.free_contains(v),
            Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
                a.free_contains(v) || b.free_contains(v)
            }
            Prop::Forall(x, _, body) | Prop::Exists(x, _, body) => *x != v && body.free_contains(v),
        }
    }

    /// True iff any key of `map` occurs free.
    fn hit_by(&self, map: &HashMap<Symbol, Term>) -> bool {
        map.keys().any(|k| self.free_contains(*k))
    }

    /// Collects free variables (first-occurrence order, deduplicated).
    pub fn free_vars_into(&self, out: &mut Vec<Symbol>) {
        match self {
            Prop::True | Prop::False => {}
            Prop::Eq(a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
            Prop::Atom(_, args) | Prop::Def(_, args) => merge_free(out, args.free_vars()),
            Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
                merge_free(out, a.free_vars());
                merge_free(out, b.free_vars());
            }
            Prop::Forall(v, _, body) | Prop::Exists(v, _, body) => {
                for x in body.free_vars() {
                    if x != v && !out.contains(x) {
                        out.push(*x);
                    }
                }
            }
        }
    }

    /// Free variables of the proposition.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out
    }

    /// Capture-avoiding simultaneous substitution of terms for variables.
    /// Subtrees in which no mapped variable occurs free are returned
    /// as-is (no allocation, no binder renaming).
    pub fn subst(&self, map: &HashMap<Symbol, Term>) -> Prop {
        if !self.hit_by(map) {
            return *self;
        }
        match self {
            Prop::True => Prop::True,
            Prop::False => Prop::False,
            Prop::Eq(a, b) => Prop::Eq(a.subst(map), b.subst(map)),
            Prop::Atom(p, args) => Prop::Atom(*p, args.iter().map(|a| a.subst(map)).collect()),
            Prop::Def(p, args) => Prop::Def(*p, args.iter().map(|a| a.subst(map)).collect()),
            Prop::And(a, b) => Prop::and(a.subst(map), b.subst(map)),
            Prop::Or(a, b) => Prop::or(a.subst(map), b.subst(map)),
            Prop::Imp(a, b) => Prop::imp(a.subst(map), b.subst(map)),
            Prop::Forall(v, s, body) | Prop::Exists(v, s, body) => {
                // Remove the shadowed binding (copying the map only when
                // the binder shadows a key); rename if capture threatens.
                let inner_map = if map.contains_key(v) {
                    let mut m = map.clone();
                    m.remove(v);
                    Cow::Owned(m)
                } else {
                    Cow::Borrowed(map)
                };
                let would_capture = inner_map.values().any(|t| t.free_contains(*v));
                let (v2, body2) = if would_capture {
                    let taken = |cand: Symbol| {
                        inner_map.values().any(|t| t.free_contains(cand))
                            || body.free_contains(cand)
                    };
                    let fresh = v.freshen(&taken);
                    let renamed = body.subst1(*v, &Term::Var(fresh));
                    (fresh, renamed)
                } else {
                    (*v, **body)
                };
                let new_body = body2.subst(&inner_map).into();
                match self {
                    Prop::Forall(..) => Prop::Forall(v2, *s, new_body),
                    _ => Prop::Exists(v2, *s, new_body),
                }
            }
        }
    }

    /// Substitutes a single variable (directly — no per-call map).
    pub fn subst1(&self, var: Symbol, replacement: &Term) -> Prop {
        if !self.free_contains(var) {
            return *self;
        }
        match self {
            Prop::True | Prop::False => *self,
            Prop::Eq(a, b) => Prop::Eq(a.subst1(var, replacement), b.subst1(var, replacement)),
            Prop::Atom(p, args) => Prop::Atom(
                *p,
                args.iter().map(|a| a.subst1(var, replacement)).collect(),
            ),
            Prop::Def(p, args) => Prop::Def(
                *p,
                args.iter().map(|a| a.subst1(var, replacement)).collect(),
            ),
            Prop::And(a, b) => Prop::and(a.subst1(var, replacement), b.subst1(var, replacement)),
            Prop::Or(a, b) => Prop::or(a.subst1(var, replacement), b.subst1(var, replacement)),
            Prop::Imp(a, b) => Prop::imp(a.subst1(var, replacement), b.subst1(var, replacement)),
            Prop::Forall(v, s, body) | Prop::Exists(v, s, body) => {
                // `var` is free here, so `*v != var`. Rename if the
                // replacement would capture the binder.
                let (v2, body2) = if replacement.free_contains(*v) {
                    let taken =
                        |cand: Symbol| replacement.free_contains(cand) || body.free_contains(cand);
                    let fresh = v.freshen(&taken);
                    (fresh, body.subst1(*v, &Term::Var(fresh)))
                } else {
                    (*v, **body)
                };
                let new_body = body2.subst1(var, replacement).into();
                match self {
                    Prop::Forall(..) => Prop::Forall(v2, *s, new_body),
                    _ => Prop::Exists(v2, *s, new_body),
                }
            }
        }
    }

    /// Replaces each occurrence of the term `from` by `to` (not going under
    /// a binder that captures variables of `from`/`to`).
    pub fn replace_term(&self, from: &Term, to: &Term) -> Prop {
        match self {
            Prop::True | Prop::False => *self,
            Prop::Eq(a, b) => Prop::Eq(a.replace(from, to), b.replace(from, to)),
            Prop::Atom(p, args) => {
                if (args.total_size() as usize) < from.size() {
                    return *self;
                }
                Prop::Atom(*p, args.iter().map(|a| a.replace(from, to)).collect())
            }
            Prop::Def(p, args) => {
                if (args.total_size() as usize) < from.size() {
                    return *self;
                }
                Prop::Def(*p, args.iter().map(|a| a.replace(from, to)).collect())
            }
            Prop::And(a, b) => Prop::and(a.replace_term(from, to), b.replace_term(from, to)),
            Prop::Or(a, b) => Prop::or(a.replace_term(from, to), b.replace_term(from, to)),
            Prop::Imp(a, b) => Prop::imp(a.replace_term(from, to), b.replace_term(from, to)),
            Prop::Forall(v, s, body) => {
                if from.free_contains(*v) || to.free_contains(*v) {
                    *self
                } else {
                    Prop::Forall(*v, *s, body.replace_term(from, to).into())
                }
            }
            Prop::Exists(v, s, body) => {
                if from.free_contains(*v) || to.free_contains(*v) {
                    *self
                } else {
                    Prop::Exists(*v, *s, body.replace_term(from, to).into())
                }
            }
        }
    }

    /// Alpha-equivalence check.
    pub fn alpha_eq(&self, other: &Prop) -> bool {
        fn go(
            a: &Prop,
            b: &Prop,
            depth: u32,
            la: &mut Vec<(Symbol, u32)>,
            lb: &mut Vec<(Symbol, u32)>,
        ) -> bool {
            fn tgo(x: &Term, y: &Term, la: &[(Symbol, u32)], lb: &[(Symbol, u32)]) -> bool {
                // Fast path: under empty binder stacks alpha-equivalence
                // of terms is plain equality — one id compare.
                if la.is_empty() && lb.is_empty() {
                    return x == y;
                }
                match (x, y) {
                    (Term::Var(v), Term::Var(w)) => {
                        let dv = la.iter().rev().find(|(s, _)| s == v).map(|(_, d)| *d);
                        let dw = lb.iter().rev().find(|(s, _)| s == w).map(|(_, d)| *d);
                        match (dv, dw) {
                            (Some(i), Some(j)) => i == j,
                            (None, None) => v == w,
                            _ => false,
                        }
                    }
                    (Term::Lit(a), Term::Lit(b)) => a == b,
                    (Term::Ctor(c, xs), Term::Ctor(d, ys)) | (Term::Fn(c, xs), Term::Fn(d, ys)) => {
                        c == d
                            && xs.len() == ys.len()
                            && xs.iter().zip(ys).all(|(x, y)| tgo(x, y, la, lb))
                    }
                    _ => false,
                }
            }
            // Fast path: under empty binder stacks, alpha-equivalence
            // restricted to closed spines is plain equality.
            if la.is_empty() && lb.is_empty() && a == b {
                return true;
            }
            match (a, b) {
                (Prop::True, Prop::True) | (Prop::False, Prop::False) => true,
                (Prop::Eq(x1, y1), Prop::Eq(x2, y2)) => tgo(x1, x2, la, lb) && tgo(y1, y2, la, lb),
                (Prop::Atom(p, xs), Prop::Atom(q, ys)) | (Prop::Def(p, xs), Prop::Def(q, ys)) => {
                    p == q
                        && xs.len() == ys.len()
                        && xs.iter().zip(ys).all(|(x, y)| tgo(x, y, la, lb))
                }
                (Prop::And(a1, b1), Prop::And(a2, b2))
                | (Prop::Or(a1, b1), Prop::Or(a2, b2))
                | (Prop::Imp(a1, b1), Prop::Imp(a2, b2)) => {
                    go(a1, a2, depth, la, lb) && go(b1, b2, depth, la, lb)
                }
                (Prop::Forall(v, s1, b1), Prop::Forall(w, s2, b2))
                | (Prop::Exists(v, s1, b1), Prop::Exists(w, s2, b2)) => {
                    if s1 != s2 {
                        return false;
                    }
                    la.push((*v, depth));
                    lb.push((*w, depth));
                    let r = go(b1, b2, depth + 1, la, lb);
                    la.pop();
                    lb.pop();
                    r
                }
                _ => false,
            }
        }
        go(self, other, 0, &mut Vec::new(), &mut Vec::new())
    }

    /// One-sided matching on propositions (used by `apply`): instantiates
    /// `pattern_vars` occurring in `self` so that `self` equals `target`.
    /// Quantified sub-propositions must be alpha-equal (pattern variables
    /// inside binders are still matched structurally, without capture
    /// checks; callers only use freshly-renamed patterns).
    pub fn match_against(
        &self,
        target: &Prop,
        pattern_vars: &[Symbol],
        subst: &mut HashMap<Symbol, Term>,
    ) -> bool {
        match (self, target) {
            (Prop::True, Prop::True) | (Prop::False, Prop::False) => true,
            (Prop::Eq(a1, b1), Prop::Eq(a2, b2)) => {
                a1.match_against(a2, pattern_vars, subst)
                    && b1.match_against(b2, pattern_vars, subst)
            }
            (Prop::Atom(p, xs), Prop::Atom(q, ys)) | (Prop::Def(p, xs), Prop::Def(q, ys)) => {
                p == q
                    && xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| x.match_against(y, pattern_vars, subst))
            }
            (Prop::And(a1, b1), Prop::And(a2, b2))
            | (Prop::Or(a1, b1), Prop::Or(a2, b2))
            | (Prop::Imp(a1, b1), Prop::Imp(a2, b2)) => {
                a1.match_against(a2, pattern_vars, subst)
                    && b1.match_against(b2, pattern_vars, subst)
            }
            (Prop::Forall(v, s1, b1), Prop::Forall(w, s2, b2))
            | (Prop::Exists(v, s1, b1), Prop::Exists(w, s2, b2)) => {
                if s1 != s2 {
                    return false;
                }
                // Rename target binder to pattern binder to compare bodies.
                if v == w {
                    b1.match_against(b2, pattern_vars, subst)
                } else {
                    let renamed = b2.subst1(*w, &Term::Var(*v));
                    b1.match_against(&renamed, pattern_vars, subst)
                }
            }
            _ => false,
        }
    }

    /// Strips a rule-shaped proposition into binders, premises and a
    /// conclusion, alternating between `∀` and `→` as needed: a shape like
    /// `∀x̄, P → ∀ȳ, Q → C` yields binders `x̄ȳ`, premises `[P, Q]` and
    /// conclusion `C`. (The commutation is valid because each premise can
    /// only mention binders collected before it.) Later binders that shadow
    /// earlier ones are freshened.
    pub fn strip_rule(&self) -> (Vec<(Symbol, Sort)>, Vec<Prop>, Prop) {
        let mut binders: Vec<(Symbol, Sort)> = Vec::new();
        let mut premises = Vec::new();
        let mut cur = *self;
        loop {
            match cur {
                Prop::Forall(v, s, body) => {
                    if binders.iter().any(|(b, _)| *b == v) {
                        let taken = |c: Symbol| binders.iter().any(|(b, _)| *b == c);
                        let fresh = v.freshen(&taken);
                        binders.push((fresh, s));
                        cur = body.subst1(v, &Term::Var(fresh));
                    } else {
                        binders.push((v, s));
                        cur = *body;
                    }
                }
                Prop::Imp(p, q) => {
                    premises.push(*p);
                    cur = *q;
                }
                _ => break,
            }
        }
        (binders, premises, cur)
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::True => write!(f, "True"),
            Prop::False => write!(f, "False"),
            Prop::Eq(a, b) => write!(f, "{a} = {b}"),
            Prop::Atom(p, args) | Prop::Def(p, args) => {
                if args.is_empty() {
                    write!(f, "{p}")
                } else {
                    write!(f, "({p}")?;
                    for a in args.iter() {
                        write!(f, " {a}")?;
                    }
                    write!(f, ")")
                }
            }
            Prop::And(a, b) => write!(f, "({a} /\\ {b})"),
            Prop::Or(a, b) => write!(f, "({a} \\/ {b})"),
            Prop::Imp(a, b) => write!(f, "({a} -> {b})"),
            Prop::Forall(v, s, body) => write!(f, "(forall ({v} : {s}), {body})"),
            Prop::Exists(v, s, body) => write!(f, "(exists ({v} : {s}), {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::sym;

    fn tvar(s: &str) -> Term {
        Term::var(s)
    }

    #[test]
    fn term_subst_basic() {
        let t = Term::ctor("pair", vec![tvar("x"), tvar("y")]);
        let r = t.subst1(sym("x"), &Term::c0("zero"));
        assert_eq!(r, Term::ctor("pair", vec![Term::c0("zero"), tvar("y")]));
    }

    #[test]
    fn term_match_binds_pattern_vars() {
        let pat = Term::ctor("cons", vec![tvar("h"), tvar("t")]);
        let target = Term::ctor("cons", vec![Term::c0("a"), Term::c0("nil")]);
        let mut m = HashMap::new();
        assert!(pat.match_against(&target, &[sym("h"), sym("t")], &mut m));
        assert_eq!(m[&sym("h")], Term::c0("a"));
        assert_eq!(m[&sym("t")], Term::c0("nil"));
    }

    #[test]
    fn term_match_nonlinear() {
        let pat = Term::ctor("pair", vec![tvar("x"), tvar("x")]);
        let ok = Term::ctor("pair", vec![Term::c0("a"), Term::c0("a")]);
        let bad = Term::ctor("pair", vec![Term::c0("a"), Term::c0("b")]);
        let mut m = HashMap::new();
        assert!(pat.match_against(&ok, &[sym("x")], &mut m));
        let mut m2 = HashMap::new();
        assert!(!pat.match_against(&bad, &[sym("x")], &mut m2));
    }

    #[test]
    fn prop_subst_avoids_capture() {
        // (forall y, x = y)[x := y]  must rename the binder.
        let p = Prop::forall("y", Sort::named("nat"), Prop::eq(tvar("x"), tvar("y")));
        let r = p.subst1(sym("x"), &tvar("y"));
        if let Prop::Forall(v, _, body) = &r {
            assert_ne!(*v, sym("y"));
            assert_eq!(**body, Prop::eq(tvar("y"), Term::Var(*v)));
        } else {
            panic!("expected forall, got {r:?}");
        }
    }

    #[test]
    fn prop_subst_shadowing() {
        // (forall x, x = z)[x := zero] leaves the bound x alone.
        let p = Prop::forall("x", Sort::named("nat"), Prop::eq(tvar("x"), tvar("z")));
        let r = p.subst1(sym("x"), &Term::c0("zero"));
        assert!(r.alpha_eq(&p));
    }

    #[test]
    fn subst_untouched_subtree_is_identity() {
        // The fast path must return the *same* interned node, not a copy.
        let t = Term::ctor("pair", vec![tvar("a"), Term::c0("zero")]);
        let r = t.subst1(sym("zz_not_free"), &Term::c0("zero"));
        assert_eq!(t, r);
        let p = Prop::forall("x", Sort::Id, Prop::eq(tvar("x"), tvar("a")));
        let mut map = HashMap::new();
        map.insert(sym("zz_not_free"), Term::c0("zero"));
        assert_eq!(p.subst(&map), p);
    }

    #[test]
    fn alpha_eq_quantifiers() {
        let p = Prop::forall("x", Sort::Id, Prop::eq(tvar("x"), tvar("x")));
        let q = Prop::forall("y", Sort::Id, Prop::eq(tvar("y"), tvar("y")));
        assert!(p.alpha_eq(&q));
        let r = Prop::forall("y", Sort::Id, Prop::eq(tvar("y"), tvar("z")));
        assert!(!p.alpha_eq(&r));
    }

    #[test]
    fn strip_rule_decomposes() {
        let rule = Prop::forall(
            "x",
            Sort::Id,
            Prop::imp(
                Prop::atom("p", vec![tvar("x")]),
                Prop::atom("q", vec![tvar("x")]),
            ),
        );
        let (binders, prems, concl) = rule.strip_rule();
        assert_eq!(binders.len(), 1);
        assert_eq!(prems.len(), 1);
        assert_eq!(concl, Prop::atom("q", vec![tvar("x")]));
    }

    #[test]
    fn replace_term_in_prop() {
        let p = Prop::eq(
            Term::func("subst", vec![Term::c0("tm_unit"), tvar("x"), tvar("t")]),
            Term::c0("tm_unit"),
        );
        let r = p.replace_term(
            &Term::func("subst", vec![Term::c0("tm_unit"), tvar("x"), tvar("t")]),
            &Term::c0("tm_unit"),
        );
        assert_eq!(r, Prop::eq(Term::c0("tm_unit"), Term::c0("tm_unit")));
    }

    #[test]
    fn prop_match_under_binder() {
        let pat = Prop::forall("z", Sort::Id, Prop::atom("p", vec![tvar("z"), tvar("m")]));
        let target = Prop::forall(
            "w",
            Sort::Id,
            Prop::atom("p", vec![tvar("w"), Term::c0("k")]),
        );
        let mut m = HashMap::new();
        assert!(pat.match_against(&target, &[sym("m")], &mut m));
        assert_eq!(m[&sym("m")], Term::c0("k"));
    }

    #[test]
    fn free_vars_ignore_bound() {
        let p = Prop::forall("x", Sort::Id, Prop::eq(tvar("x"), tvar("y")));
        assert_eq!(p.free_vars(), vec![sym("y")]);
    }

    #[test]
    fn equality_is_structural() {
        // Same structure built twice interns identically (O(1) equality).
        let a = Term::ctor("succ", vec![Term::ctor("succ", vec![Term::c0("zero")])]);
        let b = Term::ctor("succ", vec![Term::ctor("succ", vec![Term::c0("zero")])]);
        assert_eq!(a, b);
        let p = Prop::imp(Prop::eq(a, b), Prop::True);
        let q = Prop::imp(Prop::eq(b, a), Prop::True);
        assert_eq!(p, q);
        assert_eq!(p.digest(), q.digest());
    }

    #[test]
    fn size_and_digest_are_cached_consistently() {
        let t = Term::ctor("pair", vec![tvar("x"), Term::ctor("succ", vec![tvar("y")])]);
        assert_eq!(t.size(), 4);
        let p = Prop::forall("x", Sort::Id, Prop::eq(t, t));
        assert_eq!(p.size(), 1 + 1 + 2 * t.size());
        assert!(p.free_contains(sym("y")));
        assert!(!p.free_contains(sym("x"))); // bound
    }

    #[test]
    fn display_is_readable() {
        let p = Prop::imp(
            Prop::atom("value", vec![tvar("t")]),
            Prop::eq(tvar("t"), tvar("t")),
        );
        assert_eq!(format!("{p}"), "((value t) -> t = t)");
    }
}
