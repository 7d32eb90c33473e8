//! Differential oracle #6: the hash-consed term representation against a
//! naive boxed-tree reference.
//!
//! PR "hash-consed kernel terms" replaced `Vec<Term>` / `Box<Prop>`
//! recursive positions with interned `TermList` / `PropRef` handles and
//! rewrote `subst` / `subst1` / `replace` / `contains` with cached-summary
//! fast paths (skip subtrees where no substituted variable is free, prune
//! by node counts). Each fast path is a claim of semantic equality with
//! the obvious recursion; this oracle checks every claim against an
//! independent naive implementation over an ordinary owned tree, on
//! random terms from the codec generator (all four heads, deep and wide).
//!
//! The same oracle holds the kernel's `fsimpl` to its definition: on goals
//! built from every Venn variant's recursive functions, `fsimpl` and
//! `fsimpl_in` must give exactly what the `rewrite` tactic gives when run
//! with each computation and delta equation by name, in fact order, to a
//! fixpoint.
//!
//! Replay a failure with `FPOP_TEST_SEED=0x… cargo test -p testkit`;
//! scale iterations with `FPOP_TEST_ITERS=N` (see `docs/TESTING.md`).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use families_stlc::{lattice, variant_name, Feature};
use fpop::universe::FamilyUniverse;
use objlang::intern::TermList;
use objlang::sig::{FactKind, FnDef, Signature};
use objlang::syntax::{Prop, Sort, Term};
use objlang::{sym, ProofState, Sequent, Symbol};
use testkit::store_gen::{gen_obj_term, gen_prop, gen_sort};
use testkit::term_gen::{erase, gen_typed_term};
use testkit::{run_cases, Rng};

// ---------------------------------------------------------------------------
// The naive reference representation
// ---------------------------------------------------------------------------

/// An owned, un-shared first-order term: the representation `objlang`
/// used before hash-consing, reimplemented here so the oracle does not
/// depend on any code path it is checking.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NTerm {
    Var(String),
    Ctor(String, Vec<NTerm>),
    Fn(String, Vec<NTerm>),
    Lit(String),
}

fn to_naive(t: &Term) -> NTerm {
    match t {
        Term::Var(v) => NTerm::Var(v.as_str().to_string()),
        Term::Ctor(c, args) => {
            NTerm::Ctor(c.as_str().to_string(), args.iter().map(to_naive).collect())
        }
        Term::Fn(f, args) => NTerm::Fn(f.as_str().to_string(), args.iter().map(to_naive).collect()),
        Term::Lit(l) => NTerm::Lit(l.as_str().to_string()),
    }
}

fn from_naive(t: &NTerm) -> Term {
    match t {
        NTerm::Var(v) => Term::var(v),
        NTerm::Ctor(c, args) => Term::ctor(c, args.iter().map(from_naive).collect()),
        NTerm::Fn(f, args) => Term::func(f, args.iter().map(from_naive).collect()),
        NTerm::Lit(l) => Term::lit(l),
    }
}

impl NTerm {
    fn subst(&self, map: &HashMap<String, NTerm>) -> NTerm {
        match self {
            NTerm::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            NTerm::Ctor(c, args) => {
                NTerm::Ctor(c.clone(), args.iter().map(|a| a.subst(map)).collect())
            }
            NTerm::Fn(f, args) => NTerm::Fn(f.clone(), args.iter().map(|a| a.subst(map)).collect()),
            NTerm::Lit(_) => self.clone(),
        }
    }

    fn subst1(&self, var: &str, replacement: &NTerm) -> NTerm {
        let mut map = HashMap::new();
        map.insert(var.to_string(), replacement.clone());
        self.subst(&map)
    }

    fn contains(&self, needle: &NTerm) -> bool {
        if self == needle {
            return true;
        }
        match self {
            NTerm::Ctor(_, args) | NTerm::Fn(_, args) => args.iter().any(|a| a.contains(needle)),
            _ => false,
        }
    }

    fn replace(&self, from: &NTerm, to: &NTerm) -> NTerm {
        if self == from {
            return to.clone();
        }
        match self {
            NTerm::Ctor(c, args) => NTerm::Ctor(
                c.clone(),
                args.iter().map(|a| a.replace(from, to)).collect(),
            ),
            NTerm::Fn(f, args) => NTerm::Fn(
                f.clone(),
                args.iter().map(|a| a.replace(from, to)).collect(),
            ),
            _ => self.clone(),
        }
    }

    fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            NTerm::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            NTerm::Ctor(_, args) | NTerm::Fn(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            NTerm::Lit(_) => {}
        }
    }

    fn size(&self) -> usize {
        match self {
            NTerm::Ctor(_, args) | NTerm::Fn(_, args) => {
                1 + args.iter().map(NTerm::size).sum::<usize>()
            }
            _ => 1,
        }
    }

    /// Collects every subterm (used to pick interesting `replace` /
    /// `contains` needles that actually occur).
    fn subterms<'a>(&'a self, out: &mut Vec<&'a NTerm>) {
        out.push(self);
        if let NTerm::Ctor(_, args) | NTerm::Fn(_, args) = self {
            for a in args {
                a.subterms(out);
            }
        }
    }
}

/// A random substitution over the generator's variable namespace, built
/// from the same small name pool `gen_obj_term` draws from so that hits
/// and misses both occur.
fn gen_subst_map(r: &mut Rng) -> HashMap<String, NTerm> {
    let names = ["a", "b", "c", "f", "g", "hyp", "tm", "zero"];
    let mut map = HashMap::new();
    for _ in 0..r.below(4) {
        let name = r.pick(&names).to_string();
        let value = to_naive(&gen_obj_term(r, 1));
        map.insert(name, value);
    }
    map
}

// ---------------------------------------------------------------------------
// The oracle proper
// ---------------------------------------------------------------------------

#[test]
fn roundtrip_preserves_structure_and_metadata() {
    run_cases("terms/roundtrip", 0x7e31_0001, 400, |r| {
        let t = gen_obj_term(r, 4);
        let n = to_naive(&t);
        let back = from_naive(&n);
        assert_eq!(
            back, t,
            "naive round-trip must re-intern to the same handle"
        );
        assert_eq!(
            t.size(),
            n.size(),
            "cached size disagrees with recomputation"
        );
        let mut naive_free = Vec::new();
        n.free_vars(&mut naive_free);
        naive_free.sort();
        let mut fast_free: Vec<String> = t
            .free_vars()
            .iter()
            .map(|s| s.as_str().to_string())
            .collect();
        fast_free.sort();
        assert_eq!(fast_free, naive_free, "free-variable sets disagree");
        for v in &naive_free {
            assert!(t.free_contains(sym(v)), "free_contains misses {v}");
        }
        assert!(!t.free_contains(sym("no_such_variable_xyz")));
    });
}

#[test]
fn subst_agrees_with_naive() {
    run_cases("terms/subst", 0x7e31_0002, 400, |r| {
        let t = gen_obj_term(r, 4);
        let n = to_naive(&t);
        let nmap = gen_subst_map(r);
        let fmap: HashMap<Symbol, Term> =
            nmap.iter().map(|(k, v)| (sym(k), from_naive(v))).collect();
        assert_eq!(
            t.subst(&fmap),
            from_naive(&n.subst(&nmap)),
            "subst diverges from the naive recursion"
        );
    });
}

#[test]
fn subst1_agrees_with_naive() {
    run_cases("terms/subst1", 0x7e31_0003, 400, |r| {
        let t = gen_obj_term(r, 4);
        let n = to_naive(&t);
        let names = ["a", "b", "c", "f", "g", "hyp", "tm", "zero"];
        let var = r.pick(&names).to_string();
        let replacement = gen_obj_term(r, 2);
        assert_eq!(
            t.subst1(sym(&var), &replacement),
            from_naive(&n.subst1(&var, &to_naive(&replacement))),
            "subst1 diverges from the naive recursion"
        );
    });
}

#[test]
fn contains_and_replace_agree_with_naive() {
    run_cases("terms/contains_replace", 0x7e31_0004, 400, |r| {
        let t = gen_obj_term(r, 4);
        let n = to_naive(&t);
        // Half the needles are real subterms (so the positive path and the
        // size-pruned recursion are both exercised), half arbitrary.
        let needle_n = if r.flip() {
            let mut subs = Vec::new();
            n.subterms(&mut subs);
            (*r.pick(&subs)).clone()
        } else {
            to_naive(&gen_obj_term(r, 2))
        };
        let needle = from_naive(&needle_n);
        assert_eq!(
            t.contains(&needle),
            n.contains(&needle_n),
            "contains diverges from the naive recursion"
        );
        let to = gen_obj_term(r, 1);
        assert_eq!(
            t.replace(&needle, &to),
            from_naive(&n.replace(&needle_n, &to_naive(&to))),
            "replace diverges from the naive recursion"
        );
    });
}

#[test]
fn eval_agrees_with_host_arithmetic() {
    use objlang::eval::{eval_default, nat_lit, nat_value};
    let mut sig = objlang::Signature::new();
    objlang::prelude::install(&mut sig).unwrap();
    objlang::prelude::install_nat_add(&mut sig).unwrap();
    run_cases("terms/eval", 0x7e31_0005, 60, |r| {
        let (a, b) = (r.below(40), r.below(40));
        let t = Term::func("add", vec![nat_lit(a), nat_lit(b)]);
        let v = eval_default(&sig, &t).expect("closed nat program evaluates");
        assert_eq!(
            nat_value(&v),
            Some(a + b),
            "evaluator wrong on add({a},{b}) under the interned representation"
        );
    });
}

#[test]
fn prop_subst1_matches_subst_map() {
    // `Prop::subst1` is a separate direct implementation (no per-call
    // map); it must agree with `Prop::subst` on singleton maps up to
    // alpha-equivalence (the two may pick different fresh binder names).
    run_cases("terms/prop_subst1", 0x7e31_0006, 300, |r| {
        let p = gen_prop(r, 3);
        let names = ["a", "b", "c", "f", "g", "hyp", "tm", "zero"];
        let var = sym(names[r.below(names.len() as u64) as usize]);
        let replacement = gen_obj_term(r, 2);
        let direct = p.subst1(var, &replacement);
        let mut map = HashMap::new();
        map.insert(var, replacement);
        let via_map = p.subst(&map);
        assert!(
            direct.alpha_eq(&via_map),
            "Prop::subst1 and Prop::subst disagree:\n  direct:  {direct}\n  via map: {via_map}"
        );
    });
}

/// The generator's name pool (`store_gen`'s), for keys and closed heads.
const NAMES: [&str; 8] = ["a", "b", "c", "f", "g", "hyp", "tm", "zero"];

/// A random closed term (no variables): a replacement that successive
/// single substitutions can neither feed into one another nor capture.
fn gen_closed_term(r: &mut Rng, depth: u32) -> Term {
    let name = *r.pick(&NAMES);
    if depth == 0 || r.below(3) == 0 {
        return if r.flip() {
            Term::lit(name)
        } else {
            Term::c0(name)
        };
    }
    let args: Vec<Term> = (0..1 + r.below(3))
        .map(|_| gen_closed_term(r, depth - 1))
        .collect();
    if r.flip() {
        Term::ctor(name, args)
    } else {
        Term::func(name, args)
    }
}

#[test]
fn prop_subst_map_matches_successive_subst1() {
    // With closed replacements, substituting a whole map at once equals
    // substituting its keys one at a time, in any order. The props are
    // wrapped in quantifiers over some of the map's own keys, and the
    // generator's binders draw from the same name pool, so `Prop::subst`
    // meets binders that shadow one key while others stay live — the
    // case where it must drop exactly the shadowed binding.
    run_cases("terms/prop_subst_map", 0x7e31_0106, 300, |r| {
        // Bindings in generation order (a case replays from its seed),
        // each key once.
        let mut bindings: Vec<(Symbol, Term)> = Vec::new();
        for _ in 0..2 + r.below(3) {
            let name = *r.pick(&NAMES);
            let key = sym(name);
            let value = gen_closed_term(r, 2);
            if !bindings.iter().any(|(k, _)| *k == key) {
                bindings.push((key, value));
            }
        }
        let map: HashMap<Symbol, Term> = bindings.iter().copied().collect();
        let mut p = gen_prop(r, 4);
        for _ in 0..r.below(3) {
            let k = bindings[r.below(bindings.len() as u64) as usize].0;
            p = if r.flip() {
                Prop::Forall(k, gen_sort(r), p.into())
            } else {
                Prop::and(Prop::Exists(k, gen_sort(r), p.into()), p)
            };
        }
        let via_map = p.subst(&map);
        let successive = bindings.iter().fold(p, |q, (k, t)| q.subst1(*k, t));
        assert!(
            via_map.alpha_eq(&successive),
            "Prop::subst of a map and successive subst1 disagree on {p}:\n  \
             via map:    {via_map}\n  successive: {successive}"
        );
    });
}

#[test]
fn digest_is_stable_across_construction_orders() {
    run_cases("terms/digest", 0x7e31_0007, 200, |r| {
        let t = gen_obj_term(r, 4);
        let rebuilt = from_naive(&to_naive(&t));
        assert_eq!(t, rebuilt);
        let (Term::Ctor(_, a) | Term::Fn(_, a), Term::Ctor(_, b) | Term::Fn(_, b)) = (&t, &rebuilt)
        else {
            return;
        };
        assert_eq!(a.digest(), b.digest(), "digest not content-determined");
        assert_eq!(a.total_size(), b.total_size());
        assert_eq!(a.free_vars(), b.free_vars());
    });
}

// ---------------------------------------------------------------------------
// fsimpl against the rewrite tactic
// ---------------------------------------------------------------------------

/// Each Venn variant's features and compiled signature, built once.
fn venn_variants() -> &'static [(Vec<Feature>, Arc<Signature>)] {
    static VARIANTS: OnceLock<Vec<(Vec<Feature>, Arc<Signature>)>> = OnceLock::new();
    VARIANTS.get_or_init(|| {
        let mut u = FamilyUniverse::new();
        let plan = lattice::Plan::new(&Feature::all()).unwrap();
        lattice::build(&mut u, &plan, 1).expect("Venn lattice builds");
        (0..16u32)
            .map(|mask| {
                let feats: Vec<Feature> = (0..4)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| Feature::all()[i])
                    .collect();
                let fam = u.family(&variant_name(&feats)).expect("variant built");
                (feats, Arc::clone(&fam.sig))
            })
            .collect()
    })
}

/// Generates goal terms over one variant: applications of its recursive
/// functions to `term_gen` terms, to constructor trees of the other
/// sorts, to nested applications, and to sequent variables.
struct GoalGen<'a> {
    sig: &'a Signature,
    feats: &'a [Feature],
    /// The variant's recursive functions, by name.
    rec_fns: Vec<(Symbol, Vec<Sort>, Sort)>,
    /// Sequent variables introduced so far.
    vars: Vec<(Symbol, Sort)>,
    /// Variables named so far (a quantified one leaves `vars`).
    named: usize,
}

impl GoalGen<'_> {
    fn var(&mut self, sort: Sort) -> Term {
        let v = sym(&format!("x{}", self.named));
        self.named += 1;
        self.vars.push((v, sort));
        Term::Var(v)
    }

    fn app(&mut self, r: &mut Rng, depth: u32) -> (Term, Sort) {
        let (f, params, ret) = self.rec_fns[r.below(self.rec_fns.len() as u64) as usize].clone();
        let args = params.iter().map(|s| self.arg(r, *s, depth)).collect();
        (Term::Fn(f, args), ret)
    }

    fn arg(&mut self, r: &mut Rng, sort: Sort, depth: u32) -> Term {
        if r.below(4) == 0 {
            return self.var(sort);
        }
        if depth > 0 && r.below(4) == 0 {
            let nested: Vec<usize> = (0..self.rec_fns.len())
                .filter(|i| self.rec_fns[*i].2 == sort)
                .collect();
            if !nested.is_empty() {
                let (f, params, _) = self.rec_fns[*r.pick(&nested)].clone();
                let args = params.iter().map(|s| self.arg(r, *s, depth - 1)).collect();
                return Term::Fn(f, args);
            }
        }
        let name = match sort {
            Sort::Id => {
                let name = *r.pick(&NAMES);
                return Term::lit(name);
            }
            Sort::Named(n) => n,
        };
        if name.as_str() == "tm" {
            return erase(&gen_typed_term(r, self.feats, 2).term);
        }
        let dt = self.sig.datatype(name).expect("named sorts are datatypes");
        let ctors: Vec<_> = dt
            .ctors
            .iter()
            .filter(|c| depth > 0 || c.args.is_empty())
            .cloned()
            .collect();
        if ctors.is_empty() {
            return self.var(sort);
        }
        let ctor = r.pick(&ctors);
        let args = ctor
            .args
            .iter()
            .map(|s| self.arg(r, *s, depth.saturating_sub(1)))
            .collect();
        Term::Ctor(ctor.name, args)
    }
}

/// The reference `fsimpl`: the `rewrite` tactic (or `rewrite_in` on
/// hypothesis `hyp`) with every computation and delta equation by name,
/// in fact order, failures ignored, until a pass changes nothing.
fn rewrite_to_fixpoint(st: &mut ProofState<'_>, hyp: Option<&str>) {
    let names: Vec<String> = st
        .signature()
        .facts()
        .iter()
        .filter(|f| matches!(f.kind, FactKind::CompEq | FactKind::DeltaEq))
        .map(|f| f.name.as_str().to_string())
        .collect();
    let target = |st: &ProofState<'_>| {
        let seq = st.focused().unwrap();
        match hyp {
            None => seq.goal,
            Some(h) => *seq.hyp(sym(h)).unwrap(),
        }
    };
    for _ in 0..2000 {
        let mut changed = false;
        for n in &names {
            let before = target(st);
            let ran = match hyp {
                None => st.rewrite(n),
                Some(h) => st.rewrite_in(n, h),
            };
            if ran.is_ok() && target(st) != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[test]
fn fsimpl_agrees_with_rewriting_to_a_fixpoint() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let variants = venn_variants();
    let rewritten = AtomicUsize::new(0);
    run_cases("terms/fsimpl", 0x7e31_0009, 48, |r| {
        let (feats, sig) = &variants[r.below(variants.len() as u64) as usize];
        let mut rec_fns: Vec<(Symbol, Vec<Sort>, Sort)> = sig
            .functions()
            .filter(|f| matches!(f, FnDef::Rec(_)))
            .map(|f| (f.name(), f.param_sorts(), f.ret_sort()))
            .collect();
        rec_fns.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        let mut g = GoalGen {
            sig,
            feats,
            rec_fns,
            vars: Vec::new(),
            named: 0,
        };
        // Goal: `f(args) = res`, sometimes under a binder for one of its
        // own variables, so matches that would capture it are refused.
        let (app, ret) = g.app(r, 2);
        let mut goal = Prop::eq(app, g.var(ret));
        if r.flip() {
            let candidates: Vec<usize> = (0..g.vars.len())
                .filter(|i| app.free_contains(g.vars[*i].0))
                .collect();
            if !candidates.is_empty() {
                let (q, s) = g.vars.remove(*r.pick(&candidates));
                goal = Prop::Forall(q, s, goal.into());
            }
        }
        let (happ, hret) = g.app(r, 2);
        let hyp = Prop::eq(happ, g.var(hret));
        let seq = Sequent {
            vars: g.vars,
            hyps: vec![(sym("H"), hyp)],
            goal,
        };
        let mut fast = ProofState::with_sequent(sig, seq.clone()).expect("well-sorted goal");
        fast.fsimpl().unwrap();
        fast.fsimpl_in("H").unwrap();
        let mut reference = ProofState::with_sequent(sig, seq.clone()).unwrap();
        rewrite_to_fixpoint(&mut reference, None);
        rewrite_to_fixpoint(&mut reference, Some("H"));
        assert_eq!(
            fast.goals(),
            reference.goals(),
            "fsimpl diverges from rewriting to a fixpoint on\n{seq}"
        );
        if fast.goals() != [seq] {
            rewritten.fetch_add(1, Ordering::Relaxed);
        }
    });
    // Non-vacuity: most goals apply a function to constructors, so the
    // equations must have fired (unless a replay pinned a single case).
    if std::env::var("FPOP_TEST_SEED").is_err() {
        assert!(
            rewritten.load(Ordering::Relaxed) > 0,
            "no fsimpl ever rewrote anything"
        );
    }
}

// ---------------------------------------------------------------------------
// Interner concurrency stress
// ---------------------------------------------------------------------------

/// Hammers the global term/prop interner from many threads building the
/// *same* pseudo-random value stream, then asserts full agreement: every
/// thread must observe identical handles (O(1) equality), digests, and
/// metadata for identical content, and the arena must stay consistent
/// under racing inserts (the publish-or-discard path in
/// `objlang::intern`).
#[test]
fn interner_concurrent_dedup_stress() {
    const THREADS: usize = 8;
    const TERMS: usize = 600;
    let build = || -> Vec<(Term, Prop)> {
        let mut r = Rng::new(0x7e31_0008);
        (0..TERMS)
            .map(|_| (gen_obj_term(&mut r, 3), gen_prop(&mut r, 2)))
            .collect()
    };
    let all: Vec<Vec<(Term, Prop)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(build)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reference = build();
    for (i, thread_vals) in all.iter().enumerate() {
        assert_eq!(
            thread_vals.len(),
            reference.len(),
            "thread {i} produced a different stream length"
        );
        for (j, ((t, p), (rt, rp))) in thread_vals.iter().zip(&reference).enumerate() {
            // Handle equality across threads is the hash-consing invariant:
            // racing interns of equal content must converge on one entry.
            assert_eq!(t, rt, "thread {i} term {j} got a distinct handle");
            assert_eq!(p, rp, "thread {i} prop {j} got a distinct handle");
            assert_eq!(t.digest(), rt.digest());
            assert_eq!(p.digest(), rp.digest());
        }
    }
    // The shared empty list is canonical even under contention.
    assert_eq!(TermList::empty(), TermList::intern(&[]));
}
