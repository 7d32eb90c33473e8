//! The LCF-style proof kernel.
//!
//! A [`ProofState`] holds a stack of open [`Sequent`]s and exposes only
//! *sound* primitive steps; a [`Theorem`] can be produced exclusively by
//! discharging every goal through those steps. This mirrors how the paper's
//! plugin leans on Coq's kernel: the family layer (`fpop`) orchestrates
//! *what* gets proven and under which visibility (late binding, open-world
//! restrictions), while this module guarantees each step is valid.
//!
//! Two paper-critical restrictions are enforced here:
//!
//! * **C1 (exhaustivity)** — case analysis, structural induction and
//!   inversion on *extensible* datatypes/predicates are refused unless the
//!   proof runs in `closed_world` mode (used only for reprove-on-extend
//!   lemmas, paper Section 7, which the elaborator re-checks in every
//!   derived family).
//! * **C2 (late binding vs. equality)** — late-bound functions are
//!   [`crate::sig::FnDef::Abstract`]: nothing in the kernel can unfold
//!   them; only their registered propositional computation equations
//!   (`fsimpl`) are available, exactly as in Section 3.2.
//!
//! Constructor injectivity and disjointness on extensible datatypes are
//! licensed by partial-recursor registrations (Section 3.6).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::ident::Symbol;
use crate::sig::{FactKind, Signature};
use crate::syntax::{Prop, Sort, Term};

/// A sequent: sorted variables, named hypotheses, and a goal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Sequent {
    /// Universally quantified (eigen)variables in scope.
    pub vars: Vec<(Symbol, Sort)>,
    /// Named hypotheses.
    pub hyps: Vec<(Symbol, Prop)>,
    /// The goal proposition.
    pub goal: Prop,
}

impl Sequent {
    /// A sequent with no variables or hypotheses.
    pub fn closed(goal: Prop) -> Sequent {
        Sequent {
            vars: Vec::new(),
            hyps: Vec::new(),
            goal,
        }
    }

    /// Looks up a hypothesis by name.
    pub fn hyp(&self, name: Symbol) -> Option<&Prop> {
        self.hyps.iter().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    fn var_sorts(&self) -> HashMap<Symbol, Sort> {
        self.vars.iter().cloned().collect()
    }

    fn symbol_taken(&self, s: Symbol) -> bool {
        self.vars.iter().any(|(v, _)| *v == s)
            || self.hyps.iter().any(|(n, p)| *n == s || p.free_contains(s))
            || self.goal.free_contains(s)
    }

    fn fresh(&self, base: Symbol) -> Symbol {
        base.freshen(&|s| self.symbol_taken(s))
    }

    fn fresh_hyp(&self, base: &str) -> Symbol {
        Symbol::new(base).freshen(&|s| self.hyps.iter().any(|(n, _)| *n == s))
    }

    /// Substitutes a variable throughout hypotheses and goal; removes it
    /// from the variable context.
    fn substitute_var(&mut self, v: Symbol, t: &Term) {
        self.vars.retain(|(x, _)| *x != v);
        for (_, h) in &mut self.hyps {
            *h = h.subst1(v, t);
        }
        self.goal = self.goal.subst1(v, t);
    }
}

impl std::fmt::Display for Sequent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (v, s) in &self.vars {
            writeln!(f, "  {v} : {s}")?;
        }
        for (n, p) in &self.hyps {
            writeln!(f, "  {n} : {p}")?;
        }
        writeln!(f, "  ============================")?;
        writeln!(f, "  {}", self.goal)
    }
}

/// A proven proposition. Values of this type are only produced by
/// [`ProofState::qed`] (or by the family elaborator's trusted axiom
/// registration, which is audited separately).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Theorem {
    prop: Prop,
}

impl Theorem {
    /// The proven proposition.
    pub fn prop(&self) -> &Prop {
        &self.prop
    }

    /// Crate-internal trusted constructor, used by the rule-induction
    /// assembler in [`crate::induction`] (the assembly step is a kernel
    /// rule: if every case sequent of an induction principle is proven,
    /// the conclusion holds by fixed-point induction).
    pub(crate) fn trusted(prop: Prop) -> Theorem {
        Theorem { prop }
    }
}

/// Evidence that a particular [`Sequent`] was discharged through the
/// kernel. Only producible via [`ProofState::qed_sequent`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProvedSequent {
    seq: Sequent,
}

impl ProvedSequent {
    /// The proven sequent.
    pub fn sequent(&self) -> &Sequent {
        &self.seq
    }

    /// Re-admits a sequent as kernel evidence **without** replaying its
    /// proof. This is the explicit trust boundary of persistent proof
    /// caching: the `fpopd` engine serializes proved sequents to a
    /// checksummed snapshot and warm-loads them in a later process,
    /// where the original `ProofState` evidence cannot exist.
    ///
    /// **Trust model.** A snapshot file is trusted the way a compiled
    /// Coq `.vo` file is trusted: whoever can write it can assert
    /// arbitrary sequents, and loading admits them as evidence without
    /// replay. The snapshot's trailing FNV-1a hash detects *accidental*
    /// corruption (truncation, bit rot) — it is not a MAC and provides
    /// no protection against deliberate tampering, since anyone who can
    /// rewrite the file can recompute the hash. Store snapshots with the
    /// same filesystem trust as the `fpopd` binary itself; if a
    /// snapshot's provenance is unknown, delete it and pay the cold
    /// start (re-elaboration from source). Callers outside a snapshot
    /// loader should never use this constructor.
    pub fn assume_checked(seq: Sequent) -> ProvedSequent {
        ProvedSequent { seq }
    }
}

/// An in-progress proof: a stack of goals over a fixed signature.
#[derive(Clone)]
pub struct ProofState<'a> {
    sig: &'a Signature,
    goals: Vec<Sequent>,
    original: Sequent,
    /// Whether closed-world reasoning on extensible datatypes/predicates is
    /// permitted (reprove-on-extend proofs only).
    pub closed_world: bool,
    /// The signature's computation and delta equations as compiled
    /// [`RewriteRule`]s, in fact order: compiled by the first `fsimpl`
    /// and shared with every clone of this state (`auto` and the
    /// backtracking combinators clone it per attempt).
    fsimpl_rules: Arc<OnceLock<Vec<RewriteRule>>>,
    /// Memo table for [`Self::fsimpl_prop`]: input proposition → its
    /// simplification fixpoint. Sound because the equation set is frozen
    /// for this state's lifetime (the signature is held by shared borrow)
    /// and a compiled rule's `apply` is pure in its target. With
    /// hash-consed props the key hashes and compares in O(1), so repeated
    /// `fsimpl` over shared goals/hypotheses — ubiquitous under
    /// `fsimpl_all` and induction-case replay — costs one map probe
    /// instead of a rewrite fixpoint loop.
    fsimpl_memo: RefCell<HashMap<Prop, Prop>>,
}

impl<'a> ProofState<'a> {
    /// Starts a proof of a closed proposition.
    pub fn new(sig: &'a Signature, prop: Prop) -> Result<ProofState<'a>> {
        sig.check_prop(&HashMap::new(), &prop)
            .map_err(|e| e.with_context("statement of theorem"))?;
        Ok(ProofState {
            sig,
            goals: vec![Sequent::closed(prop.clone())],
            original: Sequent::closed(prop),
            closed_world: false,
            fsimpl_rules: Arc::default(),
            fsimpl_memo: RefCell::new(HashMap::new()),
        })
    }

    /// Starts a proof of an arbitrary sequent (used by the family layer for
    /// induction cases, where variables and hypotheses are pre-installed).
    pub fn with_sequent(sig: &'a Signature, seq: Sequent) -> Result<ProofState<'a>> {
        let vars = seq.var_sorts();
        for (_, h) in &seq.hyps {
            sig.check_prop(&vars, h)?;
        }
        sig.check_prop(&vars, &seq.goal)?;
        Ok(ProofState {
            sig,
            goals: vec![seq.clone()],
            original: seq,
            closed_world: false,
            fsimpl_rules: Arc::default(),
            fsimpl_memo: RefCell::new(HashMap::new()),
        })
    }

    /// The signature this proof runs in.
    pub fn signature(&self) -> &Signature {
        self.sig
    }

    /// The number of open goals.
    pub fn num_goals(&self) -> usize {
        self.goals.len()
    }

    /// True when every goal has been discharged.
    pub fn finished(&self) -> bool {
        self.goals.is_empty()
    }

    /// The focused (first) goal.
    pub fn focused(&self) -> Result<&Sequent> {
        self.goals
            .first()
            .ok_or_else(|| Error::new("no goals remaining"))
    }

    /// All open goals.
    pub fn goals(&self) -> &[Sequent] {
        &self.goals
    }

    /// Finishes the proof, producing a theorem for the original statement.
    ///
    /// # Errors
    ///
    /// Fails if goals remain open, or if the proof was started from a
    /// non-closed sequent (use [`ProofState::qed_sequent`] then).
    pub fn qed(self) -> Result<Theorem> {
        if !self.goals.is_empty() {
            return Err(Error::new(format!(
                "cannot Qed: {} goal(s) remain; first:\n{}",
                self.goals.len(),
                self.goals[0]
            )));
        }
        if !self.original.vars.is_empty() || !self.original.hyps.is_empty() {
            return Err(Error::new(
                "qed: proof started from an open sequent; use qed_sequent",
            ));
        }
        Ok(Theorem {
            prop: self.original.goal,
        })
    }

    /// Finishes a sequent-level proof (used for induction cases).
    ///
    /// # Errors
    ///
    /// Fails if goals remain open.
    pub fn qed_sequent(self) -> Result<ProvedSequent> {
        if !self.goals.is_empty() {
            return Err(Error::new(format!(
                "cannot Qed: {} goal(s) remain; first:\n{}",
                self.goals.len(),
                self.goals[0]
            )));
        }
        Ok(ProvedSequent { seq: self.original })
    }

    fn focused_mut(&mut self) -> Result<&mut Sequent> {
        self.goals
            .first_mut()
            .ok_or_else(|| Error::new("no goals remaining"))
    }

    fn close_focused(&mut self) {
        self.goals.remove(0);
    }

    fn replace_focused(&mut self, new_goals: Vec<Sequent>) {
        self.goals.splice(0..1, new_goals);
    }

    // ---- structural rules ---------------------------------------------

    /// Introduces one ∀-binder or one implication premise.
    /// Returns the name introduced.
    pub fn intro(&mut self) -> Result<Symbol> {
        let seq = self.focused_mut()?;
        match seq.goal.clone() {
            Prop::Forall(v, s, body) => {
                let fresh = seq.fresh(v);
                seq.vars.push((fresh, s));
                seq.goal = body.subst1(v, &Term::Var(fresh));
                Ok(fresh)
            }
            Prop::Imp(p, q) => {
                let name = seq.fresh_hyp("H");
                seq.hyps.push((name, *p));
                seq.goal = *q;
                Ok(name)
            }
            other => Err(Error::new(format!("intro: goal is not ∀/→: {other}"))),
        }
    }

    /// Introduces with an explicit name.
    pub fn intro_as(&mut self, name: &str) -> Result<Symbol> {
        let seq = self.focused_mut()?;
        let requested = Symbol::new(name);
        match seq.goal.clone() {
            Prop::Forall(v, s, body) => {
                if seq.symbol_taken(requested) {
                    return Err(Error::new(format!("intro_as: name {requested} taken")));
                }
                seq.vars.push((requested, s));
                seq.goal = body.subst1(v, &Term::Var(requested));
                Ok(requested)
            }
            Prop::Imp(p, q) => {
                if seq.hyps.iter().any(|(n, _)| *n == requested) {
                    return Err(Error::new(format!("intro_as: hyp {requested} exists")));
                }
                seq.hyps.push((requested, *p));
                seq.goal = *q;
                Ok(requested)
            }
            other => Err(Error::new(format!("intro_as: goal is not ∀/→: {other}"))),
        }
    }

    /// Introduces until the goal is neither ∀ nor →.
    pub fn intros(&mut self) -> Result<Vec<Symbol>> {
        let mut names = Vec::new();
        while matches!(self.focused()?.goal, Prop::Forall(..) | Prop::Imp(..)) {
            names.push(self.intro()?);
        }
        Ok(names)
    }

    /// Moves hypothesis `h` back into the goal as a premise.
    pub fn revert(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused_mut()?;
        let idx = seq
            .hyps
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| Error::new(format!("revert: no hypothesis {name}")))?;
        let (_, p) = seq.hyps.remove(idx);
        seq.goal = Prop::imp(p, seq.goal.clone());
        Ok(())
    }

    /// Moves variable `v` back into the goal as a ∀ (it must not occur in
    /// any hypothesis).
    pub fn revert_var(&mut self, v: &str) -> Result<()> {
        let name = Symbol::new(v);
        let seq = self.focused_mut()?;
        let idx = seq
            .vars
            .iter()
            .position(|(x, _)| *x == name)
            .ok_or_else(|| Error::new(format!("revert_var: no variable {name}")))?;
        if seq.hyps.iter().any(|(_, p)| p.free_contains(name)) {
            return Err(Error::new(format!(
                "revert_var: {name} occurs in a hypothesis; revert those first"
            )));
        }
        let (_, s) = seq.vars.remove(idx);
        seq.goal = Prop::Forall(name, s, seq.goal.clone().into());
        Ok(())
    }

    /// Renames a hypothesis.
    pub fn rename_hyp(&mut self, old: &str, new: &str) -> Result<()> {
        let oldn = Symbol::new(old);
        let newn = Symbol::new(new);
        let seq = self.focused_mut()?;
        if seq.hyps.iter().any(|(n, _)| *n == newn) {
            return Err(Error::new(format!("rename: hypothesis {new} exists")));
        }
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == oldn)
            .ok_or_else(|| Error::new(format!("rename: no hypothesis {old}")))?;
        entry.0 = newn;
        Ok(())
    }

    /// Clears a hypothesis.
    pub fn clear(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused_mut()?;
        let idx = seq
            .hyps
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| Error::new(format!("clear: no hypothesis {name}")))?;
        seq.hyps.remove(idx);
        Ok(())
    }

    // ---- closing rules --------------------------------------------------

    /// Closes the goal with an alpha-equal hypothesis.
    pub fn exact(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused()?;
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("exact: no hypothesis {name}")))?;
        if p.alpha_eq(&seq.goal) {
            self.close_focused();
            Ok(())
        } else {
            Err(Error::new(format!(
                "exact: hypothesis {name} ({p}) ≠ goal ({})",
                seq.goal
            )))
        }
    }

    /// Closes the goal with any alpha-equal hypothesis.
    pub fn assumption(&mut self) -> Result<()> {
        let seq = self.focused()?;
        if seq.hyps.iter().any(|(_, p)| p.alpha_eq(&seq.goal)) {
            self.close_focused();
            Ok(())
        } else {
            Err(Error::new("assumption: no matching hypothesis"))
        }
    }

    /// Closes `True` or reflexive-equality goals.
    pub fn trivial(&mut self) -> Result<()> {
        let seq = self.focused()?;
        let ok = match &seq.goal {
            Prop::True => true,
            Prop::Eq(a, b) => a == b,
            _ => false,
        };
        if ok {
            self.close_focused();
            Ok(())
        } else {
            Err(Error::new(format!(
                "trivial: goal not trivially true: {}",
                seq.goal
            )))
        }
    }

    /// Closes an equality goal whose sides are syntactically equal.
    pub fn reflexivity(&mut self) -> Result<()> {
        let seq = self.focused()?;
        match &seq.goal {
            Prop::Eq(a, b) if a == b => {
                self.close_focused();
                Ok(())
            }
            other => Err(Error::new(format!("reflexivity: goal is {other}"))),
        }
    }

    /// Swaps the sides of an equality goal.
    pub fn symmetry(&mut self) -> Result<()> {
        let seq = self.focused_mut()?;
        match seq.goal.clone() {
            Prop::Eq(a, b) => {
                seq.goal = Prop::Eq(b, a);
                Ok(())
            }
            other => Err(Error::new(format!("symmetry: goal is {other}"))),
        }
    }

    /// Swaps the sides of an equality hypothesis.
    pub fn symmetry_in(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| Error::new(format!("symmetry_in: no hypothesis {name}")))?;
        match entry.1.clone() {
            Prop::Eq(a, b) => {
                entry.1 = Prop::Eq(b, a);
                Ok(())
            }
            other => Err(Error::new(format!("symmetry_in: hypothesis is {other}"))),
        }
    }

    // ---- connective rules ----------------------------------------------

    /// Splits a conjunction goal into two goals.
    pub fn split(&mut self) -> Result<()> {
        let seq = self.focused()?.clone();
        match seq.goal.clone() {
            Prop::And(a, b) => {
                let mut g1 = seq.clone();
                g1.goal = *a;
                let mut g2 = seq;
                g2.goal = *b;
                self.replace_focused(vec![g1, g2]);
                Ok(())
            }
            other => Err(Error::new(format!("split: goal is {other}"))),
        }
    }

    /// Proves the left disjunct.
    pub fn left(&mut self) -> Result<()> {
        let seq = self.focused_mut()?;
        match seq.goal.clone() {
            Prop::Or(a, _) => {
                seq.goal = *a;
                Ok(())
            }
            other => Err(Error::new(format!("left: goal is {other}"))),
        }
    }

    /// Proves the right disjunct.
    pub fn right(&mut self) -> Result<()> {
        let seq = self.focused_mut()?;
        match seq.goal.clone() {
            Prop::Or(_, b) => {
                seq.goal = *b;
                Ok(())
            }
            other => Err(Error::new(format!("right: goal is {other}"))),
        }
    }

    /// Provides a witness for an existential goal.
    pub fn exists(&mut self, witness: Term) -> Result<()> {
        let sig = self.sig;
        let seq = self.focused_mut()?;
        match seq.goal.clone() {
            Prop::Exists(v, s, body) => {
                sig.check_term(&seq.var_sorts(), &witness, s)
                    .map_err(|e| e.with_context("exists witness"))?;
                seq.goal = body.subst1(v, &witness);
                Ok(())
            }
            other => Err(Error::new(format!("exists: goal is {other}"))),
        }
    }

    /// Decomposes a hypothesis: `∧` into two, `∨` into two goals, `∃` into
    /// a fresh variable + body, `False` closes the goal, `True` is dropped.
    pub fn destruct(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused()?.clone();
        let idx = seq
            .hyps
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| Error::new(format!("destruct: no hypothesis {name}")))?;
        let p = seq.hyps[idx].1.clone();
        match p {
            Prop::And(a, b) => {
                let mut s = seq;
                s.hyps.remove(idx);
                let n1 = s.fresh_hyp(&format!("{name}l"));
                s.hyps.push((n1, *a));
                let n2 = s.fresh_hyp(&format!("{name}r"));
                s.hyps.push((n2, *b));
                self.replace_focused(vec![s]);
                Ok(())
            }
            Prop::Or(a, b) => {
                let mut s1 = seq.clone();
                s1.hyps[idx].1 = *a;
                let mut s2 = seq;
                s2.hyps[idx].1 = *b;
                self.replace_focused(vec![s1, s2]);
                Ok(())
            }
            Prop::Exists(v, sort, body) => {
                let mut s = seq;
                let fresh = s.fresh(v);
                s.vars.push((fresh, sort));
                s.hyps[idx].1 = body.subst1(v, &Term::Var(fresh));
                self.replace_focused(vec![s]);
                Ok(())
            }
            Prop::False => {
                self.close_focused();
                Ok(())
            }
            Prop::True => {
                let mut s = seq;
                s.hyps.remove(idx);
                self.replace_focused(vec![s]);
                Ok(())
            }
            other => Err(Error::new(format!("destruct: cannot destruct {other}"))),
        }
    }

    /// Replaces the goal by `False` (to be closed via a contradiction).
    pub fn exfalso(&mut self) -> Result<()> {
        self.focused_mut()?.goal = Prop::False;
        Ok(())
    }

    /// Closes the goal from a `False` hypothesis, a constructor-clash
    /// equality, or a pair of contradictory hypotheses.
    pub fn contradiction(&mut self) -> Result<()> {
        let seq = self.focused()?.clone();
        for (_, p) in &seq.hyps {
            if matches!(p, Prop::False) {
                self.close_focused();
                return Ok(());
            }
            if let Prop::Eq(a, b) = p {
                if self.clash_licensed(a, b)? {
                    self.close_focused();
                    return Ok(());
                }
            }
        }
        for (_, p) in &seq.hyps {
            if let Prop::Imp(q, r) = p {
                if matches!(**r, Prop::False) && seq.hyps.iter().any(|(_, h)| h.alpha_eq(q)) {
                    self.close_focused();
                    return Ok(());
                }
            }
        }
        Err(Error::new("contradiction: no contradictory hypotheses"))
    }

    // ---- equality rules --------------------------------------------------

    fn injection_licensed(&self, ctor: Symbol) -> Result<()> {
        let dt = self
            .sig
            .ctor_datatype(ctor)
            .ok_or_else(|| Error::new(format!("unknown constructor {ctor}")))?;
        if !dt.extensible || self.closed_world || self.sig.prec_covers(dt.name, ctor) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "constructor {ctor} of extensible datatype {}: injectivity/disjointness \
                 requires a partial recursor (use finjection/fdiscriminate after the \
                 family registers one)",
                dt.name
            )))
        }
    }

    /// Does `Eq(a, b)` exhibit a licensed constructor clash?
    fn clash_licensed(&self, a: &Term, b: &Term) -> Result<bool> {
        match (a, b) {
            (Term::Ctor(c, xs), Term::Ctor(d, ys)) => {
                if c != d {
                    self.injection_licensed(*c)?;
                    self.injection_licensed(*d)?;
                    Ok(true)
                } else {
                    for (x, y) in xs.iter().zip(ys) {
                        if self.clash_licensed(x, y)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
            }
            (Term::Lit(x), Term::Lit(y)) => Ok(x != y),
            _ => Ok(false),
        }
    }

    /// Closes the goal given an equality hypothesis between terms headed by
    /// distinct constructors. On extensible datatypes this requires a
    /// partial-recursor registration (paper §3.6); `fdiscriminate` is the
    /// same primitive under its paper name.
    pub fn discriminate(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused()?;
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("discriminate: no hypothesis {name}")))?;
        match p {
            Prop::Eq(a, b) if self.clash_licensed(a, b)? => {
                self.close_focused();
                Ok(())
            }
            other => Err(Error::new(format!(
                "discriminate: hypothesis {name} is not a constructor clash: {other}"
            ))),
        }
    }

    /// Derives component equalities from `C x̄ = C ȳ`. Same licensing as
    /// [`ProofState::discriminate`]; `finjection` is this primitive.
    pub fn injection(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused()?.clone();
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("injection: no hypothesis {name}")))?
            .clone();
        match p {
            Prop::Eq(Term::Ctor(c, xs), Term::Ctor(d, ys)) if c == d => {
                self.injection_licensed(c)?;
                let mut s = seq;
                for (x, y) in xs.iter().zip(&ys) {
                    if x != y {
                        let n = s.fresh_hyp(&format!("{name}i"));
                        s.hyps.push((n, Prop::Eq(x.clone(), y.clone())));
                    }
                }
                self.replace_focused(vec![s]);
                Ok(())
            }
            other => Err(Error::new(format!(
                "injection: hypothesis {name} is not a same-constructor equality: {other}"
            ))),
        }
    }

    /// Eliminates an equality hypothesis `x = t` (or `t = x`) by
    /// substituting `t` for the variable `x` everywhere.
    pub fn subst_var(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused_mut()?;
        let idx = seq
            .hyps
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| Error::new(format!("subst_var: no hypothesis {name}")))?;
        let p = seq.hyps[idx].1.clone();
        let (v, t) = match &p {
            Prop::Eq(Term::Var(v), t) if !t.free_contains(*v) => (*v, t.clone()),
            Prop::Eq(t, Term::Var(v)) if !t.free_contains(*v) => (*v, t.clone()),
            other => {
                return Err(Error::new(format!(
                    "subst_var: hypothesis {name} is not a variable equality: {other}"
                )))
            }
        };
        if !seq.vars.iter().any(|(x, _)| *x == v) {
            return Err(Error::new(format!(
                "subst_var: {v} is not a sequent variable"
            )));
        }
        seq.hyps.remove(idx);
        seq.substitute_var(v, &t);
        Ok(())
    }

    /// Repeatedly applies [`ProofState::subst_var`] wherever possible and
    /// drops trivial reflexive equalities.
    pub fn subst_all(&mut self) -> Result<()> {
        loop {
            let seq = self.focused_mut()?;
            seq.hyps
                .retain(|(_, p)| !matches!(p, Prop::Eq(a, b) if a == b));
            let mut candidate = None;
            for (n, p) in &seq.hyps {
                if let Prop::Eq(a, b) = p {
                    let ok = match (a, b) {
                        (Term::Var(v), t) | (t, Term::Var(v)) => {
                            !t.free_contains(*v) && seq.vars.iter().any(|(x, _)| x == v)
                        }
                        _ => false,
                    };
                    if ok {
                        candidate = Some(*n);
                        break;
                    }
                }
            }
            match candidate {
                Some(n) => self.subst_var(n.as_str())?,
                None => return Ok(()),
            }
        }
    }

    // ---- rewriting -------------------------------------------------------

    /// Rewrites in `target` with the (possibly quantified, unconditional)
    /// equation `eq`. Returns `Ok(new_prop)`; errors if no match.
    fn rewrite_prop(&self, target: &Prop, eq: &Prop, reverse: bool) -> Result<Prop> {
        let rule = RewriteRule::compile(eq, reverse)?;
        rule.apply(target).ok_or_else(|| rule.miss(target))
    }

    fn equation_of(&self, source: &str) -> Result<Prop> {
        let name = Symbol::new(source);
        if let Some(p) = self.focused()?.hyp(name) {
            return Ok(p.clone());
        }
        if let Some(f) = self.sig.fact(name) {
            return Ok(f.prop.clone());
        }
        Err(Error::new(format!(
            "rewrite: no hypothesis or fact named {name}"
        )))
    }

    /// Rewrites the goal left-to-right with an equation (hypothesis or
    /// fact).
    pub fn rewrite(&mut self, source: &str) -> Result<()> {
        let eq = self.equation_of(source)?;
        let seq = self.focused_mut()?;
        let goal = seq.goal.clone();
        let new = self.rewrite_prop(&goal, &eq, false)?;
        self.focused_mut()?.goal = new;
        Ok(())
    }

    /// Rewrites the goal right-to-left.
    pub fn rewrite_rev(&mut self, source: &str) -> Result<()> {
        let eq = self.equation_of(source)?;
        let goal = self.focused()?.goal.clone();
        let new = self.rewrite_prop(&goal, &eq, true)?;
        self.focused_mut()?.goal = new;
        Ok(())
    }

    /// Rewrites inside a hypothesis left-to-right.
    pub fn rewrite_in(&mut self, source: &str, h: &str) -> Result<()> {
        let eq = self.equation_of(source)?;
        let name = Symbol::new(h);
        let seq = self.focused()?;
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("rewrite_in: no hypothesis {h}")))?
            .clone();
        let new = self.rewrite_prop(&p, &eq, false)?;
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("hyp exists");
        entry.1 = new;
        Ok(())
    }

    /// Rewrites inside a hypothesis right-to-left.
    pub fn rewrite_rev_in(&mut self, source: &str, h: &str) -> Result<()> {
        let eq = self.equation_of(source)?;
        let name = Symbol::new(h);
        let p = self
            .focused()?
            .hyp(name)
            .ok_or_else(|| Error::new(format!("rewrite_rev_in: no hypothesis {h}")))?
            .clone();
        let new = self.rewrite_prop(&p, &eq, true)?;
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("hyp exists");
        entry.1 = new;
        Ok(())
    }

    /// `fsimpl` (paper §3.2): exhaustively rewrites the goal with the
    /// registered computation and delta equations. Late-bound functions are
    /// simplified *only* through their propositional equations — they are
    /// never unfolded.
    pub fn fsimpl(&mut self) -> Result<()> {
        let goal = self.focused()?.goal.clone();
        let new = self.fsimpl_prop(goal);
        self.focused_mut()?.goal = new;
        Ok(())
    }

    /// `fsimpl` inside a hypothesis.
    pub fn fsimpl_in(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let p = self
            .focused()?
            .hyp(name)
            .ok_or_else(|| Error::new(format!("fsimpl_in: no hypothesis {h}")))?
            .clone();
        let new = self.fsimpl_prop(p);
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("hyp exists");
        entry.1 = new;
        Ok(())
    }

    /// `fsimpl` everywhere (goal and all hypotheses).
    pub fn fsimpl_all(&mut self) -> Result<()> {
        self.fsimpl()?;
        let names: Vec<Symbol> = self.focused()?.hyps.iter().map(|(n, _)| *n).collect();
        for n in names {
            self.fsimpl_in(n.as_str())?;
        }
        Ok(())
    }

    fn fsimpl_prop(&self, p: Prop) -> Prop {
        if let Some(hit) = self.fsimpl_memo.borrow().get(&p) {
            return *hit;
        }
        let input = p;
        let mut p = p;
        // An equation that does not compile (conditional, or not an
        // equation) could never rewrite, so it is left out.
        let rules = self.fsimpl_rules.get_or_init(|| {
            self.sig
                .facts()
                .iter()
                .filter(|f| matches!(f.kind, FactKind::CompEq | FactKind::DeltaEq))
                .filter_map(|f| RewriteRule::compile(&f.prop, false).ok())
                .collect()
        });
        for _ in 0..2000 {
            let mut changed = false;
            for rule in rules {
                if let Some(new) = rule.apply(&p) {
                    if new != p {
                        p = new;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut memo = self.fsimpl_memo.borrow_mut();
        memo.insert(input, p);
        // The result is a fixpoint of the rewrite loop, so it simplifies
        // to itself; recording that saves the re-run when a simplified
        // goal is fsimpl'ed again (e.g. by `fsimpl_all` after `fsimpl`).
        memo.insert(p, p);
        p
    }

    // ---- backward chaining ------------------------------------------------

    /// Applies a rule-shaped proposition `∀x̄, P₁ → … → Pₙ → C` backwards:
    /// matches `C` against the goal, turns the instantiated premises into
    /// new goals. Binders not determined by the conclusion are taken from
    /// `with`, in binder order.
    pub fn apply_prop(&mut self, rule: &Prop, with: &[Term]) -> Result<()> {
        let seq = self.focused()?.clone();
        let (binders, premises, concl) = rule.strip_rule();
        let mut ren = HashMap::new();
        let mut pvars = Vec::new();
        for (v, _) in &binders {
            let fresh = Symbol::new(&format!("?{v}"));
            ren.insert(*v, Term::Var(fresh));
            pvars.push(fresh);
        }
        let concl = concl.subst(&ren);
        let mut m = HashMap::new();
        if !concl.match_against(&seq.goal, &pvars, &mut m) {
            return Err(Error::new(format!(
                "apply: conclusion {concl} does not match goal {}",
                seq.goal
            )));
        }
        // Fill unmatched binders from `with`.
        let mut with_iter = with.iter();
        let var_sorts = seq.var_sorts();
        for (i, v) in pvars.iter().enumerate() {
            if !m.contains_key(v) {
                let t = with_iter.next().ok_or_else(|| {
                    Error::new(format!(
                        "apply: binder {} not determined by the goal; \
                         supply it via `with`",
                        binders[i].0
                    ))
                })?;
                self.sig
                    .check_term(&var_sorts, t, binders[i].1)
                    .map_err(|e| e.with_context("apply `with` argument"))?;
                m.insert(*v, t.clone());
            }
        }
        let mut new_goals = Vec::new();
        for prem in premises {
            let mut g = seq.clone();
            g.goal = prem.subst(&ren).subst(&m);
            new_goals.push(g);
        }
        self.replace_focused(new_goals);
        Ok(())
    }

    /// Applies a named fact backwards.
    pub fn apply_fact(&mut self, name: &str, with: &[Term]) -> Result<()> {
        let f = self
            .sig
            .fact(Symbol::new(name))
            .ok_or_else(|| Error::new(format!("apply_fact: unknown fact {name}")))?
            .prop
            .clone();
        self.apply_prop(&f, with)
            .map_err(|e| e.with_context(format!("apply {name}")))
    }

    /// Applies a hypothesis backwards.
    pub fn apply_hyp(&mut self, h: &str, with: &[Term]) -> Result<()> {
        let p = self
            .focused()?
            .hyp(Symbol::new(h))
            .ok_or_else(|| Error::new(format!("apply_hyp: no hypothesis {h}")))?
            .clone();
        self.apply_prop(&p, with)
            .map_err(|e| e.with_context(format!("apply hyp {h}")))
    }

    /// Applies a constructor (rule) of an inductive predicate backwards.
    /// Always sound, extensible or not: introducing via a known rule never
    /// requires exhaustivity.
    pub fn apply_rule(&mut self, pred: &str, rule: &str, with: &[Term]) -> Result<()> {
        let p = self
            .sig
            .pred(Symbol::new(pred))
            .ok_or_else(|| Error::new(format!("apply_rule: unknown predicate {pred}")))?;
        let r = p
            .rules
            .iter()
            .find(|r| r.name == Symbol::new(rule))
            .ok_or_else(|| Error::new(format!("apply_rule: no rule {rule} in {pred}")))?;
        let prop = r.as_prop(p.name);
        self.apply_prop(&prop, with)
            .map_err(|e| e.with_context(format!("apply rule {rule}")))
    }

    // ---- forward reasoning ------------------------------------------------

    /// Adds an instantiation of a fact as a hypothesis.
    pub fn pose_fact(&mut self, name: &str, with: &[Term], as_name: &str) -> Result<()> {
        let f = self
            .sig
            .fact(Symbol::new(name))
            .ok_or_else(|| Error::new(format!("pose_fact: unknown fact {name}")))?
            .prop
            .clone();
        let inst = self.instantiate_foralls(&f, with)?;
        let seq = self.focused_mut()?;
        let n = Symbol::new(as_name);
        if seq.hyps.iter().any(|(h, _)| *h == n) {
            return Err(Error::new(format!(
                "pose_fact: hypothesis {as_name} exists"
            )));
        }
        seq.hyps.push((n, inst));
        Ok(())
    }

    /// Instantiates the leading ∀-binders of a hypothesis with terms.
    pub fn specialize(&mut self, h: &str, with: &[Term]) -> Result<()> {
        let name = Symbol::new(h);
        let p = self
            .focused()?
            .hyp(name)
            .ok_or_else(|| Error::new(format!("specialize: no hypothesis {h}")))?
            .clone();
        let inst = self.instantiate_foralls(&p, with)?;
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("hyp exists");
        entry.1 = inst;
        Ok(())
    }

    fn instantiate_foralls(&self, p: &Prop, with: &[Term]) -> Result<Prop> {
        let var_sorts = self.focused()?.var_sorts();
        let mut cur = p.clone();
        for t in with {
            match cur {
                Prop::Forall(v, s, body) => {
                    self.sig
                        .check_term(&var_sorts, t, s)
                        .map_err(|e| e.with_context("instantiation argument"))?;
                    cur = body.subst1(v, t);
                }
                other => {
                    return Err(Error::new(format!(
                        "cannot instantiate non-∀ proposition {other}"
                    )))
                }
            }
        }
        Ok(cur)
    }

    /// Modus ponens in a hypothesis: if `h : P → Q` and `harg : P`, the
    /// hypothesis `h` becomes `Q`.
    pub fn forward(&mut self, h: &str, harg: &str) -> Result<()> {
        let name = Symbol::new(h);
        let argname = Symbol::new(harg);
        let seq = self.focused()?;
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("forward: no hypothesis {h}")))?
            .clone();
        let arg = seq
            .hyp(argname)
            .ok_or_else(|| Error::new(format!("forward: no hypothesis {harg}")))?
            .clone();
        match p {
            Prop::Imp(q, r) if q.alpha_eq(&arg) => {
                let seq = self.focused_mut()?;
                let entry = seq
                    .hyps
                    .iter_mut()
                    .find(|(n, _)| *n == name)
                    .expect("hyp exists");
                entry.1 = *r;
                Ok(())
            }
            other => Err(Error::new(format!(
                "forward: {h} : {other} does not accept {harg} : {arg}"
            ))),
        }
    }

    /// Asserts an intermediate proposition: pushes the assertion as the new
    /// focused goal; the original goal (with the assertion as a hypothesis)
    /// follows it.
    pub fn assert(&mut self, as_name: &str, prop: Prop) -> Result<()> {
        let seq = self.focused()?.clone();
        self.sig
            .check_prop(&seq.var_sorts(), &prop)
            .map_err(|e| e.with_context("assert statement"))?;
        let mut side = seq.clone();
        side.goal = prop.clone();
        let mut main = seq;
        let n = Symbol::new(as_name);
        if main.hyps.iter().any(|(h, _)| *h == n) {
            return Err(Error::new(format!("assert: hypothesis {as_name} exists")));
        }
        main.hyps.push((n, prop));
        self.replace_focused(vec![side, main]);
        Ok(())
    }

    // ---- case analysis, induction, inversion ------------------------------

    fn closed_world_datatype(&self, name: Symbol) -> Result<()> {
        let dt = self
            .sig
            .datatype(name)
            .ok_or_else(|| Error::new(format!("unknown datatype {name}")))?;
        if dt.extensible && !self.closed_world {
            return Err(Error::new(format!(
                "datatype {name} is extensible: closed-world case analysis/induction \
                 is forbidden inside a family (paper C1); use FRecursion/FInduction, \
                 or mark the proof reprove-on-extend"
            )));
        }
        Ok(())
    }

    /// Case analysis on a term of a datatype sort. For a variable the cases
    /// substitute it; otherwise each case gets an equation hypothesis.
    pub fn case_split(&mut self, t: &Term) -> Result<()> {
        let seq = self.focused()?.clone();
        let sort = self.sig.sort_of(&seq.var_sorts(), t)?;
        let dtname = match sort {
            Sort::Named(n) => n,
            Sort::Id => return Err(Error::new("case_split: cannot enumerate sort id")),
        };
        self.closed_world_datatype(dtname)?;
        let dt = self.sig.datatype(dtname).expect("checked").clone();
        let mut new_goals = Vec::new();
        for ctor in &dt.ctors {
            let mut s = seq.clone();
            let args: Vec<Term> = ctor
                .args
                .iter()
                .enumerate()
                .map(|(i, sort)| {
                    let v = s.fresh(Symbol::new(&format!("{}{}", ctor_var_base(ctor.name), i)));
                    s.vars.push((v, *sort));
                    Term::Var(v)
                })
                .collect();
            let ct = Term::Ctor(ctor.name, args.into());
            match t {
                Term::Var(v) if seq.vars.iter().any(|(x, _)| x == v) => {
                    s.substitute_var(*v, &ct);
                }
                _ => {
                    let n = s.fresh_hyp("Hcase");
                    s.hyps.push((n, Prop::Eq(t.clone(), ct)));
                }
            }
            new_goals.push(s);
        }
        self.replace_focused(new_goals);
        Ok(())
    }

    /// Structural induction on a sequent variable of a (closed-world)
    /// datatype sort. The variable must not occur in any hypothesis
    /// (revert dependent hypotheses first).
    pub fn induction(&mut self, v: &str) -> Result<()> {
        let name = Symbol::new(v);
        let seq = self.focused()?.clone();
        let (_, sort) = *seq
            .vars
            .iter()
            .find(|(x, _)| *x == name)
            .ok_or_else(|| Error::new(format!("induction: no variable {v}")))?;
        let dtname = match sort {
            Sort::Named(n) => n,
            Sort::Id => return Err(Error::new("induction: cannot induct on sort id")),
        };
        self.closed_world_datatype(dtname)?;
        if seq.hyps.iter().any(|(_, p)| p.free_contains(name)) {
            return Err(Error::new(format!(
                "induction: variable {v} occurs in a hypothesis; revert it first"
            )));
        }
        let dt = self.sig.datatype(dtname).expect("checked").clone();
        let goal = seq.goal.clone();
        let mut new_goals = Vec::new();
        for ctor in &dt.ctors {
            let mut s = seq.clone();
            s.vars.retain(|(x, _)| *x != name);
            let mut args = Vec::new();
            let mut rec_args = Vec::new();
            for (i, asort) in ctor.args.iter().enumerate() {
                let av = s.fresh(Symbol::new(&format!("{}{}", ctor_var_base(ctor.name), i)));
                s.vars.push((av, *asort));
                args.push(Term::Var(av));
                if *asort == Sort::Named(dtname) {
                    rec_args.push(av);
                }
            }
            for (k, ra) in rec_args.iter().enumerate() {
                let ih = s.fresh_hyp(&format!("IH{k}"));
                s.hyps.push((ih, goal.subst1(name, &Term::Var(*ra))));
            }
            s.goal = goal.subst1(name, &Term::Ctor(ctor.name, args.into()));
            new_goals.push(s);
        }
        self.replace_focused(new_goals);
        Ok(())
    }

    /// Inversion on a predicate-atom hypothesis: for each rule that could
    /// have derived it, produce a goal with the rule's premises and the
    /// index equations; constructor-clash cases are dropped (their
    /// impossibility follows from disjointness, which holds for extensible
    /// datatypes too, §3.6). Determined variable equations are substituted
    /// and same-constructor equations decomposed when licensed.
    ///
    /// Enumerating the rules requires the predicate to be closed-world
    /// (non-extensible, or a reprove-on-extend proof).
    pub fn inversion(&mut self, h: &str) -> Result<()> {
        let name = Symbol::new(h);
        let seq = self.focused()?.clone();
        let p = seq
            .hyp(name)
            .ok_or_else(|| Error::new(format!("inversion: no hypothesis {h}")))?
            .clone();
        let (pred_name, args) = match p {
            Prop::Atom(q, args) => (q, args),
            other => {
                return Err(Error::new(format!(
                    "inversion: hypothesis {h} is not a predicate atom: {other}"
                )))
            }
        };
        let sig = self.sig;
        let pred = sig
            .pred(pred_name)
            .ok_or_else(|| Error::new(format!("unknown predicate {pred_name}")))?;
        if pred.extensible && !self.closed_world {
            return Err(Error::new(format!(
                "predicate {pred_name} is extensible: inversion is closed-world \
                 reasoning (paper C1); use FInduction or a reprove-on-extend lemma"
            )));
        }
        let mut new_goals = Vec::new();
        for rule in &pred.rules {
            // Renaming the binders cannot change a clash, so a rule that
            // cannot have derived the hypothesis costs no case to find out.
            if rule
                .conclusion
                .iter()
                .zip(&args)
                .any(|(c, a)| clashes(c, a))
            {
                continue;
            }
            let mut s = seq.clone();
            // Drop the inverted hypothesis in the produced cases.
            s.hyps.retain(|(n, _)| *n != name);
            // Freshly rename rule binders into the sequent.
            let mut ren = HashMap::new();
            for (v, sort) in &rule.binders {
                let fresh = s.fresh(*v);
                s.vars.push((fresh, *sort));
                ren.insert(*v, Term::Var(fresh));
            }
            // Index equations.
            let mut pending: Vec<(Term, Term)> = rule
                .conclusion
                .iter()
                .zip(&args)
                .map(|(c, a)| (c.subst(&ren), a.clone()))
                .collect();
            let mut equations = Vec::new();
            while let Some((c, a)) = pending.pop() {
                match (&c, &a) {
                    // Equal constructors: the clash check ruled out others.
                    (Term::Ctor(_, xs), Term::Ctor(_, ys)) => {
                        for (xa, ya) in xs.iter().zip(ys) {
                            pending.push((xa.clone(), ya.clone()));
                        }
                    }
                    _ if c == a => {}
                    _ => equations.push((c, a)),
                }
            }
            for (c, a) in equations {
                let n = s.fresh_hyp("Hinv");
                s.hyps.push((n, Prop::Eq(c, a)));
            }
            // Premises become hypotheses (indexed for stable names).
            for (i, prem) in rule.premises.iter().enumerate() {
                let n = s.fresh_hyp(&format!("H{}_{i}", rule.name));
                s.hyps.push((n, prem.subst(&ren)));
            }
            new_goals.push(s);
        }
        let added = new_goals.len();
        self.replace_focused(new_goals);
        // Substitute determined variable equations in each produced case.
        for idx in 0..added {
            self.goals.swap(0, idx);
            let _ = self.subst_all();
            self.goals.swap(0, idx);
        }
        Ok(())
    }

    /// Unfolds a defined proposition in the goal.
    pub fn unfold(&mut self, name: &str) -> Result<()> {
        let sym = Symbol::new(name);
        let def = self
            .sig
            .propdef(sym)
            .ok_or_else(|| Error::new(format!("unfold: unknown prop definition {name}")))?
            .clone();
        let seq = self.focused_mut()?;
        seq.goal = unfold_prop(&seq.goal, sym, &def);
        Ok(())
    }

    /// Unfolds a defined proposition in a hypothesis.
    pub fn unfold_in(&mut self, name: &str, h: &str) -> Result<()> {
        let sym = Symbol::new(name);
        let def = self
            .sig
            .propdef(sym)
            .ok_or_else(|| Error::new(format!("unfold_in: unknown prop definition {name}")))?
            .clone();
        let hname = Symbol::new(h);
        let seq = self.focused_mut()?;
        let entry = seq
            .hyps
            .iter_mut()
            .find(|(n, _)| *n == hname)
            .ok_or_else(|| Error::new(format!("unfold_in: no hypothesis {h}")))?;
        entry.1 = unfold_prop(&entry.1, sym, &def);
        Ok(())
    }
}

/// A rewrite equation compiled once: the binders of `∀x̄, l = r` renamed
/// to the pattern variables `?x̄` the matcher instantiates, oriented by
/// the direction of use. `rewrite` compiles the equation it is given;
/// `fsimpl` compiles the signature's equations once per proof state.
struct RewriteRule {
    lhs: Term,
    rhs: Term,
    pvars: Vec<Symbol>,
    /// The first pattern variable `lhs` does not mention: no match
    /// determines it, so the rule never rewrites.
    undetermined: Option<Symbol>,
}

impl RewriteRule {
    /// Compiles an unconditional, possibly quantified equation, rewriting
    /// right-to-left when `reverse`.
    fn compile(eq: &Prop, reverse: bool) -> Result<RewriteRule> {
        let (binders, premises, concl) = eq.strip_rule();
        if !premises.is_empty() {
            return Err(Error::new(
                "rewrite: conditional equations are not supported",
            ));
        }
        let (lhs, rhs) = match concl {
            Prop::Eq(l, r) => {
                if reverse {
                    (r, l)
                } else {
                    (l, r)
                }
            }
            other => return Err(Error::new(format!("rewrite: not an equation: {other}"))),
        };
        // Freshen binders so pattern variables cannot collide with target vars.
        let mut ren = HashMap::new();
        let mut pvars = Vec::new();
        for (v, _) in &binders {
            let fresh = Symbol::new(&format!("?{v}"));
            ren.insert(*v, Term::Var(fresh));
            pvars.push(fresh);
        }
        let lhs = lhs.subst(&ren);
        let undetermined = pvars.iter().copied().find(|v| !lhs.free_contains(*v));
        Ok(RewriteRule {
            lhs,
            rhs: rhs.subst(&ren),
            pvars,
            undetermined,
        })
    }

    /// Rewrites every occurrence of the first instance of `lhs` found in
    /// `target`; `None` when there is none (or the rule never rewrites).
    fn apply(&self, target: &Prop) -> Option<Prop> {
        if self.undetermined.is_some() {
            return None;
        }
        let m = find_prop_match(target, &self.lhs, &self.pvars)?;
        Some(target.replace_term(&self.lhs.subst(&m), &self.rhs.subst(&m)))
    }

    /// Why [`Self::apply`] rewrote nothing in `target`.
    fn miss(&self, target: &Prop) -> Error {
        match self.undetermined {
            Some(v) if find_prop_match(target, &self.lhs, &self.pvars).is_some() => Error::new(
                format!("rewrite: variable {v} of the equation not determined by the match"),
            ),
            _ => Error::new(format!("rewrite: no occurrence of {}", self.lhs)),
        }
    }
}

/// Finds an instance of `pattern` (with `pvars` as metavariables) inside
/// `t`, returning the instantiation.
fn find_term_match(t: &Term, pattern: &Term, pvars: &[Symbol]) -> Option<HashMap<Symbol, Term>> {
    let mut m = HashMap::new();
    if pattern.match_against(t, pvars, &mut m) {
        return Some(m);
    }
    match t {
        Term::Ctor(_, args) | Term::Fn(_, args) => {
            args.iter().find_map(|a| find_term_match(a, pattern, pvars))
        }
        _ => None,
    }
}

fn find_prop_match(p: &Prop, pattern: &Term, pvars: &[Symbol]) -> Option<HashMap<Symbol, Term>> {
    match p {
        Prop::True | Prop::False => None,
        Prop::Eq(a, b) => {
            find_term_match(a, pattern, pvars).or_else(|| find_term_match(b, pattern, pvars))
        }
        Prop::Atom(_, args) | Prop::Def(_, args) => {
            args.iter().find_map(|a| find_term_match(a, pattern, pvars))
        }
        Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
            find_prop_match(a, pattern, pvars).or_else(|| find_prop_match(b, pattern, pvars))
        }
        Prop::Forall(v, _, body) | Prop::Exists(v, _, body) => {
            // Do not match instances that capture the bound variable.
            find_prop_match(body, pattern, pvars)
                .filter(|m| !m.values().any(|t| t.free_contains(*v)))
        }
    }
}

/// Whether `c` and `a` differ on a constructor or a literal at a position
/// both reach through equal constructors, so no instance of `c` is `a`.
fn clashes(c: &Term, a: &Term) -> bool {
    match (c, a) {
        (Term::Ctor(x, xs), Term::Ctor(y, ys)) => {
            x != y || xs.iter().zip(ys).any(|(c, a)| clashes(c, a))
        }
        (Term::Lit(x), Term::Lit(y)) => x != y,
        _ => false,
    }
}

fn ctor_var_base(ctor: Symbol) -> String {
    // tm_app -> "app"; keeps generated names readable.
    let s = ctor.as_str();
    match s.rsplit('_').next() {
        Some(tail) if !tail.is_empty() => tail.to_string(),
        _ => "a".to_string(),
    }
}

fn unfold_prop(p: &Prop, name: Symbol, def: &crate::sig::PropDef) -> Prop {
    match p {
        Prop::Def(q, args) if *q == name => def.unfold(args),
        Prop::And(a, b) => Prop::and(unfold_prop(a, name, def), unfold_prop(b, name, def)),
        Prop::Or(a, b) => Prop::or(unfold_prop(a, name, def), unfold_prop(b, name, def)),
        Prop::Imp(a, b) => Prop::imp(unfold_prop(a, name, def), unfold_prop(b, name, def)),
        Prop::Forall(v, s, body) => Prop::Forall(*v, *s, unfold_prop(body, name, def).into()),
        Prop::Exists(v, s, body) => Prop::Exists(*v, *s, unfold_prop(body, name, def).into()),
        _ => p.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::sym;
    use crate::sig::FnDef;
    use crate::sig::{CtorSig, Datatype, FactKind, IndPred, RecCase, RecFn, Rule};

    fn base_sig() -> Signature {
        let mut s = Signature::new();
        s.add_datatype(Datatype {
            name: sym("nat"),
            ctors: vec![
                CtorSig::new("zero", vec![]),
                CtorSig::new("succ", vec![Sort::named("nat")]),
            ],
            extensible: false,
        })
        .unwrap();
        let add = RecFn {
            name: sym("add"),
            rec_sort: sym("nat"),
            params: vec![(sym("m"), Sort::named("nat"))],
            ret: Sort::named("nat"),
            cases: vec![
                RecCase {
                    ctor: sym("zero"),
                    arg_vars: vec![],
                    body: Term::var("m"),
                },
                RecCase {
                    ctor: sym("succ"),
                    arg_vars: vec![sym("n")],
                    body: Term::ctor(
                        "succ",
                        vec![Term::func("add", vec![Term::var("n"), Term::var("m")])],
                    ),
                },
            ],
        };
        let dt = s.datatype(sym("nat")).unwrap().clone();
        for (case, ctor) in add.cases.iter().zip(&dt.ctors) {
            let eq = add.case_equation(case, ctor);
            s.add_fact(
                Symbol::new(&format!("add_{}_eq", ctor.name)),
                eq,
                FactKind::CompEq,
            )
            .unwrap();
        }
        s.add_fn(FnDef::Rec(add)).unwrap();
        s
    }

    #[test]
    fn prove_add_zero_left() {
        // forall m, add zero m = m  — one fsimpl step.
        let sig = base_sig();
        let goal = Prop::forall(
            "m",
            Sort::named("nat"),
            Prop::eq(
                Term::func("add", vec![Term::c0("zero"), Term::var("m")]),
                Term::var("m"),
            ),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        st.intro().unwrap();
        st.fsimpl().unwrap();
        st.reflexivity().unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn prove_add_zero_right_by_induction() {
        // forall n, add n zero = n — needs induction on n.
        let sig = base_sig();
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::eq(
                Term::func("add", vec![Term::var("n"), Term::c0("zero")]),
                Term::var("n"),
            ),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        let n = st.intro().unwrap();
        st.induction(n.as_str()).unwrap();
        assert_eq!(st.num_goals(), 2);
        // zero case
        st.fsimpl().unwrap();
        st.reflexivity().unwrap();
        // succ case: goal add (succ n0) zero = succ n0, IH: add n0 zero = n0
        st.fsimpl().unwrap();
        st.rewrite("IH0").unwrap();
        st.reflexivity().unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn extensible_blocks_induction() {
        let mut sig = base_sig();
        sig.add_datatype(Datatype {
            name: sym("tm0"),
            ctors: vec![CtorSig::new("mk0", vec![])],
            extensible: true,
        })
        .unwrap();
        let goal = Prop::forall(
            "t",
            Sort::named("tm0"),
            Prop::eq(Term::var("t"), Term::var("t")),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        let t = st.intro().unwrap();
        let err = st.induction(t.as_str()).unwrap_err();
        assert!(format!("{err}").contains("extensible"));
        // closed_world mode allows it.
        st.closed_world = true;
        st.induction(t.as_str()).unwrap();
        st.reflexivity().unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn discriminate_needs_licence_on_extensible() {
        let mut sig = base_sig();
        sig.add_datatype(Datatype {
            name: sym("etm"),
            ctors: vec![CtorSig::new("ea", vec![]), CtorSig::new("eb", vec![])],
            extensible: true,
        })
        .unwrap();
        let goal = Prop::imp(Prop::eq(Term::c0("ea"), Term::c0("eb")), Prop::False);
        let mut st = ProofState::new(&sig, goal.clone()).unwrap();
        let h = st.intro().unwrap();
        assert!(st.discriminate(h.as_str()).is_err());
        // Register a partial recursor -> fdiscriminate now works.
        sig.add_partial_recursor(sym("etm"), sym("Base")).unwrap();
        let mut st = ProofState::new(&sig, goal).unwrap();
        let h = st.intro().unwrap();
        st.discriminate(h.as_str()).unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn inversion_on_le() {
        let mut sig = base_sig();
        sig.add_pred(IndPred {
            name: sym("le"),
            arg_sorts: vec![Sort::named("nat"), Sort::named("nat")],
            rules: vec![
                Rule {
                    name: sym("le_refl"),
                    binders: vec![(sym("n"), Sort::named("nat"))],
                    premises: vec![],
                    conclusion: vec![Term::var("n"), Term::var("n")],
                },
                Rule {
                    name: sym("le_succ"),
                    binders: vec![
                        (sym("n"), Sort::named("nat")),
                        (sym("m"), Sort::named("nat")),
                    ],
                    premises: vec![Prop::atom("le", vec![Term::var("n"), Term::var("m")])],
                    conclusion: vec![Term::var("n"), Term::ctor("succ", vec![Term::var("m")])],
                },
            ],
            extensible: false,
        })
        .unwrap();
        // forall n, le n zero -> n = zero.  Inversion: only le_refl applies.
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::imp(
                Prop::atom("le", vec![Term::var("n"), Term::c0("zero")]),
                Prop::eq(Term::var("n"), Term::c0("zero")),
            ),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        st.intro().unwrap();
        let h = st.intro().unwrap();
        st.inversion(h.as_str()).unwrap();
        assert_eq!(
            st.num_goals(),
            1,
            "le_succ case must be dropped (succ m ≠ zero)"
        );
        st.reflexivity().unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn apply_rule_backward() {
        let mut sig = base_sig();
        sig.add_pred(IndPred {
            name: sym("even"),
            arg_sorts: vec![Sort::named("nat")],
            rules: vec![
                Rule {
                    name: sym("even_zero"),
                    binders: vec![],
                    premises: vec![],
                    conclusion: vec![Term::c0("zero")],
                },
                Rule {
                    name: sym("even_ss"),
                    binders: vec![(sym("n"), Sort::named("nat"))],
                    premises: vec![Prop::atom("even", vec![Term::var("n")])],
                    conclusion: vec![Term::ctor(
                        "succ",
                        vec![Term::ctor("succ", vec![Term::var("n")])],
                    )],
                },
            ],
            extensible: false,
        })
        .unwrap();
        let four = crate::eval::nat_lit(4);
        let goal = Prop::atom("even", vec![four]);
        let mut st = ProofState::new(&sig, goal).unwrap();
        st.apply_rule("even", "even_ss", &[]).unwrap();
        st.apply_rule("even", "even_ss", &[]).unwrap();
        st.apply_rule("even", "even_zero", &[]).unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn assert_and_exact() {
        let sig = base_sig();
        let goal = Prop::imp(Prop::True, Prop::True);
        let mut st = ProofState::new(&sig, goal).unwrap();
        st.intro().unwrap();
        st.assert("Hmid", Prop::True).unwrap();
        st.trivial().unwrap(); // proves the assertion
        st.exact("Hmid").unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn qed_rejects_open_goals() {
        let sig = base_sig();
        let st = ProofState::new(&sig, Prop::True).unwrap();
        assert!(st.qed().is_err());
    }

    #[test]
    fn destruct_or_and_exists() {
        let sig = base_sig();
        let nat = Sort::named("nat");
        // (exists n, n = zero) -> True /\ True
        let goal = Prop::imp(
            Prop::exists("n", nat, Prop::eq(Term::var("n"), Term::c0("zero"))),
            Prop::and(Prop::True, Prop::True),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        let h = st.intro().unwrap();
        st.destruct(h.as_str()).unwrap();
        st.split().unwrap();
        st.trivial().unwrap();
        st.trivial().unwrap();
        st.qed().unwrap();
    }

    #[test]
    fn case_split_on_nonvar_adds_equation() {
        let sig = base_sig();
        let goal = Prop::forall(
            "n",
            Sort::named("nat"),
            Prop::eq(
                Term::func("add", vec![Term::c0("zero"), Term::var("n")]),
                Term::var("n"),
            ),
        );
        let mut st = ProofState::new(&sig, goal).unwrap();
        let n = st.intro().unwrap();
        st.case_split(&Term::func("add", vec![Term::c0("zero"), Term::Var(n)]))
            .unwrap();
        assert_eq!(st.num_goals(), 2);
        // Both cases carry an Hcase equation hypothesis.
        assert!(st
            .focused()
            .unwrap()
            .hyps
            .iter()
            .any(|(n, _)| n.as_str().starts_with("Hcase")));
    }
}
