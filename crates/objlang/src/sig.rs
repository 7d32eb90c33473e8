//! Signatures: the ambient environment a proof or program is checked in.
//!
//! A [`Signature`] collects datatypes, recursive functions, transparent
//! definitions, inductively defined predicates, defined propositions and
//! named facts (axioms / lemmas / computation equations). The family layer
//! (`fpop`) constructs one signature *view* per field of a family: within a
//! family, late-bound recursive functions are present only as abstract
//! function symbols plus their **propositional** computation equations
//! (paper Section 3.2), extensible datatypes carry the `extensible` flag so
//! the kernel refuses closed-world reasoning on them (Section 3.1), and
//! partial-recursor registrations license `finjection`/`fdiscriminate`
//! (Section 3.6).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::error::Error;
use crate::ident::Symbol;
use crate::syntax::{Prop, Sort, Term};

/// A constructor signature: name and argument sorts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CtorSig {
    /// Constructor name (globally unique within a signature).
    pub name: Symbol,
    /// Argument sorts.
    pub args: Vec<Sort>,
}

impl CtorSig {
    /// Convenience constructor.
    pub fn new(name: &str, args: Vec<Sort>) -> CtorSig {
        CtorSig {
            name: Symbol::new(name),
            args,
        }
    }
}

/// A datatype declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Datatype {
    /// Sort name.
    pub name: Symbol,
    /// Constructors.
    pub ctors: Vec<CtorSig>,
    /// Whether the datatype is *extensible* (declared with `FInductive`):
    /// closed-world reasoning (plain case analysis, structural induction,
    /// ordinary recursors) is forbidden on extensible datatypes inside a
    /// family (paper C1).
    pub extensible: bool,
}

/// A case handler of a structurally recursive function.
///
/// The recursive argument is by convention the *first* parameter of the
/// function. Within `body`, recursive calls `Fn(f, args)` must pass one of
/// the constructor's recursive argument variables in the first position —
/// the structural-descent check that stands in for Coq's guard condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecCase {
    /// The constructor this case handles.
    pub ctor: Symbol,
    /// Binder names for the constructor arguments, in order.
    pub arg_vars: Vec<Symbol>,
    /// The case body; may refer to `arg_vars` and the function's
    /// non-recursive parameters by name.
    pub body: Term,
}

/// A structurally recursive function (the compilation target of
/// `FRecursion`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecFn {
    /// Function name.
    pub name: Symbol,
    /// The datatype recursed over (sort of the first parameter).
    pub rec_sort: Symbol,
    /// Non-recursive parameters (after the first).
    pub params: Vec<(Symbol, Sort)>,
    /// Result sort.
    pub ret: Sort,
    /// Case handlers; exhaustivity over the datatype's constructors is
    /// checked by the *family layer* at `End` (within a family the set may
    /// be open).
    pub cases: Vec<RecCase>,
}

impl RecFn {
    /// The full parameter sorts, recursive argument first.
    pub fn param_sorts(&self) -> Vec<Sort> {
        let mut v = vec![Sort::Named(self.rec_sort)];
        v.extend(self.params.iter().map(|(_, s)| *s));
        v
    }

    /// The propositional computation equation for one case:
    /// `∀ ctor-args params, f (C ā) p̄ = body`.
    pub fn case_equation(&self, case: &RecCase, ctor: &CtorSig) -> Prop {
        let mut binders: Vec<(Symbol, Sort)> = case
            .arg_vars
            .iter()
            .zip(&ctor.args)
            .map(|(v, s)| (*v, *s))
            .collect();
        binders.extend(self.params.iter().cloned());
        let ctor_term = Term::Ctor(
            case.ctor,
            case.arg_vars.iter().map(|v| Term::Var(*v)).collect(),
        );
        let mut fn_args = vec![ctor_term];
        fn_args.extend(self.params.iter().map(|(v, _)| Term::Var(*v)));
        let lhs = Term::Fn(self.name, fn_args.into());
        Prop::foralls(&binders, Prop::Eq(lhs, case.body.clone()))
    }
}

/// A transparent, non-recursive definition (`FDefinition`), e.g.
/// `extend G x T := env_cons x T G`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AliasFn {
    /// Function name.
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<(Symbol, Sort)>,
    /// Result sort.
    pub ret: Sort,
    /// Body term over the parameters.
    pub body: Term,
}

impl AliasFn {
    /// Delta equation `∀ p̄, f p̄ = body`.
    pub fn delta_equation(&self) -> Prop {
        let lhs = Term::Fn(
            self.name,
            self.params.iter().map(|(v, _)| Term::Var(*v)).collect(),
        );
        Prop::foralls(&self.params, Prop::Eq(lhs, self.body.clone()))
    }
}

/// A function entry in a signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FnDef {
    /// A structurally recursive function with visible case handlers.
    Rec(RecFn),
    /// A transparent definition.
    Alias(AliasFn),
    /// An *abstract* function: only the type is known (a late-bound
    /// `FRecursion` seen from within its family — its behaviour is captured
    /// by registered computation-equation facts, never by unfolding).
    Abstract {
        /// Function name.
        name: Symbol,
        /// Parameter sorts.
        params: Vec<Sort>,
        /// Result sort.
        ret: Sort,
    },
    /// The builtin decidable equality on identifiers, `id_eqb : id → id → bool`.
    IdEqb,
}

impl FnDef {
    /// Function name.
    pub fn name(&self) -> Symbol {
        match self {
            FnDef::Rec(r) => r.name,
            FnDef::Alias(a) => a.name,
            FnDef::Abstract { name, .. } => *name,
            FnDef::IdEqb => Symbol::new("id_eqb"),
        }
    }

    /// Parameter sorts.
    pub fn param_sorts(&self) -> Vec<Sort> {
        match self {
            FnDef::Rec(r) => r.param_sorts(),
            FnDef::Alias(a) => a.params.iter().map(|(_, s)| *s).collect(),
            FnDef::Abstract { params, .. } => params.clone(),
            FnDef::IdEqb => vec![Sort::Id, Sort::Id],
        }
    }

    /// Result sort.
    pub fn ret_sort(&self) -> Sort {
        match self {
            FnDef::Rec(r) => r.ret,
            FnDef::Alias(a) => a.ret,
            FnDef::Abstract { ret, .. } => *ret,
            FnDef::IdEqb => Sort::named("bool"),
        }
    }
}

/// A rule of an inductively defined predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Rule (constructor) name, e.g. `ht_app`.
    pub name: Symbol,
    /// Universally quantified rule variables.
    pub binders: Vec<(Symbol, Sort)>,
    /// Premises (predicate atoms, equalities, or other props).
    pub premises: Vec<Prop>,
    /// Arguments of the concluding predicate atom.
    pub conclusion: Vec<Term>,
}

impl Rule {
    /// The rule as a proposition `∀ x̄, P₁ → … → Pₙ → pred(concl)`.
    pub fn as_prop(&self, pred: Symbol) -> Prop {
        Prop::foralls(
            &self.binders,
            Prop::imps(
                &self.premises,
                Prop::Atom(pred, self.conclusion.clone().into()),
            ),
        )
    }
}

/// An inductively defined predicate (relation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndPred {
    /// Predicate name.
    pub name: Symbol,
    /// Argument sorts.
    pub arg_sorts: Vec<Sort>,
    /// Rules.
    pub rules: Vec<Rule>,
    /// Whether the predicate is extensible (`FInductive … : Prop`):
    /// closed-world inversion/rule-enumeration is forbidden inside a family
    /// unless the proof is marked reprove-on-extend (paper §7).
    pub extensible: bool,
}

/// A transparent defined proposition, e.g. `includedin G G' := ∀ x T, …`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PropDef {
    /// Name.
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<(Symbol, Sort)>,
    /// Body over the parameters.
    pub body: Prop,
}

impl PropDef {
    /// Unfolds an application of the definition.
    pub fn unfold(&self, args: &[Term]) -> Prop {
        let mut map = HashMap::new();
        for ((p, _), a) in self.params.iter().zip(args) {
            map.insert(*p, a.clone());
        }
        self.body.subst(&map)
    }
}

/// How a fact entered the signature; drives which tactics may use it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FactKind {
    /// A trusted axiom (prelude facts about `id_eqb`, abstract-domain
    /// parameters left open by a family, …).
    Axiom,
    /// A proved lemma or theorem.
    Lemma,
    /// A computation equation of a (possibly late-bound) recursive
    /// function; `fsimpl` rewrites with these left-to-right.
    CompEq,
    /// A delta (unfolding) equation of a transparent definition.
    DeltaEq,
    /// An injectivity or disjointness consequence of a partial recursor
    /// (paper §3.6); used by `finjection`/`fdiscriminate`.
    PrecConsequence,
}

/// A named fact available to proofs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fact {
    /// Name.
    pub name: Symbol,
    /// The proposition (closed).
    pub prop: Prop,
    /// Provenance.
    pub kind: FactKind,
}

/// Registration of a partial recursor for a datatype *snapshot*
/// (paper §3.6: `tm_prect_STLC` covers the constructors known to `STLC`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartialRecursor {
    /// The datatype.
    pub datatype: Symbol,
    /// The family version tag (e.g. `STLC`).
    pub version: Symbol,
    /// The constructors this recursor has non-trivial equations for.
    pub known_ctors: Vec<Symbol>,
}

/// The ambient environment for checking and proving.
#[derive(Clone, Default, Debug)]
pub struct Signature {
    datatypes: HashMap<Symbol, Datatype>,
    ctor_owner: HashMap<Symbol, Symbol>,
    fns: HashMap<Symbol, FnDef>,
    preds: HashMap<Symbol, IndPred>,
    propdefs: HashMap<Symbol, PropDef>,
    facts: Vec<Fact>,
    fact_index: HashMap<Symbol, usize>,
    precs: Vec<PartialRecursor>,
    /// Fact names usable by `auto` as backward-chaining hints.
    pub hints: Vec<Symbol>,
    /// Predicates whose rules `auto` may apply as intro rules.
    pub hint_preds: Vec<Symbol>,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Signature {
        Signature::default()
    }

    // ---- registration -------------------------------------------------

    /// Registers a datatype; fails on duplicate names.
    pub fn add_datatype(&mut self, dt: Datatype) -> Result<(), Error> {
        if self.datatypes.contains_key(&dt.name) {
            return Err(Error::new(format!("duplicate datatype {}", dt.name)));
        }
        for c in &dt.ctors {
            if self.ctor_owner.contains_key(&c.name) {
                return Err(Error::new(format!("duplicate constructor {}", c.name)));
            }
        }
        for c in &dt.ctors {
            self.ctor_owner.insert(c.name, dt.name);
        }
        self.datatypes.insert(dt.name, dt);
        Ok(())
    }

    /// Adds constructors to an existing datatype (family `+=`); only legal
    /// on extensible datatypes.
    pub fn extend_datatype(&mut self, name: Symbol, ctors: Vec<CtorSig>) -> Result<(), Error> {
        let dt = self
            .datatypes
            .get_mut(&name)
            .ok_or_else(|| Error::new(format!("unknown datatype {name}")))?;
        if !dt.extensible {
            return Err(Error::new(format!("datatype {name} is not extensible")));
        }
        for c in &ctors {
            if self.ctor_owner.contains_key(&c.name) {
                return Err(Error::new(format!("duplicate constructor {}", c.name)));
            }
        }
        for c in ctors {
            self.ctor_owner.insert(c.name, name);
            self.datatypes
                .get_mut(&name)
                .expect("just looked up")
                .ctors
                .push(c);
        }
        Ok(())
    }

    /// Registers a function definition.
    pub fn add_fn(&mut self, f: FnDef) -> Result<(), Error> {
        let name = f.name();
        if self.fns.contains_key(&name) {
            return Err(Error::new(format!("duplicate function {name}")));
        }
        if let FnDef::Rec(r) = &f {
            self.check_recfn(r)?;
        }
        self.fns.insert(name, f);
        Ok(())
    }

    /// Replaces an existing function entry (used when a family closes a
    /// late-bound recursion, or when an overridable definition is
    /// overridden).
    pub fn replace_fn(&mut self, f: FnDef) -> Result<(), Error> {
        let name = f.name();
        if !self.fns.contains_key(&name) {
            return Err(Error::new(format!(
                "cannot replace unknown function {name}"
            )));
        }
        if let FnDef::Rec(r) = &f {
            self.check_recfn(r)?;
        }
        self.fns.insert(name, f);
        Ok(())
    }

    /// Registers an inductive predicate.
    pub fn add_pred(&mut self, p: IndPred) -> Result<(), Error> {
        if self.preds.contains_key(&p.name) {
            return Err(Error::new(format!("duplicate predicate {}", p.name)));
        }
        self.preds.insert(p.name, p);
        Ok(())
    }

    /// Adds rules to an existing (extensible) predicate.
    pub fn extend_pred(&mut self, name: Symbol, rules: Vec<Rule>) -> Result<(), Error> {
        let p = self
            .preds
            .get_mut(&name)
            .ok_or_else(|| Error::new(format!("unknown predicate {name}")))?;
        if !p.extensible {
            return Err(Error::new(format!("predicate {name} is not extensible")));
        }
        p.rules.extend(rules);
        Ok(())
    }

    /// Registers a defined proposition.
    pub fn add_propdef(&mut self, d: PropDef) -> Result<(), Error> {
        if self.propdefs.contains_key(&d.name) {
            return Err(Error::new(format!("duplicate prop definition {}", d.name)));
        }
        self.propdefs.insert(d.name, d);
        Ok(())
    }

    /// Registers a named fact.
    pub fn add_fact(&mut self, name: Symbol, prop: Prop, kind: FactKind) -> Result<(), Error> {
        if self.fact_index.contains_key(&name) {
            return Err(Error::new(format!("duplicate fact {name}")));
        }
        self.fact_index.insert(name, self.facts.len());
        self.facts.push(Fact { name, prop, kind });
        Ok(())
    }

    /// Replaces a fact's proposition (overriding an opaque field).
    pub fn replace_fact(&mut self, name: Symbol, prop: Prop, kind: FactKind) -> Result<(), Error> {
        let i = *self
            .fact_index
            .get(&name)
            .ok_or_else(|| Error::new(format!("cannot replace unknown fact {name}")))?;
        self.facts[i] = Fact { name, prop, kind };
        Ok(())
    }

    /// Registers a partial recursor snapshot together with its first-order
    /// consequences (injectivity and pairwise disjointness facts).
    ///
    /// The fully dependent partial recursor itself lives in the FMLTT
    /// kernel crate; at the object-logic level we register the derivable
    /// consequences that power `finjection`/`fdiscriminate` (§3.6 shows the
    /// derivation through an injective map into `nat`).
    pub fn add_partial_recursor(&mut self, datatype: Symbol, version: Symbol) -> Result<(), Error> {
        let dt = self
            .datatypes
            .get(&datatype)
            .ok_or_else(|| Error::new(format!("unknown datatype {datatype}")))?
            .clone();
        let known: Vec<Symbol> = dt.ctors.iter().map(|c| c.name).collect();
        self.precs.push(PartialRecursor {
            datatype,
            version,
            known_ctors: known.clone(),
        });
        // Binder names, interned once: the left side's arguments are
        // a0…, the right side's b0….
        let arity = dt.ctors.iter().map(|c| c.args.len()).max().unwrap_or(0);
        let a: Vec<Symbol> = (0..arity).map(|k| Symbol::new(&format!("a{k}"))).collect();
        let b: Vec<Symbol> = (0..arity).map(|k| Symbol::new(&format!("b{k}"))).collect();
        let binders = |names: &[Symbol], c: &CtorSig| -> Vec<(Symbol, Sort)> {
            names.iter().copied().zip(c.args.iter().copied()).collect()
        };
        let applied = |c: &CtorSig, vs: &[(Symbol, Sort)]| {
            Term::Ctor(c.name, vs.iter().map(|(v, _)| Term::Var(*v)).collect())
        };
        // Disjointness: ∀ x̄ ȳ, C x̄ = D ȳ → False   for C ≠ D.
        for (i, c) in dt.ctors.iter().enumerate() {
            for d in dt.ctors.iter().skip(i + 1) {
                let cx = binders(&a, c);
                let dy = binders(&b, d);
                let eq = Prop::Eq(applied(c, &cx), applied(d, &dy));
                let mut vars = cx;
                vars.extend(dy);
                let prop = Prop::foralls(&vars, Prop::imp(eq, Prop::False));
                let name = Symbol::new(&format!("{datatype}_disj_{}_{}_{version}", c.name, d.name));
                if !self.fact_index.contains_key(&name) {
                    self.add_fact(name, prop, FactKind::PrecConsequence)?;
                }
            }
        }
        // Injectivity: ∀ x̄ ȳ, C x̄ = C ȳ → xᵢ = yᵢ (one fact per argument).
        for c in dt.ctors.iter().filter(|c| !c.args.is_empty()) {
            let cx = binders(&a, c);
            let cy = binders(&b, c);
            let eq = Prop::Eq(applied(c, &cx), applied(c, &cy));
            let mut vars = cx;
            vars.extend(cy);
            for k in 0..c.args.len() {
                let concl = Prop::Eq(Term::Var(a[k]), Term::Var(b[k]));
                let prop = Prop::foralls(&vars, Prop::imp(eq, concl));
                let name = Symbol::new(&format!("{datatype}_inj_{}_{k}_{version}", c.name));
                if !self.fact_index.contains_key(&name) {
                    self.add_fact(name, prop, FactKind::PrecConsequence)?;
                }
            }
        }
        Ok(())
    }

    // ---- lookups -------------------------------------------------------

    /// Looks up a datatype.
    pub fn datatype(&self, name: Symbol) -> Option<&Datatype> {
        self.datatypes.get(&name)
    }
    /// Looks up the datatype owning a constructor.
    pub fn ctor_datatype(&self, ctor: Symbol) -> Option<&Datatype> {
        self.ctor_owner
            .get(&ctor)
            .and_then(|d| self.datatypes.get(d))
    }
    /// Looks up a constructor signature.
    pub fn ctor(&self, ctor: Symbol) -> Option<&CtorSig> {
        self.ctor_datatype(ctor)
            .and_then(|dt| dt.ctors.iter().find(|c| c.name == ctor))
    }
    /// Looks up a function.
    /// All registered function definitions, in arbitrary order (used by
    /// the VM's ahead-of-time warm-up when a family closes).
    pub fn functions(&self) -> impl Iterator<Item = &FnDef> {
        self.fns.values()
    }

    pub fn function(&self, name: Symbol) -> Option<&FnDef> {
        self.fns.get(&name)
    }
    /// Looks up a predicate.
    pub fn pred(&self, name: Symbol) -> Option<&IndPred> {
        self.preds.get(&name)
    }
    /// Looks up a defined proposition.
    pub fn propdef(&self, name: Symbol) -> Option<&PropDef> {
        self.propdefs.get(&name)
    }
    /// Looks up a fact.
    pub fn fact(&self, name: Symbol) -> Option<&Fact> {
        self.fact_index.get(&name).map(|&i| &self.facts[i])
    }
    /// All facts, in registration order.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }
    /// All registered partial recursors.
    pub fn partial_recursors(&self) -> &[PartialRecursor] {
        &self.precs
    }
    /// All datatypes (unordered).
    pub fn datatypes(&self) -> impl Iterator<Item = &Datatype> {
        self.datatypes.values()
    }
    /// All predicates (unordered).
    pub fn preds(&self) -> impl Iterator<Item = &IndPred> {
        self.preds.values()
    }

    /// Is there a partial-recursor registration for `datatype` covering
    /// `ctor`? This is the licence for `finjection`/`fdiscriminate` on
    /// extensible datatypes.
    pub fn prec_covers(&self, datatype: Symbol, ctor: Symbol) -> bool {
        self.precs
            .iter()
            .any(|p| p.datatype == datatype && p.known_ctors.contains(&ctor))
    }

    /// Registers a hint fact name for `auto`.
    pub fn add_hint(&mut self, name: &str) {
        let s = Symbol::new(name);
        if !self.hints.contains(&s) {
            self.hints.push(s);
        }
    }

    /// Registers a predicate whose rules `auto` may use.
    pub fn add_hint_pred(&mut self, name: &str) {
        let s = Symbol::new(name);
        if !self.hint_preds.contains(&s) {
            self.hint_preds.push(s);
        }
    }

    // ---- checking ------------------------------------------------------

    /// Infers the sort of a term under a variable context.
    pub fn sort_of(&self, vars: &HashMap<Symbol, Sort>, t: &Term) -> Result<Sort, Error> {
        match t {
            Term::Var(v) => vars
                .get(v)
                .copied()
                .ok_or_else(|| Error::new(format!("unbound variable {v}"))),
            Term::Lit(_) => Ok(Sort::Id),
            Term::Ctor(c, args) => {
                let sig = self
                    .ctor(*c)
                    .ok_or_else(|| Error::new(format!("unknown constructor {c}")))?
                    .clone();
                let owner = self.ctor_owner[c];
                self.check_args(vars, args, &sig.args, &format!("constructor {c}"))?;
                Ok(Sort::Named(owner))
            }
            Term::Fn(f, args) => {
                let def = self
                    .fns
                    .get(f)
                    .ok_or_else(|| Error::new(format!("unknown function {f}")))?;
                let params = def.param_sorts();
                let ret = def.ret_sort();
                self.check_args(vars, args, &params, &format!("function {f}"))?;
                Ok(ret)
            }
        }
    }

    fn check_args(
        &self,
        vars: &HashMap<Symbol, Sort>,
        args: &[Term],
        expected: &[Sort],
        what: &str,
    ) -> Result<(), Error> {
        if args.len() != expected.len() {
            return Err(Error::new(format!(
                "{what}: expected {} arguments, got {}",
                expected.len(),
                args.len()
            )));
        }
        for (a, s) in args.iter().zip(expected) {
            let got = self.sort_of(vars, a)?;
            if got != *s {
                return Err(Error::new(format!(
                    "{what}: argument {a} has sort {got}, expected {s}"
                )));
            }
        }
        Ok(())
    }

    /// Checks a term against an expected sort.
    pub fn check_term(
        &self,
        vars: &HashMap<Symbol, Sort>,
        t: &Term,
        expected: Sort,
    ) -> Result<(), Error> {
        let got = self.sort_of(vars, t)?;
        if got != expected {
            return Err(Error::new(format!(
                "term {t} has sort {got}, expected {expected}"
            )));
        }
        Ok(())
    }

    /// Checks well-sortedness of a proposition.
    pub fn check_prop(&self, vars: &HashMap<Symbol, Sort>, p: &Prop) -> Result<(), Error> {
        match p {
            Prop::True | Prop::False => Ok(()),
            Prop::Eq(a, b) => {
                let sa = self.sort_of(vars, a)?;
                let sb = self.sort_of(vars, b)?;
                if sa != sb {
                    return Err(Error::new(format!(
                        "heterogeneous equality {a} : {sa} = {b} : {sb}"
                    )));
                }
                Ok(())
            }
            Prop::Atom(q, args) => {
                let pred = self
                    .preds
                    .get(q)
                    .ok_or_else(|| Error::new(format!("unknown predicate {q}")))?;
                let sorts = pred.arg_sorts.clone();
                self.check_args(vars, args, &sorts, &format!("predicate {q}"))
            }
            Prop::Def(q, args) => {
                let d = self
                    .propdefs
                    .get(q)
                    .ok_or_else(|| Error::new(format!("unknown prop definition {q}")))?;
                let sorts: Vec<Sort> = d.params.iter().map(|(_, s)| *s).collect();
                self.check_args(vars, args, &sorts, &format!("prop definition {q}"))
            }
            Prop::And(a, b) | Prop::Or(a, b) | Prop::Imp(a, b) => {
                self.check_prop(vars, a)?;
                self.check_prop(vars, b)
            }
            Prop::Forall(v, s, body) | Prop::Exists(v, s, body) => {
                self.check_sort_exists(*s)?;
                let mut inner = vars.clone();
                inner.insert(*v, *s);
                self.check_prop(&inner, body)
            }
        }
    }

    /// Checks that a sort is declared.
    pub fn check_sort_exists(&self, s: Sort) -> Result<(), Error> {
        match s {
            Sort::Id => Ok(()),
            Sort::Named(n) => {
                if self.datatypes.contains_key(&n) {
                    Ok(())
                } else {
                    Err(Error::new(format!("unknown sort {n}")))
                }
            }
        }
    }

    /// Checks a recursive function: case bodies are well-sorted and every
    /// self-call structurally descends on a recursive constructor argument.
    pub fn check_recfn(&self, f: &RecFn) -> Result<(), Error> {
        let dt = self
            .datatypes
            .get(&f.rec_sort)
            .ok_or_else(|| Error::new(format!("unknown recursion sort {}", f.rec_sort)))?;
        // Case bodies are sort-checked with the function visible: declared
        // abstractly in one scratch copy for all cases, or as it already is
        // (a family closing its late-bound recursion re-checks it so).
        let mut sorts = Cow::Borrowed(self);
        if !self.fns.contains_key(&f.name) {
            sorts.to_mut().fns.insert(
                f.name,
                FnDef::Abstract {
                    name: f.name,
                    params: f.param_sorts(),
                    ret: f.ret,
                },
            );
        }
        for case in &f.cases {
            let ctor = dt
                .ctors
                .iter()
                .find(|c| c.name == case.ctor)
                .ok_or_else(|| {
                    Error::new(format!(
                        "function {}: case for unknown constructor {} of {}",
                        f.name, case.ctor, f.rec_sort
                    ))
                })?;
            if case.arg_vars.len() != ctor.args.len() {
                return Err(Error::new(format!(
                    "function {}: case {} binds {} vars, constructor has {} args",
                    f.name,
                    case.ctor,
                    case.arg_vars.len(),
                    ctor.args.len()
                )));
            }
            let mut vars: HashMap<Symbol, Sort> = HashMap::new();
            let mut rec_vars: Vec<Symbol> = Vec::new();
            for (v, s) in case.arg_vars.iter().zip(&ctor.args) {
                vars.insert(*v, *s);
                if *s == Sort::Named(f.rec_sort) {
                    rec_vars.push(*v);
                }
            }
            for (v, s) in &f.params {
                vars.insert(*v, *s);
            }
            self.check_structural_calls(f, &case.body, &rec_vars)?;
            sorts.check_term(&vars, &case.body, f.ret)?;
        }
        Ok(())
    }

    fn check_structural_calls(
        &self,
        f: &RecFn,
        body: &Term,
        rec_vars: &[Symbol],
    ) -> Result<(), Error> {
        match body {
            Term::Fn(g, args) if *g == f.name => {
                match args.first() {
                    Some(Term::Var(v)) if rec_vars.contains(v) => {}
                    other => {
                        return Err(Error::new(format!(
                            "function {}: recursive call must descend on a \
                             structural subterm, got {:?}",
                            f.name, other
                        )))
                    }
                }
                for a in args {
                    self.check_structural_calls(f, a, rec_vars)?;
                }
                Ok(())
            }
            Term::Fn(_, args) | Term::Ctor(_, args) => {
                for a in args {
                    self.check_structural_calls(f, a, rec_vars)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Checks an inductive predicate declaration (rules well-sorted;
    /// conclusions have the right arity).
    pub fn check_pred(&self, p: &IndPred) -> Result<(), Error> {
        for s in &p.arg_sorts {
            self.check_sort_exists(*s)?;
        }
        let mut scratch = self.clone();
        scratch.preds.entry(p.name).or_insert_with(|| p.clone());
        for r in &p.rules {
            scratch.check_rule(p, r)?;
        }
        Ok(())
    }

    /// Checks one rule of a predicate.
    pub fn check_rule(&self, p: &IndPred, r: &Rule) -> Result<(), Error> {
        let mut vars: HashMap<Symbol, Sort> = HashMap::new();
        for (v, s) in &r.binders {
            self.check_sort_exists(*s)?;
            vars.insert(*v, *s);
        }
        for prem in &r.premises {
            self.check_prop(&vars, prem)?;
        }
        if r.conclusion.len() != p.arg_sorts.len() {
            return Err(Error::new(format!(
                "rule {}: conclusion arity {} != predicate arity {}",
                r.name,
                r.conclusion.len(),
                p.arg_sorts.len()
            )));
        }
        for (t, s) in r.conclusion.iter().zip(&p.arg_sorts) {
            self.check_term(&vars, t, *s)?;
        }
        Ok(())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Signature:")?;
        for dt in self.datatypes.values() {
            writeln!(
                f,
                "  data {} ({} ctors{})",
                dt.name,
                dt.ctors.len(),
                if dt.extensible { ", extensible" } else { "" }
            )?;
        }
        for p in self.preds.values() {
            writeln!(f, "  pred {} ({} rules)", p.name, p.rules.len())?;
        }
        for name in self.fns.keys() {
            writeln!(f, "  fn {name}")?;
        }
        writeln!(f, "  {} facts", self.facts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::sym;

    fn nat_sig() -> Signature {
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
        s
    }

    #[test]
    fn datatype_lookup_by_ctor() {
        let s = nat_sig();
        assert_eq!(s.ctor_datatype(sym("succ")).unwrap().name, sym("nat"));
        assert!(s.ctor(sym("missing")).is_none());
    }

    #[test]
    fn duplicate_ctor_rejected() {
        let mut s = nat_sig();
        let res = s.add_datatype(Datatype {
            name: sym("other"),
            ctors: vec![CtorSig::new("zero", vec![])],
            extensible: false,
        });
        assert!(res.is_err());
    }

    #[test]
    fn extend_requires_extensible() {
        let mut s = nat_sig();
        assert!(s
            .extend_datatype(sym("nat"), vec![CtorSig::new("omega", vec![])])
            .is_err());
    }

    #[test]
    fn sort_check_terms() {
        let s = nat_sig();
        let vars = HashMap::new();
        let two = Term::ctor("succ", vec![Term::ctor("succ", vec![Term::c0("zero")])]);
        assert_eq!(s.sort_of(&vars, &two).unwrap(), Sort::named("nat"));
        let bad = Term::ctor("succ", vec![Term::lit("x")]);
        assert!(s.sort_of(&vars, &bad).is_err());
    }

    #[test]
    fn recfn_check_and_equations() {
        let mut s = nat_sig();
        // add : nat -> nat -> nat, recursion on the first argument.
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
        s.add_fn(FnDef::Rec(add.clone())).unwrap();
        let dt = s.datatype(sym("nat")).unwrap().clone();
        let eq0 = add.case_equation(&add.cases[0], &dt.ctors[0]);
        // forall m, add zero m = m
        match eq0 {
            Prop::Forall(_, _, body) => match *body {
                Prop::Eq(lhs, rhs) => {
                    assert_eq!(
                        lhs,
                        Term::func("add", vec![Term::c0("zero"), Term::var("m")])
                    );
                    assert_eq!(rhs, Term::var("m"));
                }
                other => panic!("expected Eq, got {other:?}"),
            },
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn recfn_nonstructural_rejected() {
        let s = nat_sig();
        let bad = RecFn {
            name: sym("loop"),
            rec_sort: sym("nat"),
            params: vec![],
            ret: Sort::named("nat"),
            cases: vec![RecCase {
                ctor: sym("zero"),
                arg_vars: vec![],
                body: Term::func("loop", vec![Term::c0("zero")]),
            }],
        };
        assert!(s.check_recfn(&bad).is_err());
        let ill_sorted = RecFn {
            cases: vec![RecCase {
                ctor: sym("succ"),
                arg_vars: vec![sym("n")],
                body: Term::lit("x"),
            }],
            ..bad.clone()
        };
        // A family closing its recursion re-checks it with `loop` already
        // declared abstractly: that check runs on the signature itself,
        // without a scratch copy, and must reject the same inputs.
        let mut declared = nat_sig();
        declared
            .add_fn(FnDef::Abstract {
                name: sym("loop"),
                params: bad.param_sorts(),
                ret: bad.ret,
            })
            .unwrap();
        assert!(declared.check_recfn(&bad).is_err());
        assert!(declared.check_recfn(&ill_sorted).is_err());
    }

    #[test]
    fn pred_check() {
        let mut s = nat_sig();
        let le = IndPred {
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
        };
        s.check_pred(&le).unwrap();
        s.add_pred(le).unwrap();
        let vars = HashMap::new();
        let p = Prop::atom("le", vec![Term::c0("zero"), Term::c0("zero")]);
        s.check_prop(&vars, &p).unwrap();
    }

    #[test]
    fn partial_recursor_generates_consequences() {
        let mut s = nat_sig();
        s.add_partial_recursor(sym("nat"), sym("Base")).unwrap();
        // Disjointness zero/succ and injectivity of succ must exist.
        assert!(s.fact(sym("nat_disj_zero_succ_Base")).is_some());
        assert!(s.fact(sym("nat_inj_succ_0_Base")).is_some());
        assert!(s.prec_covers(sym("nat"), sym("succ")));

        // The complete fact list of a datatype with a two-argument
        // constructor: every pairwise disjointness in constructor order,
        // then one injectivity fact per constructor argument, with binder
        // names a0…/b0… shared between the two sides.
        s.add_datatype(Datatype {
            name: sym("tree"),
            ctors: vec![
                CtorSig::new("leaf", vec![Sort::named("nat")]),
                CtorSig::new("node", vec![Sort::named("tree"), Sort::named("tree")]),
                CtorSig::new("nil", vec![]),
            ],
            extensible: true,
        })
        .unwrap();
        let before = s.facts().len();
        s.add_partial_recursor(sym("tree"), sym("V")).unwrap();
        let facts: Vec<(String, String)> = s.facts()[before..]
            .iter()
            .map(|f| {
                assert_eq!(f.kind, FactKind::PrecConsequence);
                (f.name.to_string(), f.prop.to_string())
            })
            .collect();
        let want = [
            (
                "tree_disj_leaf_node_V",
                "(forall (a0 : nat), (forall (b0 : tree), (forall (b1 : tree), \
                 ((leaf a0) = (node b0 b1) -> False))))",
            ),
            (
                "tree_disj_leaf_nil_V",
                "(forall (a0 : nat), ((leaf a0) = nil -> False))",
            ),
            (
                "tree_disj_node_nil_V",
                "(forall (a0 : tree), (forall (a1 : tree), ((node a0 a1) = nil -> False)))",
            ),
            (
                "tree_inj_leaf_0_V",
                "(forall (a0 : nat), (forall (b0 : nat), ((leaf a0) = (leaf b0) -> a0 = b0)))",
            ),
            (
                "tree_inj_node_0_V",
                "(forall (a0 : tree), (forall (a1 : tree), (forall (b0 : tree), \
                 (forall (b1 : tree), ((node a0 a1) = (node b0 b1) -> a0 = b0)))))",
            ),
            (
                "tree_inj_node_1_V",
                "(forall (a0 : tree), (forall (a1 : tree), (forall (b0 : tree), \
                 (forall (b1 : tree), ((node a0 a1) = (node b0 b1) -> a1 = b1)))))",
            ),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|(n, p)| (n.to_string(), p.to_string()))
            .collect();
        assert_eq!(facts, want);
    }

    #[test]
    fn alias_delta_equation() {
        let a = AliasFn {
            name: sym("double"),
            params: vec![(sym("n"), Sort::named("nat"))],
            ret: Sort::named("nat"),
            body: Term::func("add", vec![Term::var("n"), Term::var("n")]),
        };
        let eq = a.delta_equation();
        let (binders, prems, concl) = eq.strip_rule();
        assert_eq!(binders.len(), 1);
        assert!(prems.is_empty());
        assert!(matches!(concl, Prop::Eq(..)));
    }
}
