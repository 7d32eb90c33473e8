//! Family definitions: the surface constructs of FPOP (paper Section 3).
//!
//! A [`FamilyDef`] is the programmer-facing script of a family: an ordered
//! sequence of [`Field`]s, optionally `extends` a base family and `using`
//! mixins (Section 3.5). The builder methods mirror the vernacular commands
//! of Figure 2 (`FInductive`, `FRecursion`, `FInduction`, `FDefinition`,
//! `FTheorem`, `+=`, …).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use objlang::ident::Symbol;
use objlang::induction::Motive;
use objlang::sig::{AliasFn, CtorSig, PropDef, RecCase, Rule};
use objlang::syntax::{Prop, Sort};
use objlang::tactic::Tactic;

/// A proof script: its tactics behind one shared pointer, plus their
/// content digest, computed once when the script is built.
///
/// Every proof-cache lookup and insert keys on that digest (see
/// [`crate::session`]), and a merge, a cache insert or a memo replay
/// copies the pointer, so a script shared by every variant of a lattice
/// is rendered once and stored once. Equality tries the pointer, then the
/// digest, then the tactics. `Debug` prints exactly what the tactics'
/// `Vec` prints, so renderings that include a script (the snapshot export
/// order, the source digests) do not depend on this type.
#[derive(Clone)]
pub struct Script {
    tactics: Arc<[Tactic]>,
    digest: u64,
}

impl Script {
    /// The script's content digest, the script component of every
    /// proof-cache bucket key.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl From<Vec<Tactic>> for Script {
    fn from(tactics: Vec<Tactic>) -> Script {
        Script {
            digest: crate::session::script_digest(&tactics),
            tactics: tactics.into(),
        }
    }
}

impl Deref for Script {
    type Target = [Tactic];

    fn deref(&self) -> &[Tactic] {
        &self.tactics
    }
}

impl PartialEq for Script {
    fn eq(&self, other: &Script) -> bool {
        Arc::ptr_eq(&self.tactics, &other.tactics)
            || (self.digest == other.digest && self.tactics == other.tactics)
    }
}

impl Eq for Script {}

impl Hash for Script {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal tactics have equal digests, so this agrees with `Eq`.
        self.digest.hash(state);
    }
}

impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.tactics, f)
    }
}

/// How a theorem field is proven.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ProofSpec {
    /// An ordinary opaque proof script (`Proof. … Qed.`). Checked once in
    /// the defining family and inherited by derived families without
    /// rechecking (late binding makes this sound, Section 4).
    Script(Script),
    /// A closed-world proof script that is *re-run* in every derived family
    /// that further binds one of `depends_on` (the treatment of trivial
    /// inversion lemmas described in Section 7). Within the script,
    /// inversion/case analysis on the listed extensible types is permitted.
    ReproveOnExtend {
        /// The script to (re-)run.
        script: Script,
        /// Extensible datatypes/predicates the proof performs closed-world
        /// reasoning on; further binding any of them triggers a re-prove.
        depends_on: Vec<Symbol>,
    },
    /// `Admitted.` — registers the statement as an axiom. It will show up
    /// in the family's assumption audit (the paper's consistency
    /// counterexample in Section 3.4 relies on this).
    Admitted,
}

/// One field of a family, in script order.
#[derive(Clone, PartialEq, Debug)]
pub enum Field {
    /// `FInductive name := ctors` — an extensible datatype (Section 3.1).
    Inductive {
        /// Datatype name.
        name: Symbol,
        /// Constructors.
        ctors: Vec<CtorSig>,
    },
    /// `FInductive name += ctors` — further binds an inherited datatype.
    InductiveExt {
        /// Datatype name (must exist in the base).
        name: Symbol,
        /// Added constructors.
        ctors: Vec<CtorSig>,
    },
    /// A plain, non-extensible datatype (our stand-in for library data like
    /// association-list environments; see DESIGN.md substitutions).
    Data {
        /// Datatype name.
        name: Symbol,
        /// Constructors.
        ctors: Vec<CtorSig>,
    },
    /// `FInductive name : … → Prop := rules` — an extensible inductively
    /// defined relation.
    Predicate {
        /// Predicate name.
        name: Symbol,
        /// Argument sorts.
        arg_sorts: Vec<Sort>,
        /// Rules.
        rules: Vec<Rule>,
        /// Whether `auto` may use the rules as hints.
        hint: bool,
    },
    /// `FInductive name += rules` on a relation.
    PredicateExt {
        /// Predicate name.
        name: Symbol,
        /// Added rules.
        rules: Vec<Rule>,
    },
    /// `FRecursion name on rec_sort motive …` with its `Case` handlers
    /// (Section 3.1). The recursive argument is the first parameter.
    Recursion {
        /// Function name.
        name: Symbol,
        /// Datatype recursed over.
        rec_sort: Symbol,
        /// Non-recursive parameters.
        params: Vec<(Symbol, Sort)>,
        /// Result sort.
        ret: Sort,
        /// Case handlers.
        cases: Vec<RecCase>,
    },
    /// `FRecursion name … +=` — retroactive case handlers in a derived
    /// family.
    RecursionExt {
        /// Function name.
        name: Symbol,
        /// Added cases.
        cases: Vec<RecCase>,
    },
    /// `FDefinition` — a transparent definition. Non-overridable by default
    /// (its delta equation is available to the type checker, Section 3.3);
    /// `Overridable` definitions are treated abstractly (see DESIGN.md).
    Definition {
        /// The definition.
        alias: AliasFn,
        /// Whether a derived family may override it.
        overridable: bool,
    },
    /// Overrides an `Overridable` definition or further binds an
    /// [`Field::AbstractFn`] with a concrete body.
    OverrideDefinition {
        /// The new definition (same name as the overridden field).
        alias: AliasFn,
    },
    /// A transparent defined proposition (e.g. `includedin`).
    PropDefinition {
        /// The definition.
        def: PropDef,
    },
    /// An abstract function "parameter" of a framework family (the ImpGAI
    /// pattern of Section 7: fields left unspecified for derived families
    /// to further bind).
    AbstractFn {
        /// Function name.
        name: Symbol,
        /// Parameter sorts.
        params: Vec<Sort>,
        /// Result sort.
        ret: Sort,
    },
    /// `FInduction name on pred motive … Case r. … Qed. … End name`
    /// (Section 3.1): per-rule proof scripts.
    Induction {
        /// Lemma name.
        name: Symbol,
        /// The predicate inducted over.
        pred: Symbol,
        /// The motive.
        motive: Motive,
        /// One proof script per rule (rule name, script).
        cases: Vec<(Symbol, Script)>,
        /// Whether `auto` may use the resulting lemma as a hint.
        hint: bool,
    },
    /// `FInduction name on <datatype> motive …` — induction over an
    /// extensible *datatype* (used by the Imp case study's soundness
    /// proofs, Section 7).
    DataInduction {
        /// Lemma name.
        name: Symbol,
        /// The datatype inducted over.
        datatype: Symbol,
        /// The motive.
        motive: objlang::induction::DataMotive,
        /// One proof script per constructor.
        cases: Vec<(Symbol, Script)>,
        /// Whether `auto` may use the resulting lemma as a hint.
        hint: bool,
    },
    /// `FInduction name … +=` on a datatype induction.
    DataInductionExt {
        /// Lemma name.
        name: Symbol,
        /// Added cases.
        cases: Vec<(Symbol, Script)>,
    },
    /// `FInduction name … +=` — retroactive induction cases.
    InductionExt {
        /// Lemma name.
        name: Symbol,
        /// Added cases.
        cases: Vec<(Symbol, Script)>,
    },
    /// `FTheorem`/`FLemma` — an opaque proof field.
    Theorem {
        /// Theorem name.
        name: Symbol,
        /// The statement (over the family's fields).
        statement: Prop,
        /// The proof.
        proof: ProofSpec,
        /// Whether `auto` may use the theorem as a hint.
        hint: bool,
    },
    /// Overrides an opaque proof field (always legal, Section 3.3) or
    /// proves an inherited [`Field::Parameter`] axiom.
    OverrideTheorem {
        /// The overridden field's name.
        name: Symbol,
        /// The new proof.
        proof: ProofSpec,
    },
    /// An axiom "parameter" of a framework family (stated, not proven;
    /// appears in the assumption audit until a derived family overrides it
    /// with a proof).
    Parameter {
        /// Name.
        name: Symbol,
        /// Statement.
        statement: Prop,
        /// Whether `auto` may use it as a hint.
        hint: bool,
    },
}

impl Field {
    /// The field's name.
    pub fn name(&self) -> Symbol {
        match self {
            Field::Inductive { name, .. }
            | Field::InductiveExt { name, .. }
            | Field::Data { name, .. }
            | Field::Predicate { name, .. }
            | Field::PredicateExt { name, .. }
            | Field::Recursion { name, .. }
            | Field::RecursionExt { name, .. }
            | Field::AbstractFn { name, .. }
            | Field::Induction { name, .. }
            | Field::InductionExt { name, .. }
            | Field::DataInduction { name, .. }
            | Field::DataInductionExt { name, .. }
            | Field::Theorem { name, .. }
            | Field::OverrideTheorem { name, .. }
            | Field::Parameter { name, .. } => *name,
            Field::Definition { alias, .. } | Field::OverrideDefinition { alias } => alias.name,
            Field::PropDefinition { def } => def.name,
        }
    }

    /// Is this field an extension/override of an inherited field (an
    /// *anchor* during the merge)?
    pub fn is_extension(&self) -> bool {
        matches!(
            self,
            Field::InductiveExt { .. }
                | Field::PredicateExt { .. }
                | Field::RecursionExt { .. }
                | Field::InductionExt { .. }
                | Field::DataInductionExt { .. }
                | Field::OverrideTheorem { .. }
                | Field::OverrideDefinition { .. }
        )
    }
}

/// A family definition script.
#[derive(Clone, PartialEq, Debug)]
pub struct FamilyDef {
    /// Family name.
    pub name: Symbol,
    /// Base family (`extends`).
    pub extends: Option<Symbol>,
    /// Mixins (`using`), applied in order before this family's own fields
    /// (Section 3.5).
    pub mixins: Vec<Symbol>,
    /// This family's own fields, in script order.
    pub fields: Vec<Field>,
}

impl FamilyDef {
    /// A root family.
    pub fn new(name: &str) -> FamilyDef {
        FamilyDef {
            name: Symbol::new(name),
            extends: None,
            mixins: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// `Family name extends base.`
    pub fn extending(name: &str, base: &str) -> FamilyDef {
        FamilyDef {
            name: Symbol::new(name),
            extends: Some(Symbol::new(base)),
            mixins: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// `Family name extends base using m1, m2, …`
    pub fn extending_with(name: &str, base: &str, mixins: &[&str]) -> FamilyDef {
        FamilyDef {
            name: Symbol::new(name),
            extends: Some(Symbol::new(base)),
            mixins: mixins.iter().map(|m| Symbol::new(m)).collect(),
            fields: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn field(mut self, f: Field) -> FamilyDef {
        self.fields.push(f);
        self
    }

    /// `FInductive name := ctors.`
    pub fn inductive(self, name: &str, ctors: Vec<CtorSig>) -> FamilyDef {
        self.field(Field::Inductive {
            name: Symbol::new(name),
            ctors,
        })
    }

    /// `FInductive name += ctors.`
    pub fn extend_inductive(self, name: &str, ctors: Vec<CtorSig>) -> FamilyDef {
        self.field(Field::InductiveExt {
            name: Symbol::new(name),
            ctors,
        })
    }

    /// A plain (non-extensible) datatype.
    pub fn data(self, name: &str, ctors: Vec<CtorSig>) -> FamilyDef {
        self.field(Field::Data {
            name: Symbol::new(name),
            ctors,
        })
    }

    /// `FInductive name : … → Prop := rules.`
    pub fn predicate(self, name: &str, arg_sorts: Vec<Sort>, rules: Vec<Rule>) -> FamilyDef {
        self.field(Field::Predicate {
            name: Symbol::new(name),
            arg_sorts,
            rules,
            hint: true,
        })
    }

    /// `FInductive name += rules.`
    pub fn extend_predicate(self, name: &str, rules: Vec<Rule>) -> FamilyDef {
        self.field(Field::PredicateExt {
            name: Symbol::new(name),
            rules,
        })
    }

    /// `FRecursion name on rec_sort … End name.`
    pub fn recursion(
        self,
        name: &str,
        rec_sort: &str,
        params: Vec<(Symbol, Sort)>,
        ret: Sort,
        cases: Vec<RecCase>,
    ) -> FamilyDef {
        self.field(Field::Recursion {
            name: Symbol::new(name),
            rec_sort: Symbol::new(rec_sort),
            params,
            ret,
            cases,
        })
    }

    /// `FRecursion name += cases.`
    pub fn extend_recursion(self, name: &str, cases: Vec<RecCase>) -> FamilyDef {
        self.field(Field::RecursionExt {
            name: Symbol::new(name),
            cases,
        })
    }

    /// `FDefinition` (transparent, non-overridable).
    pub fn definition(self, alias: AliasFn) -> FamilyDef {
        self.field(Field::Definition {
            alias,
            overridable: false,
        })
    }

    /// `FDefinition … Overridable.`
    pub fn overridable_definition(self, alias: AliasFn) -> FamilyDef {
        self.field(Field::Definition {
            alias,
            overridable: true,
        })
    }

    /// Overrides an overridable/abstract definition.
    pub fn override_definition(self, alias: AliasFn) -> FamilyDef {
        self.field(Field::OverrideDefinition { alias })
    }

    /// A defined proposition.
    pub fn prop_definition(self, def: PropDef) -> FamilyDef {
        self.field(Field::PropDefinition { def })
    }

    /// An abstract function parameter (framework pattern).
    pub fn abstract_fn(self, name: &str, params: Vec<Sort>, ret: Sort) -> FamilyDef {
        self.field(Field::AbstractFn {
            name: Symbol::new(name),
            params,
            ret,
        })
    }

    /// `FInduction name on pred motive … End name.`
    pub fn induction(
        self,
        name: &str,
        pred: &str,
        motive: Motive,
        cases: Vec<(&str, Vec<Tactic>)>,
    ) -> FamilyDef {
        self.field(Field::Induction {
            name: Symbol::new(name),
            pred: Symbol::new(pred),
            motive,
            cases: cases
                .into_iter()
                .map(|(r, s)| (Symbol::new(r), s.into()))
                .collect(),
            hint: false,
        })
    }

    /// `FInduction name on <datatype> motive … End name.`
    pub fn data_induction(
        self,
        name: &str,
        datatype: &str,
        motive: objlang::induction::DataMotive,
        cases: Vec<(&str, Vec<Tactic>)>,
    ) -> FamilyDef {
        self.field(Field::DataInduction {
            name: Symbol::new(name),
            datatype: Symbol::new(datatype),
            motive,
            cases: cases
                .into_iter()
                .map(|(r, s)| (Symbol::new(r), s.into()))
                .collect(),
            hint: false,
        })
    }

    /// `FInduction name +=` on a datatype induction.
    pub fn extend_data_induction(self, name: &str, cases: Vec<(&str, Vec<Tactic>)>) -> FamilyDef {
        self.field(Field::DataInductionExt {
            name: Symbol::new(name),
            cases: cases
                .into_iter()
                .map(|(r, s)| (Symbol::new(r), s.into()))
                .collect(),
        })
    }

    /// `FInduction name +=` with extra cases.
    pub fn extend_induction(self, name: &str, cases: Vec<(&str, Vec<Tactic>)>) -> FamilyDef {
        self.field(Field::InductionExt {
            name: Symbol::new(name),
            cases: cases
                .into_iter()
                .map(|(r, s)| (Symbol::new(r), s.into()))
                .collect(),
        })
    }

    /// `FTheorem name : statement. Proof. … Qed.`
    pub fn theorem(self, name: &str, statement: Prop, script: Vec<Tactic>) -> FamilyDef {
        self.field(Field::Theorem {
            name: Symbol::new(name),
            statement,
            proof: ProofSpec::Script(script.into()),
            hint: false,
        })
    }

    /// A reprove-on-extend lemma (closed-world script, re-run on extension
    /// of the listed types).
    pub fn reprove_lemma(
        self,
        name: &str,
        statement: Prop,
        script: Vec<Tactic>,
        depends_on: &[&str],
    ) -> FamilyDef {
        self.field(Field::Theorem {
            name: Symbol::new(name),
            statement,
            proof: ProofSpec::ReproveOnExtend {
                script: script.into(),
                depends_on: depends_on.iter().map(|s| Symbol::new(s)).collect(),
            },
            hint: true,
        })
    }

    /// `FLemma name : statement. Proof. Admitted.`
    pub fn admitted(self, name: &str, statement: Prop) -> FamilyDef {
        self.field(Field::Theorem {
            name: Symbol::new(name),
            statement,
            proof: ProofSpec::Admitted,
            hint: true,
        })
    }

    /// Overrides an opaque proof field.
    pub fn override_theorem(self, name: &str, script: Vec<Tactic>) -> FamilyDef {
        self.field(Field::OverrideTheorem {
            name: Symbol::new(name),
            proof: ProofSpec::Script(script.into()),
        })
    }

    /// An axiom parameter field.
    pub fn parameter(self, name: &str, statement: Prop) -> FamilyDef {
        self.field(Field::Parameter {
            name: Symbol::new(name),
            statement,
            hint: true,
        })
    }

    /// Marks the most recently added `Theorem`/`Induction` field as an
    /// `auto` hint.
    pub fn hinted(mut self) -> FamilyDef {
        if let Some(
            Field::Theorem { hint, .. }
            | Field::Induction { hint, .. }
            | Field::Parameter { hint, .. }
            | Field::Predicate { hint, .. },
        ) = self.fields.last_mut()
        {
            *hint = true;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objlang::sym;

    #[test]
    fn builder_collects_fields_in_order() {
        let fam = FamilyDef::new("STLC")
            .inductive("tm", vec![CtorSig::new("tm_unit", vec![])])
            .data("env0", vec![CtorSig::new("env0_nil", vec![])]);
        assert_eq!(fam.fields.len(), 2);
        assert_eq!(fam.fields[0].name(), sym("tm"));
        assert!(!fam.fields[0].is_extension());
    }

    #[test]
    fn extension_fields_are_anchors() {
        let fam = FamilyDef::extending("STLCFix", "STLC")
            .extend_inductive("tm", vec![CtorSig::new("tm_fix", vec![])]);
        assert!(fam.fields[0].is_extension());
        assert_eq!(fam.extends, Some(sym("STLC")));
    }

    #[test]
    fn mixin_declaration() {
        let fam = FamilyDef::extending_with("STLCFixIsorec", "STLC", &["STLCFix", "STLCIsorec"]);
        assert_eq!(fam.mixins.len(), 2);
    }

    #[test]
    fn hinted_marks_last() {
        let fam = FamilyDef::new("F")
            .theorem("t", Prop::True, vec![])
            .hinted();
        match &fam.fields[0] {
            Field::Theorem { hint, .. } => assert!(hint),
            other => panic!("unexpected {other:?}"),
        }
    }
}
