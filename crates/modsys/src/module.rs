//! Modules, module types, includes, aggregation and the assumption audit.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::ledger::CheckLedger;

/// An error in the module layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModError(pub String);

impl fmt::Display for ModError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ModError {}

/// What kind of entity an item is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// A declared-but-undefined field of a module type (late-bound name,
    /// partial recursor, computation equation, …). Must be discharged at
    /// aggregation.
    Axiom,
    /// A transparent definition (`Def` in Figures 4–5).
    Definition,
    /// An opaque proof (`Qed`-terminated).
    OpaqueProof,
    /// An inductive type instantiated at `End Family`.
    InductiveInstance,
    /// A fact proven at aggregation time (e.g. `… reflexivity. Qed.` for
    /// partial-recursor computation behaviours).
    Fact,
}

/// One item of a module or module type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Item {
    /// Item name (unqualified).
    pub name: String,
    /// Human-readable rendering of the type/body (display only; the logical
    /// content is checked by the `objlang` layer).
    pub descr: String,
    /// Kind.
    pub kind: ItemKind,
}

impl Item {
    /// Creates an axiom item.
    pub fn axiom(name: &str, descr: &str) -> Item {
        Item {
            name: name.into(),
            descr: descr.into(),
            kind: ItemKind::Axiom,
        }
    }
    /// Creates a definition item.
    pub fn definition(name: &str, descr: &str) -> Item {
        Item {
            name: name.into(),
            descr: descr.into(),
            kind: ItemKind::Definition,
        }
    }
    /// Creates an opaque-proof item.
    pub fn opaque(name: &str, descr: &str) -> Item {
        Item {
            name: name.into(),
            descr: descr.into(),
            kind: ItemKind::OpaqueProof,
        }
    }
    /// Creates an inductive-instance item.
    pub fn inductive(name: &str, descr: &str) -> Item {
        Item {
            name: name.into(),
            descr: descr.into(),
            kind: ItemKind::InductiveInstance,
        }
    }
    /// Creates a fact item.
    pub fn fact(name: &str, descr: &str) -> Item {
        Item {
            name: name.into(),
            descr: descr.into(),
            kind: ItemKind::Fact,
        }
    }
}

/// An entry of a module body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModEntry {
    /// Declare/define an item.
    Declare(Item),
    /// `Include M(self)` — splice the items of module or module type `M`,
    /// instantiating its `self` parameter with the current environment
    /// (the "Coq nicety" described in Section 4).
    Include(String),
}

/// A module type (declares axioms; parameterized by `self : ctx`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModuleType {
    /// Fully qualified name, e.g. `STLC◦tm`. Shared (`Arc<str>`) with the
    /// environment's name index, so registering a module copies a pointer.
    pub name: Arc<str>,
    /// The context module type of the `self` parameter, if any.
    pub self_ctx: Option<String>,
    /// Entries.
    pub entries: Vec<ModEntry>,
}

/// A module (carries definitions; possibly parameterized by `self`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Module {
    /// Fully qualified name, e.g. `STLC◦subst◦Cases` or the aggregate
    /// `STLC`. Shared with the environment's name index, as for
    /// [`ModuleType::name`].
    pub name: Arc<str>,
    /// The context module type of the `self` parameter, if any.
    pub self_ctx: Option<String>,
    /// Entries.
    pub entries: Vec<ModEntry>,
}

/// The global environment of compiled modules and module types.
///
/// Module bodies are stored behind `Arc`s and names are `Arc<str>`s shared
/// by the body, the name index and the registration order, so cloning an
/// environment (the parallel lattice build clones one per variant) and
/// applying a [`ModuleDelta`] copy pointers: the name index and the order
/// vector are duplicated, never a name or an entry vector. Modules are
/// immutable once registered, which is what makes the sharing sound.
#[derive(Clone, Default, Debug)]
pub struct ModuleEnv {
    /// Every module and module type, by name (one namespace).
    entities: HashMap<Arc<str>, DeltaEntry>,
    order: Vec<Arc<str>>,
    /// Accounting of checked-vs-shared entities.
    pub ledger: CheckLedger,
}

impl ModuleEnv {
    /// An empty environment.
    pub fn new() -> ModuleEnv {
        ModuleEnv::default()
    }

    /// Registers a module type; `Include` targets must already exist.
    pub fn add_module_type(&mut self, mt: ModuleType) -> Result<(), ModError> {
        let entity = DeltaEntry::Type(Arc::new(mt));
        self.register(&entity)?;
        self.ledger.record_checked(entity.name());
        self.insert(entity);
        Ok(())
    }

    /// Registers a module.
    pub fn add_module(&mut self, m: Module) -> Result<(), ModError> {
        let entity = DeltaEntry::Module(Arc::new(m));
        self.register(&entity)?;
        self.ledger.record_checked(entity.name());
        self.insert(entity);
        Ok(())
    }

    /// Validates a registration: a fresh name, existing `Include` targets
    /// and an existing self context.
    fn register(&self, entity: &DeltaEntry) -> Result<(), ModError> {
        let (name, self_ctx, entries) = entity.parts();
        if self.entities.contains_key(name) {
            return Err(ModError(format!("duplicate module name {name}")));
        }
        self.validate_entries(entries, name)?;
        if let Some(ctx) = self_ctx {
            if self.module_type(ctx).is_none() {
                let what = match entity {
                    DeltaEntry::Type(_) => "module type",
                    DeltaEntry::Module(_) => "module",
                };
                return Err(ModError(format!(
                    "{what} {name}: unknown self context {ctx}"
                )));
            }
        }
        Ok(())
    }

    fn insert(&mut self, entity: DeltaEntry) {
        let name = Arc::clone(entity.name());
        self.order.push(Arc::clone(&name));
        self.entities.insert(name, entity);
    }

    fn validate_entries(&self, entries: &[ModEntry], owner: &str) -> Result<(), ModError> {
        for e in entries {
            if let ModEntry::Include(target) = e {
                if !self.entities.contains_key(target.as_str()) {
                    return Err(ModError(format!(
                        "{owner}: Include target {target} does not exist"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Looks up a module type.
    pub fn module_type(&self, name: &str) -> Option<&ModuleType> {
        match self.entities.get(name)? {
            DeltaEntry::Type(mt) => Some(mt),
            DeltaEntry::Module(_) => None,
        }
    }
    /// Looks up a module.
    pub fn module(&self, name: &str) -> Option<&Module> {
        match self.entities.get(name)? {
            DeltaEntry::Module(m) => Some(m),
            DeltaEntry::Type(_) => None,
        }
    }
    /// Registration order of all names.
    pub fn names(&self) -> &[Arc<str>] {
        &self.order
    }

    fn entries_of(&self, name: &str) -> Option<&[ModEntry]> {
        self.entities.get(name).map(|e| e.parts().2)
    }

    /// Flattens a module's items, following `Include`s transitively.
    /// Later declarations of the same name shadow earlier ones (as
    /// instantiation discharges an axiom).
    pub fn flatten(&self, name: &str) -> Result<Vec<Item>, ModError> {
        let mut out: Vec<Item> = Vec::new();
        let mut seen_includes = HashSet::new();
        self.flatten_into(name, &mut out, &mut seen_includes)?;
        Ok(out)
    }

    fn flatten_into(
        &self,
        name: &str,
        out: &mut Vec<Item>,
        seen: &mut HashSet<String>,
    ) -> Result<(), ModError> {
        let entries = self
            .entries_of(name)
            .ok_or_else(|| ModError(format!("unknown module {name}")))?;
        for e in entries {
            match e {
                ModEntry::Declare(item) => out.push(item.clone()),
                ModEntry::Include(target) => {
                    if seen.insert(target.clone()) {
                        self.flatten_into(target, out, seen)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// `Print Assumptions` for an aggregate module: axioms that are not
    /// shadowed by a later definition/inductive-instance/fact of the same
    /// name. A closed family must report an empty list (Section 4,
    /// "Trusted base") — modulo explicitly documented prelude axioms.
    pub fn print_assumptions(&self, name: &str) -> Result<Vec<String>, ModError> {
        let items = self.flatten(name)?;
        let mut discharged: HashSet<&str> = HashSet::new();
        for it in &items {
            if it.kind != ItemKind::Axiom {
                discharged.insert(&it.name);
            }
        }
        let mut lingering = Vec::new();
        let mut reported = HashSet::new();
        for it in &items {
            if it.kind == ItemKind::Axiom
                && !discharged.contains(it.name.as_str())
                && reported.insert(it.name.clone())
            {
                lingering.push(it.name.clone());
            }
        }
        Ok(lingering)
    }

    /// Marks a compiled entity as shared (reused without rechecking) in a
    /// derived family — the accounting behind Figure 5's `(* reuse *)`
    /// comments.
    pub fn record_shared(&mut self, name: &str) {
        self.ledger.record_shared(name);
    }

    /// A position marker: everything registered after this mark is part of
    /// a later [`ModuleEnv::into_delta`]. Used by the parallel lattice
    /// build, where each worker elaborates into a clone of the environment
    /// and ships only its delta back to the shared one.
    pub fn mark(&self) -> usize {
        self.order.len()
    }

    /// Consumes the environment into everything registered since `mark`
    /// (in registration order) together with its ledger, as a value that
    /// can cross a thread boundary and be [`ModuleEnv::apply_delta`]-ed
    /// into another environment (whose owner absorbs the ledger, if it
    /// keeps one). The ledger and the entries move; nothing is copied.
    pub fn into_delta(mut self, mark: usize) -> ModuleDelta {
        let mark = mark.min(self.order.len());
        let entries = self
            .order
            .drain(mark..)
            .map(|name| {
                self.entities
                    .remove(&name)
                    .expect("every ordered name is registered")
            })
            .collect();
        ModuleDelta {
            entries,
            ledger: self.ledger,
        }
    }

    /// Splices a worker's delta into this environment: registers its
    /// modules, validated exactly like [`ModuleEnv::add_module`] /
    /// [`ModuleEnv::add_module_type`].
    ///
    /// Splicing records nothing in [`ModuleEnv::ledger`]: the delta's own
    /// ledger already accounts for every registration it carries. A caller
    /// that keeps accounts absorbs `delta.ledger` itself, which yields the
    /// same totals as if the worker had elaborated directly into this
    /// environment; one that only needs the modules in scope (a lattice
    /// variant's world, assembled from its prerequisites' deltas) merges
    /// no ledger it would throw away.
    pub fn apply_delta(&mut self, delta: &ModuleDelta) -> Result<(), ModError> {
        for e in &delta.entries {
            self.register(e)?;
            self.insert(e.clone());
        }
        Ok(())
    }
}

/// One entry of a [`ModuleDelta`], in registration order. Entries share
/// the registering environment's module bodies by `Arc`, so extracting
/// and applying a delta never copies entry vectors (the satellite of the
/// incremental-recheck work: dep-delta application is the per-variant
/// setup cost of the task-DAG build).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaEntry {
    /// A module type registered by the worker.
    Type(Arc<ModuleType>),
    /// A module registered by the worker.
    Module(Arc<Module>),
}

impl DeltaEntry {
    /// The registered name.
    fn name(&self) -> &Arc<str> {
        match self {
            DeltaEntry::Type(mt) => &mt.name,
            DeltaEntry::Module(m) => &m.name,
        }
    }

    /// Name, self context and entries, whichever kind this is.
    fn parts(&self) -> (&Arc<str>, Option<&str>, &[ModEntry]) {
        match self {
            DeltaEntry::Type(mt) => (&mt.name, mt.self_ctx.as_deref(), &mt.entries),
            DeltaEntry::Module(m) => (&m.name, m.self_ctx.as_deref(), &m.entries),
        }
    }
}

/// The portable result of elaborating into a scratch [`ModuleEnv`]: the
/// modules registered since a [`ModuleEnv::mark`], plus the ledger the
/// worker accumulated. `Send + Sync`, so parallel lattice workers can ship
/// it back to the shared environment.
#[derive(Clone, Default, Debug)]
pub struct ModuleDelta {
    /// New registrations, in order.
    pub entries: Vec<DeltaEntry>,
    /// The worker's ledger (checks, shares, cache hits, unit times).
    pub ledger: CheckLedger,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with_fig4_shape() -> ModuleEnv {
        // A miniature of Figure 4's structure.
        let mut env = ModuleEnv::new();
        env.add_module_type(ModuleType {
            name: "STLC◦tm◦Ctx".into(),
            self_ctx: None,
            entries: vec![],
        })
        .unwrap();
        env.add_module_type(ModuleType {
            name: "STLC◦tm".into(),
            self_ctx: Some("STLC◦tm◦Ctx".into()),
            entries: vec![
                ModEntry::Declare(Item::axiom("tm", "Set")),
                ModEntry::Declare(Item::axiom("tm_unit", "tm")),
            ],
        })
        .unwrap();
        env.add_module_type(ModuleType {
            name: "STLC◦env◦Ctx".into(),
            self_ctx: None,
            entries: vec![
                ModEntry::Include("STLC◦tm◦Ctx".into()),
                ModEntry::Include("STLC◦tm".into()),
            ],
        })
        .unwrap();
        env.add_module(Module {
            name: "STLC◦env".into(),
            self_ctx: Some("STLC◦env◦Ctx".into()),
            entries: vec![ModEntry::Declare(Item::definition(
                "env",
                "id → option self.ty",
            ))],
        })
        .unwrap();
        env
    }

    #[test]
    fn include_target_must_exist() {
        let mut env = ModuleEnv::new();
        let res = env.add_module_type(ModuleType {
            name: "X".into(),
            self_ctx: None,
            entries: vec![ModEntry::Include("Nope".into())],
        });
        assert!(res.is_err());
    }

    #[test]
    fn self_ctx_must_exist() {
        let mut env = ModuleEnv::new();
        let res = env.add_module(Module {
            name: "M".into(),
            self_ctx: Some("MissingCtx".into()),
            entries: vec![],
        });
        assert!(res.is_err());
    }

    #[test]
    fn flatten_follows_includes() {
        let env = env_with_fig4_shape();
        let items = env.flatten("STLC◦env◦Ctx").unwrap();
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["tm", "tm_unit"]);
    }

    #[test]
    fn assumptions_lingering_until_instantiated() {
        let mut env = env_with_fig4_shape();
        // Aggregate without instantiating tm: assumptions linger.
        env.add_module(Module {
            name: "STLC_partial".into(),
            self_ctx: None,
            entries: vec![ModEntry::Include("STLC◦tm".into())],
        })
        .unwrap();
        let assm = env.print_assumptions("STLC_partial").unwrap();
        assert_eq!(assm, vec!["tm".to_string(), "tm_unit".to_string()]);

        // Aggregate with instantiation: clean.
        env.add_module(Module {
            name: "STLC".into(),
            self_ctx: None,
            entries: vec![
                ModEntry::Include("STLC◦tm".into()),
                ModEntry::Declare(Item::inductive("tm", "Inductive tm := tm_unit")),
                ModEntry::Declare(Item::definition("tm_unit", "constructor")),
                ModEntry::Include("STLC◦env".into()),
            ],
        })
        .unwrap();
        assert!(env.print_assumptions("STLC").unwrap().is_empty());
    }

    #[test]
    fn ledger_counts_checked_and_shared() {
        let mut env = env_with_fig4_shape();
        assert_eq!(env.ledger.checked_count(), 4);
        env.record_shared("STLC◦env");
        env.record_shared("STLC◦tm");
        assert_eq!(env.ledger.shared_count(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut env = env_with_fig4_shape();
        let res = env.add_module(Module {
            name: "STLC◦tm".into(),
            self_ctx: None,
            entries: vec![],
        });
        assert!(res.is_err());
    }

    /// What a lattice worker registers over its prerequisite: a module
    /// type in the base's context, a context including it, a module in
    /// that context, and one shared entity.
    fn worker_modules(env: &mut ModuleEnv) {
        env.add_module_type(ModuleType {
            name: "STLC◦tm".into(),
            self_ctx: Some("STLC◦tm◦Ctx".into()),
            entries: vec![ModEntry::Declare(Item::axiom("tm", "Set"))],
        })
        .unwrap();
        env.add_module_type(ModuleType {
            name: "STLC◦env◦Ctx".into(),
            self_ctx: None,
            entries: vec![
                ModEntry::Include("STLC◦tm◦Ctx".into()),
                ModEntry::Include("STLC◦tm".into()),
            ],
        })
        .unwrap();
        env.add_module(Module {
            name: "STLC◦env".into(),
            self_ctx: Some("STLC◦env◦Ctx".into()),
            entries: vec![ModEntry::Declare(Item::definition("env", "id → ty"))],
        })
        .unwrap();
        env.record_shared("STLC◦tm◦Ctx");
    }

    #[test]
    fn delta_round_trips_into_another_environment() {
        let mut base = ModuleEnv::new();
        base.add_module_type(ModuleType {
            name: "STLC◦tm◦Ctx".into(),
            self_ctx: None,
            entries: vec![ModEntry::Declare(Item::axiom("ty", "Set"))],
        })
        .unwrap();
        // The worker elaborates into a copy of the base with fresh
        // accounts and ships what it registered after its mark.
        let mut worker = base.clone();
        worker.ledger = CheckLedger::new();
        let mark = worker.mark();
        worker_modules(&mut worker);
        let delta = worker.into_delta(mark);
        let names: Vec<&str> = delta.entries.iter().map(|e| &**e.name()).collect();
        assert_eq!(names, ["STLC◦tm", "STLC◦env◦Ctx", "STLC◦env"]);
        assert_eq!(
            (delta.ledger.checked_count(), delta.ledger.shared_count()),
            (3, 1)
        );

        // Applied to the base, the delta registers what elaborating
        // directly into the base would have, in the same order.
        let mut direct = base.clone();
        worker_modules(&mut direct);
        let mut target = base.clone();
        target.apply_delta(&delta).unwrap();
        assert_eq!(target.names(), direct.names());
        assert_eq!(
            target.flatten("STLC◦env◦Ctx").unwrap(),
            direct.flatten("STLC◦env◦Ctx").unwrap()
        );
        // Splicing records nothing; the caller that keeps accounts absorbs
        // the delta's ledger and gets the direct elaboration's.
        assert!(target.ledger.same_counts(&base.ledger));
        target.ledger.absorb(&delta.ledger);
        assert!(target.ledger.same_counts(&direct.ledger));

        // A second splice is a duplicate; an environment without the
        // prerequisite's modules rejects the delta's self context.
        let dup = target.apply_delta(&delta).unwrap_err();
        assert_eq!(dup.0, "duplicate module name STLC◦tm");
        let orphan = ModuleEnv::new().apply_delta(&delta).unwrap_err();
        assert_eq!(
            orphan.0,
            "module type STLC◦tm: unknown self context STLC◦tm◦Ctx"
        );
    }

    #[test]
    fn diamond_include_is_deduplicated() {
        let mut env = ModuleEnv::new();
        env.add_module_type(ModuleType {
            name: "A".into(),
            self_ctx: None,
            entries: vec![ModEntry::Declare(Item::axiom("a", "T"))],
        })
        .unwrap();
        env.add_module_type(ModuleType {
            name: "B".into(),
            self_ctx: None,
            entries: vec![ModEntry::Include("A".into())],
        })
        .unwrap();
        env.add_module_type(ModuleType {
            name: "C".into(),
            self_ctx: None,
            entries: vec![ModEntry::Include("A".into()), ModEntry::Include("B".into())],
        })
        .unwrap();
        let items = env.flatten("C").unwrap();
        assert_eq!(items.len(), 1);
    }
}
