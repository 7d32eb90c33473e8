//! Rendering of `Check` output with family-qualified names.
//!
//! Outside a family, nested names are accessed via a qualifier
//! (Section 3.2): `Check STLCFix.typesafe` prints the statement with every
//! reference to a family field shown as `STLCFix.<field>`.

use std::collections::HashSet;
use std::fmt::Write;

use objlang::ident::Symbol;
use objlang::syntax::{Prop, Term};

use crate::elab::CompiledFamily;
use crate::family::Field;

/// A family's nested names — its fields, and the constructors and rules
/// of its inductive fields — which `Check` output shows qualified by the
/// family name. Built once per family, it renders any number of its
/// statements through one buffer.
pub struct QualifiedNames {
    family: Symbol,
    nested: HashSet<Symbol>,
    buf: String,
}

impl QualifiedNames {
    /// Collects the nested names of `fam`.
    pub fn new(fam: &CompiledFamily) -> QualifiedNames {
        let mut nested: HashSet<Symbol> = fam.fields.iter().map(|f| f.name).collect();
        for f in fam.fields.iter() {
            match &f.content {
                Field::Inductive { ctors, .. } | Field::Data { ctors, .. } => {
                    nested.extend(ctors.iter().map(|c| c.name));
                }
                Field::Predicate { rules, .. } => {
                    nested.extend(rules.iter().map(|r| r.name));
                }
                _ => {}
            }
        }
        QualifiedNames {
            family: fam.name,
            nested,
            buf: String::new(),
        }
    }

    /// Renders `Check family.field` output: the statement with the
    /// family's nested names qualified. The result is copied out of the
    /// buffer at its exact length, since the engine keeps every rendered
    /// statement for as long as it runs.
    pub fn display(&mut self, field: &str, prop: &Prop) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.clear();
        let _ = write!(out, "{}.{field} : ", self.family);
        self.prop(&mut out, prop);
        let rendered = out.as_str().to_owned();
        self.buf = out;
        rendered
    }

    fn name(&self, out: &mut String, s: Symbol) {
        if self.nested.contains(&s) {
            let _ = write!(out, "{}.", self.family);
        }
        out.push_str(s.as_str());
    }

    /// `head` applied to `args`: bare when nullary, parenthesized
    /// otherwise.
    fn app(&self, out: &mut String, head: Symbol, args: &[Term]) {
        if args.is_empty() {
            return self.name(out, head);
        }
        out.push('(');
        self.name(out, head);
        for a in args {
            out.push(' ');
            self.term(out, a);
        }
        out.push(')');
    }

    fn term(&self, out: &mut String, t: &Term) {
        match t {
            Term::Var(v) => out.push_str(v.as_str()),
            Term::Lit(l) => {
                let _ = write!(out, "\"{l}\"");
            }
            Term::Ctor(c, args) | Term::Fn(c, args) => self.app(out, *c, args),
        }
    }

    fn prop(&self, out: &mut String, p: &Prop) {
        let binary = |out: &mut String, a: &Prop, op: &str, b: &Prop| {
            self.prop(out, a);
            out.push_str(op);
            self.prop(out, b);
        };
        match p {
            Prop::True => out.push_str("True"),
            Prop::False => out.push_str("False"),
            Prop::Eq(a, b) => {
                self.term(out, a);
                out.push_str(" = ");
                self.term(out, b);
            }
            Prop::Atom(q, args) | Prop::Def(q, args) => self.app(out, *q, args),
            Prop::And(a, b) => {
                out.push('(');
                binary(out, a, " /\\ ", b);
                out.push(')');
            }
            Prop::Or(a, b) => {
                out.push('(');
                binary(out, a, " \\/ ", b);
                out.push(')');
            }
            Prop::Imp(a, b) => binary(out, a, " -> ", b),
            Prop::Forall(v, s, body) => {
                let _ = write!(out, "forall ({v} : {s}), ");
                self.prop(out, body);
            }
            Prop::Exists(v, s, body) => {
                let _ = write!(out, "exists ({v} : {s}), ");
                self.prop(out, body);
            }
        }
    }
}

/// Renders a sort with family qualification for `Check` output.
pub fn qualified_sort(fam: &CompiledFamily, s: objlang::Sort) -> String {
    match s {
        objlang::Sort::Id => "id".to_string(),
        objlang::Sort::Named(n) => {
            if fam.fields.iter().any(|f| f.name == n) {
                format!("{}.{n}", fam.name)
            } else {
                n.to_string()
            }
        }
    }
}
