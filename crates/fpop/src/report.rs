//! Rendering of `Check` output with family-qualified names.
//!
//! Outside a family, nested names are accessed via a qualifier
//! (Section 3.2): `Check STLCFix.typesafe` prints the statement with every
//! reference to a family field shown as `STLCFix.<field>`.

use std::collections::HashSet;

use objlang::ident::Symbol;
use objlang::syntax::{Prop, Term};

use crate::elab::CompiledFamily;

/// Renders `Check family.field` output: the statement with family fields
/// qualified.
pub fn qualified_display(fam: &CompiledFamily, field: &str, prop: &Prop) -> String {
    let mut field_names: HashSet<Symbol> = fam.fields.iter().map(|f| f.name).collect();
    // Constructors and rules of family fields are nested names too.
    for f in fam.fields.iter() {
        match &f.content {
            crate::family::Field::Inductive { ctors, .. }
            | crate::family::Field::Data { ctors, .. } => {
                field_names.extend(ctors.iter().map(|c| c.name));
            }
            crate::family::Field::Predicate { rules, .. } => {
                field_names.extend(rules.iter().map(|r| r.name));
            }
            _ => {}
        }
    }
    let famname = fam.name;
    format!(
        "{famname}.{field} : {}",
        render_prop(prop, &field_names, famname)
    )
}

fn qual(s: Symbol, fields: &HashSet<Symbol>, fam: Symbol) -> String {
    if fields.contains(&s) {
        format!("{fam}.{s}")
    } else {
        s.to_string()
    }
}

fn render_term(t: &Term, fields: &HashSet<Symbol>, fam: Symbol) -> String {
    match t {
        Term::Var(v) => v.to_string(),
        Term::Lit(l) => format!("\"{l}\""),
        Term::Ctor(c, args) | Term::Fn(c, args) => {
            if args.is_empty() {
                qual(*c, fields, fam)
            } else {
                let rendered: Vec<String> =
                    args.iter().map(|a| render_term(a, fields, fam)).collect();
                format!("({} {})", qual(*c, fields, fam), rendered.join(" "))
            }
        }
    }
}

fn render_prop(p: &Prop, fields: &HashSet<Symbol>, fam: Symbol) -> String {
    match p {
        Prop::True => "True".into(),
        Prop::False => "False".into(),
        Prop::Eq(a, b) => {
            format!(
                "{} = {}",
                render_term(a, fields, fam),
                render_term(b, fields, fam)
            )
        }
        Prop::Atom(q, args) | Prop::Def(q, args) => {
            if args.is_empty() {
                qual(*q, fields, fam)
            } else {
                let rendered: Vec<String> =
                    args.iter().map(|a| render_term(a, fields, fam)).collect();
                format!("({} {})", qual(*q, fields, fam), rendered.join(" "))
            }
        }
        Prop::And(a, b) => {
            format!(
                "({} /\\ {})",
                render_prop(a, fields, fam),
                render_prop(b, fields, fam)
            )
        }
        Prop::Or(a, b) => {
            format!(
                "({} \\/ {})",
                render_prop(a, fields, fam),
                render_prop(b, fields, fam)
            )
        }
        Prop::Imp(a, b) => {
            format!(
                "{} -> {}",
                render_prop(a, fields, fam),
                render_prop(b, fields, fam)
            )
        }
        Prop::Forall(v, s, body) => {
            format!("forall ({v} : {s}), {}", render_prop(body, fields, fam))
        }
        Prop::Exists(v, s, body) => {
            format!("exists ({v} : {s}), {}", render_prop(body, fields, fam))
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
