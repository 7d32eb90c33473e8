//! Known answers, written out by hand. Nothing here is computed by the
//! program under test: every verdict the benchmark checks is compared
//! with a value from this module.

/// The Venn-lattice features in canonical order; bit `i` of a variant
/// mask is feature `i`.
pub const FEATURE_TAGS: [&str; 4] = ["Fix", "Prod", "Sum", "Isorec"];

/// Number of variants in the four-feature lattice (base included).
pub const VARIANTS: usize = 16;

/// The CS1 table of EXPERIMENTS.md: per variant, in canonical order
/// (base, then arity ascending, mask ascending within an arity), the
/// merged field count, units checked fresh and units shared.
pub const CS1: [(&str, usize, usize, usize); VARIANTS] = [
    ("STLC", 29, 43, 0),
    ("STLCFix", 30, 15, 33),
    ("STLCProd", 34, 30, 31),
    ("STLCSum", 35, 32, 31),
    ("STLCIsorec", 35, 27, 31),
    ("STLCFixProd", 35, 18, 48),
    ("STLCFixSum", 36, 19, 49),
    ("STLCProdSum", 40, 23, 58),
    ("STLCFixIsorec", 36, 19, 44),
    ("STLCProdIsorec", 40, 23, 53),
    ("STLCSumIsorec", 41, 24, 54),
    ("STLCFixProdSum", 41, 24, 62),
    ("STLCFixProdIsorec", 41, 24, 57),
    ("STLCFixSumIsorec", 42, 25, 58),
    ("STLCProdSumIsorec", 46, 29, 67),
    ("STLCFixProdSumIsorec", 47, 30, 71),
];

/// Proof obligations a cold four-feature lattice build sends to the
/// kernel, and proofs it commits: CS1-share in EXPERIMENTS.md.
pub const LATTICE_MISSES: u64 = 286;
pub const LATTICE_INSERTS: u64 = 286;

/// Variant name of a feature mask: `STLC` plus the tags of its features.
pub fn variant_name(mask: u8) -> String {
    let mut s = String::from("STLC");
    for (i, tag) in FEATURE_TAGS.iter().enumerate() {
        if mask & (1 << i) != 0 {
            s.push_str(tag);
        }
    }
    s
}

/// The variants whose feature set strictly contains `mask`'s: after a
/// touch of `mask`'s variant re-proves it with an unchanged result, these
/// are exactly the ones served by early cutoff.
pub fn strict_supersets(mask: u8) -> Vec<u8> {
    (0..VARIANTS as u8)
        .filter(|&m| m != mask && m & mask == mask)
        .collect()
}

/// The incremental-recheck split a `Redefine` of `mask`'s variant must
/// produce over the full lattice: (dirty, cutoff, replayed).
pub fn recheck_split(mask: u8) -> (u64, u64, u64) {
    let cutoff = strict_supersets(mask).len() as u64;
    (1, cutoff, VARIANTS as u64 - 1 - cutoff)
}

/// Fields of the base family, inherited by every variant, that a
/// `Redefine` may name.
pub const REDEFINE_FIELDS: [&str; 4] = ["typesafe", "subst", "progress", "preserve"];

/// A Peano-shaped vernacular program defining family `family`.
pub fn peano_program(family: &str) -> String {
    format!(
        "Family {family}.
  FInductive num := n_zero | n_one | n_plus(num, num).
  FRecursion flip on num returns num :=
    Case n_zero := n_one.
    Case n_one := n_zero.
    Case n_plus(a, b) := n_plus(flip(a), flip(b)).
  End flip.
  FDefinition two : num := n_plus(n_one, n_one).
  FTheorem flip_two : flip(two) = n_plus(n_zero, n_zero).
  Proof. fsimpl. reflexivity. Qed.
  FTheorem zero_neq_one : n_zero = n_one -> False.
  Proof. intro H. fdiscriminate H. Qed.
End {family}.
Check {family}.flip_two.
Check {family}.zero_neq_one.
"
    )
}

/// The `Check` lines [`peano_program`]`(family)` must print.
pub fn peano_checks(family: &str) -> Vec<String> {
    let f = family;
    vec![
        format!("{f}.flip_two : ({f}.flip {f}.two) = ({f}.n_plus {f}.n_zero {f}.n_zero)"),
        format!("{f}.zero_neq_one : {f}.n_zero = {f}.n_one -> False"),
    ]
}

/// A never-repeating program: [`peano_program`] plus a theorem about a
/// term that encodes `k`, so its proof obligation is new to the cache.
pub fn fresh_program(family: &str, k: usize) -> String {
    let base = peano_program(family);
    let end = format!("End {family}.\n");
    let theorem = format!(
        "  FTheorem flip_fresh : flip({}) = {}.\n  Proof. fsimpl. reflexivity. Qed.\n",
        encode(k).request(),
        encode(k).eval_flip().request()
    );
    base.replacen(&end, &format!("{theorem}{end}"), 1) + &format!("Check {family}.flip_fresh.\n")
}

/// The `Check` lines [`fresh_program`]`(family, k)` must print.
pub fn fresh_checks(family: &str, k: usize) -> Vec<String> {
    let f = family;
    let mut lines = peano_checks(f);
    lines.push(format!(
        "{f}.flip_fresh : ({f}.flip {}) = {}",
        encode(k).qualified(f),
        encode(k).eval_flip().qualified(f)
    ));
    lines
}

/// `k` in binary, least significant bit first, as a chain of `n_plus`
/// nodes ending in `n_one`: distinct `k` give distinct terms.
pub fn encode(k: usize) -> Num {
    if k == 0 {
        return Num::One;
    }
    let bit = if k & 1 == 1 { Num::One } else { Num::Zero };
    Num::Plus(Box::new(bit), Box::new(encode(k >> 1)))
}

/// Whether a rendered `CheckSource` reply carries exactly the expected
/// `Check` lines (the trailing ledger line is not a verdict).
pub fn checks_match(reply: &str, expected: &[String]) -> bool {
    let mut lines = reply.lines();
    expected.iter().all(|e| lines.next() == Some(e.as_str()))
        && lines.next().is_some_and(|l| l.starts_with("[checked "))
        && lines.next().is_none()
}

/// A closed `num` term of the Peano family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Num {
    Zero,
    One,
    Plus(Box<Num>, Box<Num>),
    Flip(Box<Num>),
}

impl Num {
    /// The term in the request grammar (`flip(n_plus(n_one, n_zero))`).
    pub fn request(&self) -> String {
        match self {
            Num::Zero => "n_zero".into(),
            Num::One => "n_one".into(),
            Num::Plus(a, b) => format!("n_plus({}, {})", a.request(), b.request()),
            Num::Flip(a) => format!("flip({})", a.request()),
        }
    }

    /// The reference evaluator: `flip` swaps the leaves.
    pub fn eval(&self) -> Num {
        match self {
            Num::Zero | Num::One => self.clone(),
            Num::Plus(a, b) => Num::Plus(Box::new(a.eval()), Box::new(b.eval())),
            Num::Flip(a) => flip(&a.eval()),
        }
    }

    /// `flip` applied to this term, evaluated.
    pub fn eval_flip(&self) -> Num {
        flip(&self.eval())
    }

    /// A value as the engine prints it (`(n_plus n_zero n_one)`).
    pub fn value(&self) -> String {
        self.qualified("")
    }

    /// The term as `Check` prints it inside family `family`
    /// (`(F.n_plus F.n_zero F.n_one)`); an empty family prints bare names.
    pub fn qualified(&self, family: &str) -> String {
        let q = |name: &str| {
            if family.is_empty() {
                name.to_string()
            } else {
                format!("{family}.{name}")
            }
        };
        match self {
            Num::Zero => q("n_zero"),
            Num::One => q("n_one"),
            Num::Plus(a, b) => format!(
                "({} {} {})",
                q("n_plus"),
                a.qualified(family),
                b.qualified(family)
            ),
            Num::Flip(a) => format!("({} {})", q("flip"), a.qualified(family)),
        }
    }
}

fn flip(v: &Num) -> Num {
    match v {
        Num::Zero => Num::One,
        Num::One => Num::Zero,
        Num::Plus(a, b) => Num::Plus(Box::new(flip(a)), Box::new(flip(b))),
        Num::Flip(a) => flip(&flip(a)),
    }
}

/// The expected rendered `Eval` reply prefix and value: the fuel suffix is
/// the engine's accounting, not a verdict.
pub fn eval_matches(reply: &str, family: &str, term: &Num) -> bool {
    let want = format!("{family} |- {} [fuel ", term.eval().value());
    reply.starts_with(&want) && reply.ends_with(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_canonical_order() {
        assert_eq!(variant_name(0), "STLC");
        assert_eq!(variant_name(0b1001), "STLCFixIsorec");
        assert_eq!(variant_name(0b1111), "STLCFixProdSumIsorec");
        let mut by_arity: Vec<u8> = (0..16).collect();
        by_arity.sort_by_key(|m| (m.count_ones(), *m));
        let names: Vec<String> = by_arity.iter().map(|&m| variant_name(m)).collect();
        let cs1: Vec<&str> = CS1.iter().map(|r| r.0).collect();
        assert_eq!(names, cs1);
    }

    #[test]
    fn cutoff_sets_from_feature_masks() {
        assert_eq!(strict_supersets(0).len(), 15);
        assert_eq!(strict_supersets(0b1111), Vec::<u8>::new());
        assert_eq!(strict_supersets(0b0001), vec![3, 5, 7, 9, 11, 13, 15]);
        assert_eq!(strict_supersets(0b0110), vec![7, 14, 15]);
        assert_eq!(recheck_split(0), (1, 15, 0));
        assert_eq!(recheck_split(0b0001), (1, 7, 8));
        assert_eq!(recheck_split(0b1111), (1, 0, 15));
        for m in 0..16u8 {
            let (d, c, r) = recheck_split(m);
            assert_eq!(d + c + r, 16);
            assert_eq!(c, (1u64 << (4 - m.count_ones())) - 1);
        }
    }

    #[test]
    fn flip_reference() {
        let t = Num::Flip(Box::new(Num::Plus(Box::new(Num::One), Box::new(Num::Zero))));
        assert_eq!(t.request(), "flip(n_plus(n_one, n_zero))");
        assert_eq!(t.eval().value(), "(n_plus n_zero n_one)");
        let twice = Num::Flip(Box::new(t.clone()));
        assert_eq!(twice.eval().value(), "(n_plus n_one n_zero)");
        assert!(eval_matches(
            "P |- (n_plus n_zero n_one) [fuel 11]",
            "P",
            &t
        ));
        assert!(!eval_matches(
            "P |- (n_plus n_one n_zero) [fuel 11]",
            "P",
            &t
        ));
        assert!(!eval_matches(
            "Q |- (n_plus n_zero n_one) [fuel 11]",
            "P",
            &t
        ));
    }

    /// The term with every `flip` removed.
    fn without_flips(t: &Num) -> Num {
        match t {
            Num::Zero | Num::One => t.clone(),
            Num::Plus(a, b) => Num::Plus(Box::new(without_flips(a)), Box::new(without_flips(b))),
            Num::Flip(a) => without_flips(a),
        }
    }

    #[test]
    fn eval_pool_values_differ_from_their_flip_free_terms() {
        for seed in [1, 2, 3] {
            for t in crate::ops::eval_terms(seed) {
                let plain = without_flips(&t);
                assert_ne!(t.eval(), plain, "{}", t.request());
                assert_eq!(t.eval(), flip(&plain), "{}", t.request());
                assert!(!eval_matches(
                    &format!("P |- {} [fuel 9]", plain.value()),
                    "P",
                    &t
                ));
            }
        }
    }

    #[test]
    fn check_lines_reference() {
        let ok = "A.flip_two : (A.flip A.two) = (A.n_plus A.n_zero A.n_zero)\n\
                  A.zero_neq_one : A.n_zero = A.n_one -> False\n\
                  [checked 3 | shared 2 | cache 2/2]";
        assert!(checks_match(ok, &peano_checks("A")));
        assert!(!checks_match(ok, &peano_checks("B")));
        let short = "A.zero_neq_one : A.n_zero = A.n_one -> False";
        assert!(!checks_match(short, &peano_checks("A")));
        assert!(peano_program("A").contains("Check A.zero_neq_one."));
    }

    #[test]
    fn fresh_programs_encode_their_index() {
        assert_eq!(encode(0), Num::One);
        assert_eq!(encode(2).request(), "n_plus(n_zero, n_plus(n_one, n_one))");
        let terms: Vec<String> = (0..64).map(|k| encode(k).request()).collect();
        let mut distinct = terms.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), terms.len());
        let p = fresh_program("F", 2);
        assert!(p.contains(
            "FTheorem flip_fresh : flip(n_plus(n_zero, n_plus(n_one, n_one))) = \
             n_plus(n_one, n_plus(n_zero, n_zero))."
        ));
        assert!(p.ends_with("Check F.flip_fresh.\n"));
        assert_eq!(
            fresh_checks("F", 1)[2],
            "F.flip_fresh : (F.flip (F.n_plus F.n_one F.n_one)) = (F.n_plus F.n_zero F.n_zero)"
        );
    }
}
