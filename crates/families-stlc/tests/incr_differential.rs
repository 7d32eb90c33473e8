//! Differential oracle 10: **incremental recheck vs from-scratch
//! rebuild** under random edit scripts.
//!
//! [`testkit::edit_gen`] draws a sub-lattice and a sequence of edits
//! (touch / add-lemma / remove-lemma). Two builders consume the same
//! sequence:
//!
//! * the **incremental** chain threads one universe through
//!   `lattice::rebuild`, so every step re-proves only its
//!   fingerprint-dirty cone and serves the rest from the session memo
//!   (early cutoff or replay);
//! * the **control** rebuilds the whole edited lattice from scratch
//!   each step with testkit's sequential reference
//!   ([`testkit::lattice_ref::build_sequential_defs`]: plan order, no
//!   DAG, no memo) on its own session.
//!
//! Both sessions start empty and see the same edit history, so the
//! control's proof cache is inductively identical to the incremental
//! one. What must hold at every step:
//!
//! * rows of **re-elaborated** variants equal the control's rows of the
//!   same step exactly (same session content ⇒ same checked/shared
//!   split);
//! * rows of **memo-served** variants carry the current source's
//!   structure (`fields`, and `checked + shared` — the obligation count
//!   is a function of the source alone) *and* are literal copies of an
//!   earlier recording by the same chain. The recording is keyed by
//!   fingerprint, not by recency: an edit-then-revert step restores an
//!   older fingerprint and is legitimately served by the *original*
//!   recording, which is why the copy is matched against the variant's
//!   whole run history rather than its latest run;
//! * after the full script the two sessions **export byte-identical
//!   proof caches**;
//! * every script containing a touch of a non-top variant observes a
//!   nonzero cutoff count — the tentpole's reason to exist.
//!
//! A second property holds the engine's served path to the same oracle:
//! [`lattice::redefine`] on one resident [`lattice::Plan`] (no universe,
//! no replan) must answer every touch exactly as `lattice::rebuild` of
//! the unedited definitions and as the sequential control do. It
//! registers no module, so the oracle applies the memo entries it returns
//! into a fresh module environment and compares that with the rebuild's.

use std::collections::HashMap;

use families_stlc::{lattice, normalize_features, subset_defs, variant_name, Feature, VariantStat};
use fpop::sched::default_workers;
use fpop::universe::FamilyUniverse;
use fpop::{IncrOutcome, Session};
use modsys::ModuleEnv;
use testkit::edit_gen::{expand_script, gen_edit_script, EditScript};
use testkit::lattice_ref::{build_sequential, build_sequential_defs, reports_match, rows_match};
use testkit::{forall, Rng, Shrink};

fn run_script(script: &EditScript) -> Result<(), String> {
    let feats = &script.features;
    let steps = expand_script(script);
    let top = variant_name(feats);

    // Initial cold builds: the incremental entry point with an empty
    // previous universe (everything fingerprint-misses) vs the
    // sequential control. Both are cold, so rows must match exactly and
    // the aggregate ledgers must agree unit for unit.
    let empty = FamilyUniverse::new();
    let (mut incr_u, incr_init, init_outcome) =
        lattice::rebuild(&empty, feats, subset_defs(feats), &[], 1)
            .map_err(|e| format!("initial incremental build failed: {e:?}"))?;
    let mut ctrl_u = FamilyUniverse::new();
    let ctrl_sess = ctrl_u.session().clone();
    let ctrl_init = build_sequential_defs(&mut ctrl_u, feats, subset_defs(feats))
        .map_err(|e| format!("initial control build failed: {e:?}"))?;
    if init_outcome.dirty != incr_init.rows.len() {
        return Err(format!(
            "cold incremental build must be all-dirty: {} of {}",
            init_outcome.dirty,
            incr_init.rows.len()
        ));
    }
    reports_match(&incr_init, &ctrl_init).map_err(|e| format!("initial: {e}"))?;
    if !incr_u.modenv.ledger.same_counts(&ctrl_u.modenv.ledger) {
        return Err("cold aggregate ledgers diverge".into());
    }

    // Every row a variant ever produced by *running* in the incremental
    // chain — the pool a memo-served copy must come from.
    let mut history: HashMap<String, Vec<VariantStat>> = HashMap::new();
    for row in &incr_init.rows {
        history
            .entry(row.name.clone())
            .or_default()
            .push(row.clone());
    }

    let mut total_cutoff = 0usize;
    let mut expects_cutoff = false;
    for (k, step) in steps.iter().enumerate() {
        let touch: Vec<&str> = step.touch.iter().map(|s| s.as_str()).collect();
        if step.touch.as_deref().is_some_and(|t| t != top) {
            expects_cutoff = true;
        }
        let (next_u, report, outcome) =
            lattice::rebuild(&incr_u, feats, step.defs.clone(), &touch, 1)
                .map_err(|e| format!("incremental step {k} failed: {e:?}"))?;
        incr_u = next_u;
        let mut cu = FamilyUniverse::with_session(ctrl_sess.clone());
        let ctrl = build_sequential_defs(&mut cu, feats, step.defs.clone())
            .map_err(|e| format!("control step {k} failed: {e:?}"))?;

        if outcome.total() != report.rows.len() {
            return Err(format!(
                "step {k}: outcome tally {} does not cover the {} rows",
                outcome.total(),
                report.rows.len()
            ));
        }
        total_cutoff += outcome.cutoff;
        for (i, row) in report.rows.iter().enumerate() {
            let ct = &ctrl.rows[i];
            if ct.name != row.name {
                return Err(format!("step {k}: variant order diverged at {}", row.name));
            }
            // Structure is a function of the current source, whether the
            // row ran or replayed: same merged field count, same total
            // proof obligations.
            if row.fields != ct.fields {
                return Err(format!(
                    "step {k}: {}: fields {} incr vs {} control",
                    row.name, row.fields, ct.fields
                ));
            }
            if row.checked + row.shared != ct.checked + ct.shared {
                return Err(format!(
                    "step {k}: {}: checked+shared not conserved: incr {}+{} vs control {}+{}",
                    row.name, row.checked, row.shared, ct.checked, ct.shared
                ));
            }
            if outcome.ran.iter().any(|n| n == &row.name) {
                // Re-elaborated: exactly the control of the same step.
                rows_match(row, ct).map_err(|e| format!("step {k} (ran): {e}"))?;
                history
                    .entry(row.name.clone())
                    .or_default()
                    .push(row.clone());
            } else {
                // Memo-served: a literal copy of some earlier run of this
                // chain (the one whose fingerprint matches now).
                let runs = history
                    .get(&row.name)
                    .ok_or_else(|| format!("step {k}: unknown variant {}", row.name))?;
                if !runs.iter().any(|r| rows_match(r, row).is_ok()) {
                    return Err(format!(
                        "step {k}: {}: memo-served row ({}, {}, {}, {}) matches no prior run",
                        row.name, row.arity, row.fields, row.checked, row.shared
                    ));
                }
            }
        }
    }

    if expects_cutoff && total_cutoff == 0 {
        return Err("script touched a non-top variant but no early cutoff was observed".into());
    }

    // After the whole history, the two sessions cache exactly the same
    // proofs — byte for byte, in the same deterministic export order.
    let a = incr_u.session().export();
    let b = ctrl_sess.export();
    if a != b {
        return Err(format!(
            "session exports diverge: incr {} entries vs control {}",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// Oracle #10: random edit scripts, incremental vs from-scratch.
#[test]
fn random_edit_scripts_recheck_equals_rebuild() {
    forall(
        "incr_recheck_eq_rebuild",
        0x10C0FFEE,
        4,
        gen_edit_script,
        |s: &EditScript| run_script(s),
    );
}

/// The deterministic no-op-edit pin: touching the base of a two-feature
/// lattice re-proves exactly that variant; *everything* downstream is
/// served by early cutoff and the rest replays — 100% of the non-dirty
/// lattice comes from the memo, observable both in the outcome tally and
/// in the session's `fpop_incr_cutoff_total` counter.
#[test]
fn noop_edit_reproves_nothing_beyond_the_touched_variant() {
    let feats = [Feature::Fix, Feature::Prod];
    let empty = FamilyUniverse::new();
    let (u, _, _) =
        lattice::rebuild(&empty, &feats, subset_defs(&feats), &[], 1).expect("cold build");
    let cutoff = || {
        u.session()
            .registry()
            .counter_value("fpop_incr_cutoff_total")
            .expect("every session registers the incr counters")
    };
    let cutoff_before = cutoff();
    let (_, report, outcome) =
        lattice::rebuild(&u, &feats, subset_defs(&feats), &["STLC"], 1).expect("touch rebuild");
    assert_eq!(outcome.ran, vec!["STLC".to_string()]);
    assert_eq!(outcome.dirty, 1, "only the touched variant re-elaborates");
    assert_eq!(
        outcome.cutoff,
        report.rows.len() - 1,
        "every dependent of the unchanged base early-cuts"
    );
    assert_eq!(outcome.replayed, 0, "nothing is independent of the base");
    assert_eq!(
        cutoff() - cutoff_before,
        (report.rows.len() - 1) as u64,
        "the Prometheus counter observes the same cutoffs"
    );
}

/// A feature subset and a sequence of touches, each a (variant, base
/// field) pair; indices wrap modulo the plan's variants and the base
/// family's fields, so every touch stays valid under shrinking.
#[derive(Clone, Debug)]
struct TouchScript {
    features: Vec<Feature>,
    touches: Vec<(usize, usize)>,
}

impl Shrink for TouchScript {
    fn shrinks(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.touches.len() {
            if self.touches.len() > 1 {
                let mut touches = self.touches.clone();
                touches.remove(i);
                out.push(TouchScript {
                    features: self.features.clone(),
                    touches,
                });
            }
        }
        for i in 0..self.features.len() {
            if self.features.len() > 1 {
                let mut features = self.features.clone();
                features.remove(i);
                out.push(TouchScript {
                    features,
                    touches: self.touches.clone(),
                });
            }
        }
        out
    }
}

/// 1–3 features (duplicates normalized away) and 1–4 touches.
fn gen_touch_script(r: &mut Rng) -> TouchScript {
    let all = Feature::all_extended();
    let raw: Vec<Feature> = (0..r.range(1, 4)).map(|_| *r.pick(&all)).collect();
    let touches = (0..r.range(1, 5))
        .map(|_| (r.below(64) as usize, r.below(64) as usize))
        .collect();
    TouchScript {
        features: normalize_features(&raw),
        touches,
    }
}

fn split(o: &IncrOutcome) -> (usize, usize, usize) {
    (o.dirty, o.cutoff, o.replayed)
}

fn counts(s: &Session) -> (u64, u64, u64) {
    let st = s.snapshot_stats();
    (st.hits, st.misses, st.inserts)
}

fn run_touches(script: &TouchScript) -> Result<(), String> {
    let feats = &script.features;
    let plan = lattice::Plan::new(feats).map_err(|e| format!("plan: {e:?}"))?;
    let base_fields: Vec<String> = plan.merges()[0]
        .fields
        .iter()
        .map(|f| f.name.to_string())
        .collect();

    // Three sessions, one history each: the served chain (a cold build of
    // the plan, then `redefine` on it), the rebuild chain, and the
    // sequential control.
    let mut served_u = FamilyUniverse::new();
    lattice::build(&mut served_u, &plan, default_workers())
        .map_err(|e| format!("served cold build: {e:?}"))?;
    let served = served_u.session().clone();
    let (mut rebuilt_u, _, _) =
        lattice::rebuild(&FamilyUniverse::new(), feats, subset_defs(feats), &[], 1)
            .map_err(|e| format!("rebuild cold build: {e:?}"))?;
    let mut ctrl_u = FamilyUniverse::new();
    let ctrl = ctrl_u.session().clone();
    let ctrl_cold =
        build_sequential(&mut ctrl_u, feats).map_err(|e| format!("control cold build: {e:?}"))?;
    if !served_u.modenv.ledger.same_counts(&ctrl_u.modenv.ledger) {
        return Err("cold aggregate ledgers diverge".into());
    }
    // The row each variant's memo now replays: its latest run.
    let mut latest = ctrl_cold.rows.clone();

    for (k, &(v, f)) in script.touches.iter().enumerate() {
        let family = plan.merges()[v % plan.merges().len()].name.to_string();
        let field = &base_fields[f % base_fields.len()];
        let (memos, got, got_split) =
            lattice::redefine(&served, &plan, &family, field, default_workers())
                .map_err(|e| format!("step {k}: redefine {family}.{field}: {e:?}"))?;
        let (next, want, want_split) =
            lattice::rebuild(&rebuilt_u, feats, subset_defs(feats), &[&family], 1)
                .map_err(|e| format!("step {k}: rebuild touching {family}: {e:?}"))?;
        rebuilt_u = next;
        let mut cu = FamilyUniverse::with_session(ctrl.clone());
        let fresh =
            build_sequential(&mut cu, feats).map_err(|e| format!("step {k}: control: {e:?}"))?;

        let step = |what: &str| format!("step {k} ({family}.{field}): {what}");
        if split(&got_split) != split(&want_split) || got_split.ran != [family.clone()] {
            return Err(step(&format!(
                "split {:?} ran {:?} vs rebuild {:?}",
                split(&got_split),
                got_split.ran,
                split(&want_split)
            )));
        }
        reports_match(&got, &want).map_err(|e| step(&format!("vs rebuild: {e}")))?;
        // The re-proved variant answers as the control's warm re-check
        // does; every other row replays that variant's latest run.
        let i = v % latest.len();
        latest[i] = fresh.rows[i].clone();
        let expected = lattice::LatticeReport {
            rows: latest.clone(),
        };
        reports_match(&got, &expected).map_err(|e| step(&format!("vs control: {e}")))?;
        // The served path registers no module. Its memos' deltas, applied
        // in plan order into a fresh environment (which re-runs every
        // registration check), must give the rebuild's modules and
        // aggregate ledger.
        let mut env = ModuleEnv::new();
        for m in &memos {
            env.apply_delta(&m.delta)
                .map_err(|e| step(&format!("registering {}: {e}", m.compiled.name)))?;
            env.ledger.absorb(&m.delta.ledger);
        }
        if env.names() != rebuilt_u.modenv.names() {
            return Err(step("served modules differ from the rebuild's"));
        }
        if !env.ledger.same_counts(&rebuilt_u.modenv.ledger) {
            return Err(step("aggregate ledgers diverge from the rebuild's"));
        }
        let (got_counts, want_counts) = (counts(&served), counts(rebuilt_u.session()));
        if got_counts != want_counts {
            return Err(step(&format!(
                "(hits, misses, inserts) {got_counts:?} vs rebuild {want_counts:?}"
            )));
        }
        // No touch proves anything new: misses and inserts stay at the
        // control's, which re-checks everything.
        let c = counts(&ctrl);
        if (got_counts.1, got_counts.2) != (c.1, c.2) {
            return Err(step(&format!(
                "(misses, inserts) {:?} vs control {:?}",
                (got_counts.1, got_counts.2),
                (c.1, c.2)
            )));
        }
    }

    let exports = [served.export(), rebuilt_u.session().export(), ctrl.export()];
    if exports[0] != exports[1] || exports[0] != exports[2] {
        return Err(format!(
            "session exports diverge: served {}, rebuild {}, control {} entries",
            exports[0].len(),
            exports[1].len(),
            exports[2].len()
        ));
    }
    Ok(())
}

/// Oracle #10 on the served path: random touches of random sub-lattices,
/// `redefine` on one resident plan vs `rebuild` vs the sequential
/// control.
#[test]
fn plan_served_redefines_equal_rebuild_and_the_sequential_control() {
    forall(
        "redefine_on_plan_eq_rebuild",
        0x10C0DE5,
        4,
        gen_touch_script,
        run_touches,
    );
}
