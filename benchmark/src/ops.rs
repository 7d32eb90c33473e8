//! Op sequences. Each is a pure function of the seed and the op count, so
//! the work a run does depends on its seed alone, never on how fast the
//! host is. Every sequence is built from whole cycles with a fixed
//! composition (the seed only orders them), so runs with different seeds
//! do the same amount of work of each kind.

use crate::reference::{Num, REDEFINE_FIELDS, VARIANTS};
use crate::rng::Rng;

/// Distinct programs (and distinct eval terms) the serving workloads
/// rotate through: four times the in-flight window, so an op is never in
/// flight beside an identical one and in-flight dedup stays out of play.
pub const POOL: usize = 64;

/// Requests kept in flight on the one connection of a serving workload.
pub const WINDOW: usize = 16;

/// One `serve_wire` cycle: `WIRE_CHECKS` pool checks, `WIRE_EVALS` evals
/// and `WIRE_FRESH` never-repeating checks, shuffled per cycle.
pub const WIRE_CYCLE: usize = 100;
pub const WIRE_CHECKS: usize = 70;
pub const WIRE_EVALS: usize = 27;
pub const WIRE_FRESH: usize = 3;

/// Leaves of every eval term: fixed, so every term costs the same.
pub const EVAL_LEAVES: usize = 8;

/// Family name of pool program `i`.
pub fn pool_family(i: usize) -> String {
    format!("PeanoPool{i:02}")
}

/// Family name of the `n`-th never-repeating program of a run.
pub fn fresh_family(n: usize) -> String {
    format!("PeanoFresh{n}")
}

/// Rounds an op count up to whole cycles of `cycle`.
pub fn whole_cycles(n: usize, cycle: usize) -> usize {
    n.div_ceil(cycle).max(1) * cycle
}

/// `lattice_cold`: the order the four features are listed in each
/// request (the engine normalizes it; the seed only varies the bytes).
pub fn lattice_feature_orders(seed: u64, n: usize) -> Vec<[usize; 4]> {
    let mut rng = Rng::fork(seed, 1);
    (0..n)
        .map(|_| {
            let mut order = [0, 1, 2, 3];
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

/// `edit_recheck`: (variant mask, redefined field) per op. Every block of
/// 16 ops touches each variant once, in a seeded order.
pub fn recheck_ops(seed: u64, n: usize) -> Vec<(u8, &'static str)> {
    let mut rng = Rng::fork(seed, 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut masks: Vec<u8> = (0..VARIANTS as u8).collect();
        rng.shuffle(&mut masks);
        for m in masks {
            let field = REDEFINE_FIELDS[rng.below(REDEFINE_FIELDS.len())];
            out.push((m, field));
        }
    }
    out.truncate(n);
    out
}

/// One `serve_wire` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// `CheckSource` of pool program `i` (warm).
    Check(usize),
    /// `Eval` of eval term `j` under pool family `j`.
    Eval(usize),
    /// `CheckSource` of the run's `n`-th never-repeating program.
    Fresh(usize),
}

/// `serve_wire`: `n` ops rounded up to whole cycles. Pool checks and
/// evals each walk a seeded permutation of the pool in turn.
pub fn wire_ops(seed: u64, n: usize) -> Vec<WireOp> {
    let n = whole_cycles(n, WIRE_CYCLE);
    let mut rng = Rng::fork(seed, 3);
    let mut check_order: Vec<usize> = (0..POOL).collect();
    let mut eval_order: Vec<usize> = (0..POOL).collect();
    rng.shuffle(&mut check_order);
    rng.shuffle(&mut eval_order);
    let (mut c, mut e, mut f) = (0, 0, 0);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut kinds: Vec<u8> = std::iter::repeat_n(0, WIRE_CHECKS)
            .chain(std::iter::repeat_n(1, WIRE_EVALS))
            .chain(std::iter::repeat_n(2, WIRE_FRESH))
            .collect();
        rng.shuffle(&mut kinds);
        for k in kinds {
            out.push(match k {
                0 => {
                    c += 1;
                    WireOp::Check(check_order[(c - 1) % POOL])
                }
                1 => {
                    e += 1;
                    WireOp::Eval(eval_order[(e - 1) % POOL])
                }
                _ => {
                    f += 1;
                    WireOp::Fresh(f - 1)
                }
            });
        }
    }
    out
}

/// The seeded eval-term pool: `POOL` distinct `flip(flip(flip(t)))`
/// terms, each `t` a random tree of exactly [`EVAL_LEAVES`] leaves. The
/// flips are odd in number, so every value differs from `t` in every leaf
/// and a `flip` that returned its argument fails the check.
pub fn eval_terms(seed: u64) -> Vec<Num> {
    let mut rng = Rng::fork(seed, 4);
    let mut out: Vec<Num> = Vec::with_capacity(POOL);
    while out.len() < POOL {
        let mut t = random_tree(&mut rng, EVAL_LEAVES);
        for _ in 0..3 {
            t = Num::Flip(Box::new(t));
        }
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

fn random_tree(rng: &mut Rng, leaves: usize) -> Num {
    if leaves == 1 {
        return if rng.below(2) == 0 {
            Num::Zero
        } else {
            Num::One
        };
    }
    let left = 1 + rng.below(leaves - 1);
    Num::Plus(
        Box::new(random_tree(rng, left)),
        Box::new(random_tree(rng, leaves - left)),
    )
}

/// The router-hop replay: template indices, a fresh seeded permutation
/// of the pool per cycle of `POOL` ops.
pub fn fleet_ops(seed: u64, n: usize) -> Vec<usize> {
    let n = whole_cycles(n, POOL);
    let mut rng = Rng::fork(seed, 5);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut order: Vec<usize> = (0..POOL).collect();
        rng.shuffle(&mut order);
        out.extend(order);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        assert_eq!(recheck_ops(7, 100), recheck_ops(7, 100));
        assert_eq!(wire_ops(7, 1000), wire_ops(7, 1000));
        assert_eq!(eval_terms(7), eval_terms(7));
        assert_eq!(fleet_ops(7, 500), fleet_ops(7, 500));
        assert_eq!(lattice_feature_orders(7, 9), lattice_feature_orders(7, 9));
        assert_ne!(recheck_ops(7, 100), recheck_ops(8, 100));
        assert_ne!(wire_ops(7, 1000), wire_ops(8, 1000));
        assert_ne!(fleet_ops(7, 500), fleet_ops(8, 500));
    }

    #[test]
    fn composition_is_seed_independent() {
        for seed in [1, 2, 3] {
            let ops = recheck_ops(seed, 64);
            for m in 0..16u8 {
                assert_eq!(ops.iter().filter(|(x, _)| *x == m).count(), 4);
            }
            let wire = wire_ops(seed, 1000);
            assert_eq!(wire.len(), 1000);
            let count = |f: fn(&WireOp) -> bool| wire.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, WireOp::Check(_))), 700);
            assert_eq!(count(|o| matches!(o, WireOp::Eval(_))), 270);
            assert_eq!(count(|o| matches!(o, WireOp::Fresh(_))), 30);
            let fleet = fleet_ops(seed, 100);
            assert_eq!(fleet.len(), 128);
            for i in 0..POOL {
                assert_eq!(fleet.iter().filter(|&&x| x == i).count(), 2);
            }
        }
    }

    #[test]
    fn fresh_programs_never_repeat_and_pool_rotates() {
        let wire = wire_ops(11, 2000);
        let fresh: Vec<usize> = wire
            .iter()
            .filter_map(|o| match o {
                WireOp::Fresh(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(fresh, (0..60).collect::<Vec<_>>());
        // Two checks of one pool program are a whole pool rotation apart,
        // so they are never in flight together.
        let checks: Vec<usize> = wire
            .iter()
            .filter_map(|o| match o {
                WireOp::Check(i) => Some(*i),
                _ => None,
            })
            .collect();
        for w in checks.windows(WINDOW) {
            let mut seen = w.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), WINDOW);
        }
    }

    #[test]
    fn eval_terms_are_distinct_and_equal_sized() {
        let terms = eval_terms(3);
        assert_eq!(terms.len(), POOL);
        for t in &terms {
            let leaves =
                t.request().matches("n_zero").count() + t.request().matches("n_one").count();
            assert_eq!(leaves, EVAL_LEAVES);
        }
    }
}
