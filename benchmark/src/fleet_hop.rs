//! The router hop, replayed after `serve_wire`'s traced phase: the router
//! (`engine::fleet::Fleet`) in front of two shards, `SubmitTemplate` hits
//! over a registered pool at [`crate::ops::WINDOW`] in flight, against the same frames
//! sent straight to a shard. A shard answers memoized templates inline at
//! its conn layer, so the difference is the router's forward path.

use engine::fleet::Fleet;
use engine::fpopb::{Client, Reply};
use engine::{Priority, Request};

use crate::common::{engine_config, Block, Timer};
use crate::ops::{fleet_ops, pool_family, POOL};
use crate::reference::{checks_match, peano_checks, peano_program};
use crate::serve::{connect, pipelined, warm_pass};

/// Shards behind the router.
const SHARDS: usize = 2;

/// Template frames sent each way: about a second through the router.
const FRAMES: usize = 32768;

fn ok_checks(i: usize, reply: &Reply) -> bool {
    matches!(reply, Reply::Ok(text) if checks_match(text, &peano_checks(&pool_family(i))))
}

/// Registers every pool program as a template through `client` and
/// submits each once, which memoizes it on the shard that runs it.
fn register_pool(client: &mut Client, pool: &[Request]) -> Result<(Vec<u64>, bool), String> {
    let mut digests = vec![0; pool.len()];
    let registered = warm_pass(
        client,
        pool.len(),
        |c, i| c.send_register_template(&pool[i]),
        |i, reply| match reply {
            Reply::TemplateId(d) => {
                digests[i] = *d;
                true
            }
            _ => false,
        },
    )?;
    let ok = warm(client, &digests)?;
    Ok((digests, registered && ok))
}

/// Submits each template once, checking the replies.
fn warm(client: &mut Client, digests: &[u64]) -> Result<bool, String> {
    warm_pass(
        client,
        digests.len(),
        |c, i| c.send_submit_template(digests[i], Priority::Normal),
        ok_checks,
    )
}

/// µs per frame of the seeded template sequence over `client`, from the
/// median block rate, and whether every reply was right.
fn us_per_frame(
    client: &mut Client,
    digests: &[u64],
    ops: &[usize],
) -> Result<(f64, bool), String> {
    let mut timer = Timer::new(ops.len(), None);
    let sent = pipelined(
        client,
        &mut timer,
        0..ops.len(),
        std::time::Duration::MAX,
        |c, i| c.send_submit_template(digests[ops[i]], Priority::Normal),
        |i, reply| ok_checks(ops[i], reply),
    )?;
    timer.finish();
    let rates: Vec<f64> = timer.blocks.iter().map(Block::rate).collect();
    let ok = sent == ops.len() && timer.failed == 0;
    Ok((1e6 / crate::stats::median(&rates), ok))
}

/// The router hop's measurements.
pub struct Hop {
    pub routed_us: f64,
    pub direct_us: f64,
    /// Whether every reply, routed and direct, was right.
    pub ok: bool,
}

/// Starts the fleet, registers the pool, and times the same template
/// frames through the router and straight to shard 0. Every shard holds
/// every template (the router registers on all live shards) and a memo
/// hit costs the same on either, so the direct baseline uses one shard
/// for the whole sequence.
pub fn replay(seed: u64) -> Result<Hop, String> {
    let pool: Vec<Request> = (0..POOL)
        .map(|i| Request::CheckSource {
            source: peano_program(&pool_family(i)),
        })
        .collect();
    let ops = fleet_ops(seed, FRAMES);
    let fleet = Fleet::start(SHARDS, |_| engine_config()).map_err(|e| format!("fleet: {e}"))?;
    let mut routed = connect(fleet.addr)?;
    let (digests, registered) = register_pool(&mut routed, &pool)?;
    let (routed_us, routed_ok) = us_per_frame(&mut routed, &digests, &ops)?;
    drop(routed);
    let mut direct = connect(fleet.shards[0].addr)?;
    let direct_warm = warm(&mut direct, &digests)?;
    let (direct_us, direct_ok) = us_per_frame(&mut direct, &digests, &ops)?;
    drop(direct);
    fleet.stop().map_err(|e| format!("fleet stop: {e}"))?;
    Ok(Hop {
        routed_us,
        direct_us,
        ok: registered && routed_ok && direct_warm && direct_ok,
    })
}
