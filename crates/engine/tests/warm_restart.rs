//! The warm-restart acceptance property (ISSUE: PR 2 tentpole).
//!
//! Engine A builds the full 15-variant lattice and snapshots on
//! shutdown. Engine B — a fresh process-equivalent (new session, new
//! interner state is simulated by structural re-bucketing on import) —
//! loads the snapshot and rebuilds the same lattice with **zero cache
//! misses and zero inserts**, and a combined `CheckLedger` that
//! `same_counts`-matches A's *warm in-process rebuild* ledger.
//!
//! Why "warm rebuild", not A's cold build: a cold build *checks* each
//! theorem unit; any warm build (in-process or from snapshot) *shares*
//! it. `same_counts` compares checked/shared per unit, so the honest
//! baseline for B's snapshot-warm ledger is A's in-process-warm ledger —
//! the claim being that a snapshot restores the cache so faithfully that
//! a restart is indistinguishable from never having exited.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use engine::{Engine, EngineConfig, Request, Response};
use modsys::CheckLedger;

static NEXT: AtomicU32 = AtomicU32::new(0);

/// A unique snapshot path per test (tests run concurrently).
fn snap_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fpop-warm-restart-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    dir.join("proofs.snap")
}

fn cfg(path: &std::path::Path) -> EngineConfig {
    EngineConfig {
        workers: 2,
        snapshot_path: Some(path.to_path_buf()),
        ..EngineConfig::default()
    }
}

fn build_full(engine: &Engine) -> CheckLedger {
    match engine.run(Request::lattice_full()).expect("lattice builds") {
        Response::Lattice { report, ledger } => {
            // Base STLC + 15 feature combinations (the Venn diagram).
            assert_eq!(report.rows.len(), 16, "base + 15 Venn variants");
            ledger.merged().clone()
        }
        other => panic!("expected Lattice response, got {other:?}"),
    }
}

#[test]
fn warm_restart_replays_zero_kernel_work() {
    let path = snap_path("ok");

    // --- First life: engine A -------------------------------------------
    let a = Engine::start(cfg(&path));
    assert_eq!(a.warm_loaded(), 0, "no snapshot yet: cold start");
    assert!(a.load_error().is_none());

    let cold_ledger = build_full(&a);
    assert!(cold_ledger.checked_count() > 0, "cold build checks proofs");
    let cold_stats = a.stats();
    assert!(cold_stats.misses > 0, "cold build misses the empty cache");
    assert!(cold_stats.cached_proofs > 0);

    // A's *in-process* warm rebuild: the baseline B must reproduce.
    let warm_ledger_a = build_full(&a);
    assert_eq!(
        warm_ledger_a.cache_misses(),
        0,
        "in-process warm rebuild is fully cached"
    );
    assert!(
        !warm_ledger_a.same_counts(&cold_ledger),
        "cold vs warm differ (checked units become shared)"
    );

    let bytes = a
        .shutdown()
        .expect("shutdown checkpoints")
        .expect("path configured");
    assert!(bytes > 0, "snapshot has content");
    assert!(path.exists());

    // --- Second life: engine B ------------------------------------------
    let b = Engine::start(cfg(&path));
    assert!(b.load_error().is_none(), "snapshot loads cleanly");
    assert_eq!(
        b.warm_loaded() as u64,
        cold_stats.cached_proofs,
        "every cached proof survives the restart"
    );
    let pre = b.stats();
    assert_eq!(pre.hits, 0);
    assert_eq!(pre.misses, 0);
    assert_eq!(pre.inserts, 0, "imports are not counted as inserts");
    assert_eq!(pre.cached_proofs, cold_stats.cached_proofs);

    let warm_ledger_b = build_full(&b);
    let post = b.stats();
    assert_eq!(post.misses, 0, "warm restart: zero cache misses");
    assert_eq!(
        post.inserts, 0,
        "warm restart: zero kernel re-checks / inserts"
    );
    assert!(post.hits > 0);

    assert!(
        warm_ledger_b.same_counts(&warm_ledger_a),
        "snapshot-warm ledger must match the in-process-warm ledger\nA: checked={} shared={} hits={}\nB: checked={} shared={} hits={}",
        warm_ledger_a.checked_count(),
        warm_ledger_a.shared_count(),
        warm_ledger_a.cache_hits(),
        warm_ledger_b.checked_count(),
        warm_ledger_b.shared_count(),
        warm_ledger_b.cache_hits(),
    );

    b.shutdown().unwrap();
    if let Some(dir) = path.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn corrupted_snapshot_degrades_to_cold_start() {
    let path = snap_path("corrupt");

    // Produce a valid snapshot first.
    let a = Engine::start(cfg(&path));
    build_full(&a);
    a.shutdown().unwrap();
    assert!(path.exists());

    // Flip one byte in the middle of the file.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // B must reject loudly (load_error) and proceed cold — no panic.
    let b = Engine::start(cfg(&path));
    assert!(
        b.load_error().is_some(),
        "corrupt snapshot must be rejected, not silently accepted"
    );
    assert_eq!(b.warm_loaded(), 0);
    assert_eq!(b.stats().cached_proofs, 0, "cache starts empty");

    // The engine still works: the build simply runs cold.
    build_full(&b);
    let stats = b.stats();
    assert!(stats.misses > 0, "cold rebuild misses as on first ever run");
    assert!(stats.cached_proofs > 0);

    // B's shutdown rewrites a *valid* snapshot over the corrupt one.
    let rewritten = b.shutdown().unwrap().unwrap();
    assert!(rewritten > 0);
    assert!(
        engine::load_snapshot(&path).is_ok(),
        "snapshot healed on exit"
    );
    if let Some(dir) = path.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn stale_version_snapshot_is_rejected_loudly() {
    let path = snap_path("stale");
    let a = Engine::start(cfg(&path));
    build_full(&a);
    a.shutdown().unwrap();

    // Bump the format version in place and re-seal the checksum, mimicking
    // a snapshot from a newer build.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = engine::snapshot::VERSION as u8 + 1;
    let n = bytes.len();
    let mut h = fpop::stable::Fnv64::new();
    h.write(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&h.finish().to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let b = Engine::start(cfg(&path));
    match b.load_error() {
        Some(engine::SnapshotError::BadVersion(v)) => {
            assert_eq!(*v, engine::snapshot::VERSION + 1)
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
    assert_eq!(b.warm_loaded(), 0);
    b.shutdown().unwrap();
    if let Some(dir) = path.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Store hygiene: a shard that checkpoints forever must not grow an
/// unbounded diff chain. Past `compact_chain_at` diffs the next
/// checkpoint republishes a compacted full segment, and catch-up
/// count-skips the superseded chain bases instead of re-importing them.
#[test]
fn long_diff_chains_compact_and_catch_up_skips_superseded() {
    use engine::SharedStore;
    use families_stlc::Feature;

    let dir = snap_path("compact").parent().unwrap().to_path_buf();
    let e = Engine::start(EngineConfig {
        workers: 1,
        snapshot_path: None,
        shared_store: Some(dir.clone()),
        compact_chain_at: 2,
        ..EngineConfig::default()
    });
    let lattice = |f: Feature| Request::BuildLattice { features: vec![f] };
    e.run(lattice(Feature::Fix)).unwrap();
    e.checkpoint().unwrap(); // full base
    e.run(lattice(Feature::Prod)).unwrap();
    e.checkpoint().unwrap(); // diff 1
    e.run(lattice(Feature::Sum)).unwrap();
    e.checkpoint().unwrap(); // diff 2 — chain now at the threshold
    e.run(lattice(Feature::Isorec)).unwrap();
    e.checkpoint().unwrap(); // compaction: full segment, chain resets
    let proofs = e.stats().cached_proofs;
    e.shutdown().unwrap();

    let diffs_on_disk = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("diff-"))
        .count();
    assert_eq!(diffs_on_disk, 2, "compaction stops the chain from growing");

    let store = SharedStore::open(&dir).unwrap();
    let s = fpop::Session::new();
    let got = store.catch_up(&s);
    assert_eq!(
        got.superseded, 2,
        "both consumed chain bases are subset-skipped"
    );
    assert_eq!(
        s.cached_proofs() as u64,
        proofs,
        "catch-up restores everything the shard ever proved"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_midflight_equals_shutdown_snapshot() {
    let path = snap_path("checkpoint");
    let a = Engine::start(cfg(&path));
    build_full(&a);
    let ck = a.checkpoint().unwrap().unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(ck, on_disk.len());
    // Shutdown rewrites the same (deterministically ordered) content.
    a.shutdown().unwrap();
    let on_exit = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, on_exit, "export order is deterministic");
    if let Some(dir) = path.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}
