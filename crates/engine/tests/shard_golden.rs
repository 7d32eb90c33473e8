//! Golden-key regression: the sharded proof cache is **observationally
//! identical** to a single-shard one.
//!
//! The session's `ProofCache` was split into digest-keyed `RwLock`
//! buckets to kill a serialization point under the task-DAG scheduler.
//! Sharding must be invisible everywhere outside the lock layer: okeys
//! are FNV-64 over content (never over shard layout), `export()` sorts
//! globally, and the `FPOPSNAP` codec sees only the sorted entry list.
//! These tests pin that contract alongside the four golden-key tests in
//! `fpop::stable` and `fpop::session`:
//!
//! * building the same lattice subset against `with_shards(1)` and
//!   `with_shards(16)` sessions yields equal `ExportEntry` lists, equal
//!   per-entry okeys, and byte-identical `FPOPSNAP` snapshots;
//! * a snapshot encoded from a 16-shard session round-trips through a
//!   1-shard session (decode → import → re-export → re-encode) without
//!   changing a byte.

use engine::snapshot::{decode_snapshot, encode_snapshot};
use families_stlc::{lattice, Feature};
use fpop::session::{ExportEntry, Session};
use fpop::universe::FamilyUniverse;

/// Build the {fix, prod} sublattice (4 variants, both mixin axes) against
/// a session with the given shard count and export its entries.
fn build_and_export(shards: usize) -> Vec<ExportEntry> {
    let mut u = FamilyUniverse::with_session(Session::with_shards(shards));
    let plan = lattice::Plan::new(&[Feature::Fix, Feature::Prod]).unwrap();
    lattice::build(&mut u, &plan, fpop::sched::default_workers())
        .unwrap_or_else(|e| panic!("lattice build on {shards}-shard session failed: {e:?}"));
    u.session().export()
}

fn okeys(entries: &[ExportEntry]) -> Vec<u64> {
    entries
        .iter()
        .map(|e| match e {
            ExportEntry::Theorem { okey, .. } | ExportEntry::Case { okey, .. } => *okey,
        })
        .collect()
}

/// Same elaboration, 1 shard vs 16 shards: identical export entries,
/// identical okeys, byte-identical snapshot encodings.
#[test]
fn sharded_and_unsharded_sessions_export_identical_snapshots() {
    let uni = build_and_export(1);
    let many = build_and_export(16);
    assert!(!uni.is_empty(), "lattice build cached nothing");
    assert_eq!(okeys(&uni), okeys(&many), "okeys depend on shard count");
    assert_eq!(uni, many, "export entries depend on shard count");
    assert_eq!(
        encode_snapshot(&uni),
        encode_snapshot(&many),
        "FPOPSNAP bytes depend on shard count"
    );
}

/// A snapshot from a 16-shard session survives a round-trip through a
/// 1-shard session byte-for-byte: decode, import into the differently
/// sharded cache, re-export, re-encode.
#[test]
fn snapshot_round_trips_across_shard_counts_byte_identically() {
    let entries = build_and_export(16);
    let bytes = encode_snapshot(&entries);

    let decoded = decode_snapshot(&bytes).expect("snapshot decodes");
    let target = Session::with_shards(1);
    let imported = target.import(decoded);
    assert_eq!(imported, entries.len(), "import dropped entries");
    let rebytes = encode_snapshot(&target.export());
    assert_eq!(bytes, rebytes, "round-trip through 1 shard changed bytes");
}
