//! The fleet's shared **content-addressed store**: the third cache tier.
//!
//! Per shard the proof cache is tiered: the in-memory sharded
//! [`fpop::Session`] (tier 1), the shard's local `FPOPSNAP` snapshot file
//! (tier 2), and — behind this module — one store *directory* shared by
//! the whole fleet (tier 3). Shards publish into it at checkpoint time
//! and replay from it at boot, so a restarted or newly added replica
//! starts warm with everything any shard ever proved.
//!
//! ## Layout
//!
//! ```text
//! store/
//!   seg-<digest:016x>.fpopsnap    full snapshot segment; <digest> is the
//!                                 FNV-1a 64 of the complete byte image
//!   diff-<digest:016x>.fpopdiff   FPOPDIFF delta; <digest> is the FNV-1a
//!                                 64 of the complete diff byte image
//! ```
//!
//! Both kinds are *content addressed*: the filename commits to the exact
//! bytes, publishing is idempotent (same content → same name → skip), and
//! a reader verifies the digest before trusting a file, so a torn or
//! bit-rotted segment is skipped rather than imported.
//!
//! ## Catch-up
//!
//! [`SharedStore::catch_up`] loads every valid full segment, then applies
//! diffs to fixpoint: a diff is applicable once its base digest names a
//! materialized image, and applying it (via [`crate::diff::apply_diff`])
//! materializes a new image whose digest may in turn unlock further
//! diffs. Every entry of every materialized image is imported —
//! [`fpop::Session::import`] de-duplicates, so overlap is free. Anything
//! unreadable, corrupt, or with an unresolvable base is counted and
//! skipped: the store can only *add* warmth, never prevent a boot.
//!
//! ## Trust model
//!
//! A store directory is trusted exactly like a local snapshot or a
//! compiled Coq `.vo` file: imported proofs are admitted without replay,
//! and the FNV-64 trailers guard against accidental corruption only —
//! they are not MACs. Keep the store under the same filesystem trust as
//! the `fpopd` binary itself.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fpop::{ExportEntry, Session};

use crate::diff;
use crate::snapshot;

/// A handle on one shared store directory.
#[derive(Clone, Debug)]
pub struct SharedStore {
    dir: PathBuf,
}

/// What [`SharedStore::catch_up`] accomplished, for the boot log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Entries newly admitted into the session.
    pub loaded: usize,
    /// Full segments materialized.
    pub segments: usize,
    /// Diffs successfully applied onto a materialized base.
    pub diffs_applied: usize,
    /// Files skipped: unreadable, corrupt, digest mismatch, or a diff
    /// whose base never materialized. Skipping is the full-restore
    /// fallback — sound, just colder.
    pub skipped: usize,
    /// Segments not imported because a successfully applied diff proved
    /// them a strict subset of another materialized image (a diff's merged
    /// output is base ∪ added). Decoding and importing them would only
    /// re-offer entries the superset already admitted, so catch-up time
    /// stays proportional to live store content rather than chain length.
    pub superseded: usize,
}

impl SharedStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SharedStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SharedStore { dir })
    }

    /// The store directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seg_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("seg-{digest:016x}.fpopsnap"))
    }

    fn diff_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("diff-{digest:016x}.fpopdiff"))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if path.exists() {
            // Content addressed: same name means same bytes already
            // published (by us or a sibling shard).
            return Ok(());
        }
        // One temp name per writer: shards of one process may publish the
        // same segment concurrently (a fleet checkpoint fans out at once).
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{n}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Publishes a full snapshot segment; returns its content digest (the
    /// base future diffs will pin). Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn publish_base(&self, entries: &[ExportEntry]) -> std::io::Result<u64> {
        let bytes = snapshot::encode_snapshot(entries);
        let digest = diff::snapshot_digest(&bytes);
        self.write_atomic(&self.seg_path(digest), &bytes)?;
        Ok(digest)
    }

    /// Publishes a delta against the segment with digest `base`; returns
    /// the digest of the *merged* image (base ∪ added), i.e. the base the
    /// next diff in the chain should pin. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates write failures; `InvalidData` if the named base segment
    /// is not in the store or unreadable (publish a full base instead).
    pub fn publish_diff(&self, base: u64, added: &[ExportEntry]) -> std::io::Result<u64> {
        let base_bytes = fs::read(self.seg_path(base))?;
        let bytes = diff::encode_diff(base, added);
        let merged = diff::apply_diff(&base_bytes, &bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let diff_digest = fpop::stable::fnv64_bytes(&bytes);
        self.write_atomic(&self.diff_path(diff_digest), &bytes)?;
        // Materialize the merged image as a segment too: it is the next
        // diff's base, and catch-up then never depends on chain order.
        let merged_digest = diff::snapshot_digest(&merged);
        self.write_atomic(&self.seg_path(merged_digest), &merged)?;
        Ok(merged_digest)
    }

    /// Replays the whole store into `session`: every valid segment, plus
    /// every diff applicable (transitively) to a materialized base.
    pub fn catch_up(&self, session: &Session) -> CatchUp {
        let mut out = CatchUp::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(_) => return out,
        };
        // digest → full snapshot byte image.
        let mut images: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut diffs: Vec<Vec<u8>> = Vec::new();
        for ent in entries.flatten() {
            let path = ent.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            if let Some(digest) = parse_addressed(name, "seg-", ".fpopsnap") {
                match fs::read(&path) {
                    Ok(bytes) if diff::snapshot_digest(&bytes) == digest => {
                        images.insert(digest, bytes);
                    }
                    _ => out.skipped += 1,
                }
            } else if let Some(digest) = parse_addressed(name, "diff-", ".fpopdiff") {
                match fs::read(&path) {
                    Ok(bytes) if fpop::stable::fnv64_bytes(&bytes) == digest => {
                        diffs.push(bytes);
                    }
                    _ => out.skipped += 1,
                }
            }
            // Foreign filenames (tmp leftovers included) are ignored.
        }
        out.segments = images.len();
        // Apply diffs to fixpoint: each success materializes a new image
        // that may be some other diff's base. A consumed base is recorded
        // as superseded — its entries are a subset of the merged image.
        let mut superseded: std::collections::HashSet<u64> = std::collections::HashSet::new();
        loop {
            let mut progressed = false;
            diffs.retain(|bytes| {
                let Ok((base, _)) = diff::decode_diff(bytes) else {
                    out.skipped += 1;
                    return false;
                };
                let Some(base_bytes) = images.get(&base) else {
                    return true; // base not (yet) materialized — retry
                };
                match diff::apply_diff(base_bytes, bytes) {
                    Ok(merged) => {
                        images.insert(diff::snapshot_digest(&merged), merged);
                        superseded.insert(base);
                        out.diffs_applied += 1;
                        progressed = true;
                    }
                    Err(_) => out.skipped += 1,
                }
                false
            });
            if !progressed {
                break;
            }
        }
        // Diffs whose base never appeared: full-restore fallback (their
        // content is a subset of whatever full segment supersedes them,
        // or genuinely lost — either way, skipping is sound).
        out.skipped += diffs.len();
        for (digest, bytes) in &images {
            if superseded.contains(digest) {
                out.superseded += 1;
                continue;
            }
            if let Ok(entries) = snapshot::decode_snapshot(bytes) {
                out.loaded += session.import(entries);
            } else {
                out.skipped += 1;
            }
        }
        out
    }
}

/// Parses `<prefix><16 hex digits><suffix>` into the digest.
fn parse_addressed(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use objlang::syntax::{Prop, Term};
    use objlang::tactic::Tactic;

    fn entry(i: u64) -> ExportEntry {
        ExportEntry::Theorem {
            statement: Prop::eq(Term::lit(&format!("s{i}")), Term::lit(&format!("s{i}"))),
            script: vec![Tactic::Reflexivity],
            closed_world_key: None,
            okey: i,
        }
    }

    fn tmp_store(tag: &str) -> SharedStore {
        let dir = std::env::temp_dir().join(format!("fpop-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SharedStore::open(dir).unwrap()
    }

    #[test]
    fn publish_and_catch_up_roundtrip() {
        let store = tmp_store("rt");
        let base: Vec<ExportEntry> = (0..3).map(entry).collect();
        let digest = store.publish_base(&base).unwrap();
        // Idempotent republish.
        assert_eq!(store.publish_base(&base).unwrap(), digest);
        let chained = store.publish_diff(digest, &[entry(3), entry(4)]).unwrap();
        store.publish_diff(chained, &[entry(5)]).unwrap();

        let s = Session::new();
        let got = store.catch_up(&s);
        assert_eq!(got.loaded, 6);
        assert_eq!(got.diffs_applied, 2);
        assert_eq!(got.skipped, 0);
        assert_eq!(
            got.superseded, 2,
            "the two consumed chain bases never reach the importer"
        );
        assert_eq!(s.cached_proofs(), 6);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_files_are_skipped_not_fatal() {
        let store = tmp_store("bad");
        let digest = store.publish_base(&[entry(0)]).unwrap();
        // Corrupt a copy of the segment under a fresh (lying) address, and
        // drop an unresolvable diff plus raw garbage into the directory.
        let mut bytes =
            std::fs::read(store.dir().join(format!("seg-{digest:016x}.fpopsnap"))).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(store.dir().join("seg-00000000000000aa.fpopsnap"), &bytes).unwrap();
        std::fs::write(
            store
                .dir()
                .join(format!("diff-{:016x}.fpopdiff", 0x1234u64)),
            b"nonsense",
        )
        .unwrap();
        let orphan = crate::diff::encode_diff(0xdeadbeef, &[entry(7)]);
        std::fs::write(
            store.dir().join(format!(
                "diff-{:016x}.fpopdiff",
                fpop::stable::fnv64_bytes(&orphan)
            )),
            &orphan,
        )
        .unwrap();
        std::fs::write(store.dir().join("README"), b"not a segment").unwrap();

        let s = Session::new();
        let got = store.catch_up(&s);
        assert_eq!(got.loaded, 1, "only the honest segment imports");
        // Lying segment digest + garbage diff + orphan diff all skipped.
        assert_eq!(got.skipped, 3);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
