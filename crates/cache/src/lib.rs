//! A persistent, content-addressed cache of finished residuals.
//!
//! The paper's economics — build the generating extension once,
//! specialise many times — only fully pay off when finished residuals
//! *persist*: a warm `mspec spec` run, a warm `link-spec` run, or a
//! daemon restarted against the same cache directory should skip the
//! engine entirely. This crate provides that cross-session tier:
//!
//! * **Keys** are exactly the daemon's memo keys (see [`spec_key`]):
//!   the program identity (`src:<fnv>` for inline source,
//!   `dir:<path>@<identity>` for artefact directories, where the
//!   identity — [`dir_identity`] — hashes the checksums of every `.bti`
//!   and `.gx` in the directory), the entry point, the division, the
//!   budget, and the strategy. Because the identity embeds every
//!   artefact's checksum, a rebuilt interface *or* genext simply
//!   *orphans* old entries, and callers must take the identity *before*
//!   linking the directory or probing the cache.
//! * **Entries** are checksummed artefacts (the `.gx`/`.bti` framing
//!   from `mspec-cogen`) named by the FNV-1a hash of their key, written
//!   through [`mspec_cogen::atomic_write`]: a crash mid-write never
//!   leaves a torn entry at the final path, and a torn, truncated or
//!   bit-flipped entry is a *miss* (rewritten by the next store), never
//!   served and never fatal.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mspec_cogen::files::{decode_artefact, encode_artefact, gx_header_checksum};
use mspec_cogen::{atomic_write, bti_fingerprint, fnv64};
use mspec_genext::{OnExhaustion, SpecStats, Strategy};
use mspec_lang::{FromJson, Json, ToJson};
use std::path::{Path, PathBuf};

/// Artefact kind token for on-disk residual cache entries.
pub const RESID_KIND: &str = "resid";

/// One finished specialisation, as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The full memo key the entry was stored under (verified on read,
    /// so a filename-hash collision can never serve the wrong residual).
    pub key: String,
    /// Residual entry function, `Module.function`.
    pub entry: String,
    /// Residual program concrete syntax, byte-identical to what the
    /// engine produced.
    pub residual: String,
    /// The original run's engine counters.
    pub stats: SpecStats,
}

impl CacheEntry {
    /// On-disk payload: one compact-JSON header line (key, entry,
    /// stats), then the residual text *raw*. A warm read therefore only
    /// JSON-parses the small header — never the residual, which
    /// dominates the entry's size — and the residual round-trips
    /// byte-identically by construction.
    pub fn encode_payload(&self) -> String {
        let header = Json::obj([
            ("key", Json::str(self.key.as_str())),
            ("entry", Json::str(self.entry.as_str())),
            ("stats", self.stats.to_json_value()),
        ]);
        format!("{}\n{}", header.write_compact(), self.residual)
    }

    /// Inverse of [`CacheEntry::encode_payload`]; `None` on any
    /// malformed payload (the caller treats that as a cache miss).
    pub fn decode_payload(payload: &str) -> Option<CacheEntry> {
        let (header, residual) = payload.split_once('\n')?;
        let j = Json::parse(header).ok()?;
        Some(CacheEntry {
            key: j.get("key").ok()?.as_str().ok()?.to_string(),
            entry: j.get("entry").ok()?.as_str().ok()?.to_string(),
            residual: residual.to_string(),
            stats: SpecStats::from_json_value(j.get("stats").ok()?).ok()?,
        })
    }
}

/// An on-disk residual cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskCache { root })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The content-addressed file an entry for `key` lives at.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{:016x}.resid", fnv64(key.as_bytes())))
    }

    /// Looks up a finished residual. *Any* failure — missing file, torn
    /// or truncated write, bit flip, malformed payload, or a stored key
    /// that does not match (filename-hash collision) — is a miss, never
    /// an error: the next [`DiskCache::put`] simply rewrites the entry.
    pub fn get(&self, key: &str) -> Option<CacheEntry> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (payload, _) = decode_artefact(RESID_KIND, &text).ok()?;
        let entry = CacheEntry::decode_payload(payload)?;
        if entry.key != key {
            return None;
        }
        Some(entry)
    }

    /// Stores a finished residual, atomically (write-to-temp + rename).
    /// Overwrites any previous entry for the same key — including a
    /// corrupt one.
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write.
    pub fn put(&self, entry: &CacheEntry) -> std::io::Result<PathBuf> {
        let path = self.entry_path(&entry.key);
        let payload = entry.encode_payload();
        atomic_write(&path, encode_artefact(RESID_KIND, &payload))?;
        Ok(path)
    }

    /// Number of entries currently on disk (corrupt ones included —
    /// they still occupy their slot until rewritten).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "resid"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prunes the cache: entries whose modification time is older than
    /// `max_age_secs` are removed, and if the surviving entries still
    /// exceed `max_bytes`, the oldest are removed first until the total
    /// fits. `None` disables the corresponding bound, so
    /// `gc(None, None)` only reports sizes. Content-addressing makes
    /// removal always safe — a pruned entry is simply a future miss,
    /// rebuilt and re-stored by the next request for its key.
    ///
    /// Unreadable entries are skipped (the next `put` rewrites them);
    /// a failed removal is skipped too, so a concurrent reader or a
    /// second GC racing this one is harmless.
    ///
    /// # Errors
    ///
    /// I/O errors listing the cache directory. Per-entry stat/remove
    /// failures are *not* errors.
    pub fn gc(
        &self,
        max_age_secs: Option<u64>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<GcReport> {
        let now = std::time::SystemTime::now();
        // (age_secs, bytes, path), oldest first.
        let mut entries: Vec<(u64, u64, PathBuf)> = Vec::new();
        for item in std::fs::read_dir(&self.root)? {
            let Ok(item) = item else { continue };
            let path = item.path();
            if path.extension().is_none_or(|x| x != "resid") {
                continue;
            }
            let Ok(meta) = item.metadata() else { continue };
            let age = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .map_or(0, |d| d.as_secs());
            entries.push((age, meta.len(), path));
        }
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));

        let mut report = GcReport {
            scanned: entries.len(),
            bytes_before: entries.iter().map(|e| e.1).sum(),
            ..GcReport::default()
        };
        let mut live_bytes = report.bytes_before;
        for (age, bytes, path) in &entries {
            let expired = max_age_secs.is_some_and(|max| *age > max);
            let oversized = max_bytes.is_some_and(|max| live_bytes > max);
            if !(expired || oversized) {
                // Entries are oldest-first, so once one survives both
                // bounds every younger entry does too.
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.bytes_removed += bytes;
                live_bytes = live_bytes.saturating_sub(*bytes);
            }
        }
        report.bytes_after = live_bytes;
        Ok(report)
    }
}

/// What one [`DiskCache::gc`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// `.resid` entries found on disk.
    pub scanned: usize,
    /// Entries removed (by age or to meet the byte bound).
    pub removed: usize,
    /// Total entry bytes before the pass.
    pub bytes_before: u64,
    /// Bytes freed by removals.
    pub bytes_removed: u64,
    /// Total entry bytes surviving the pass.
    pub bytes_after: u64,
}

/// Memo identity of an inline program: the FNV-1a hash of its source
/// text. Identical to the daemon's, so CLI and daemon share entries.
pub fn inline_source_key(src: &str) -> String {
    format!("src:{:016x}", fnv64(src.as_bytes()))
}

/// Memo identity of an artefact directory: path plus its
/// [`dir_identity`], so rebuilding any interface or genext yields a
/// fresh key instead of hitting pre-change entries.
pub fn dir_source_key(dir: &str, identity: u64) -> String {
    format!("dir:{dir}@{identity:016x}")
}

/// An artefact directory's identity: the FNV-1a hash of every `.bti`
/// and `.gx` file's name and fingerprint, in name order. A `.bti`
/// contributes its verified checksum ([`bti_fingerprint`]), a `.gx`
/// the checksum its header records ([`gx_header_checksum`]); nothing is
/// decoded. The identity therefore changes whenever any interface or
/// genext is rewritten with new content, or an artefact appears or
/// vanishes — which makes every cache entry keyed on the old identity
/// unreachable. An unreadable or corrupt artefact counts with a marker
/// in place of its fingerprint.
///
/// This is the one staleness check shared by `mspec link-spec
/// --cache-dir`, the daemon's memo and its disk tier. A caller must take
/// the identity *before* linking the directory: a rebuild that lands in
/// between then files residuals under the identity the directory has
/// just left, never under the one it now has.
pub fn dir_identity(dir: impl AsRef<Path>) -> u64 {
    let mut files: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let fp = match path.extension().and_then(|e| e.to_str()) {
            Some("bti") => bti_fingerprint(&path),
            Some("gx") => gx_header_checksum(&path),
            _ => continue,
        };
        let fp = fp.map_or_else(|_| "?".to_string(), |fp| format!("{fp:016x}"));
        files.push((entry.file_name().to_string_lossy().into_owned(), fp));
    }
    files.sort();
    let mut desc = String::new();
    for (name, fp) in &files {
        desc.push_str(&format!("{name}={fp};"));
    }
    fnv64(desc.as_bytes())
}

/// The full memo key of one specialisation request — field for field
/// the daemon's memo key, so the CLI, the daemon's in-memory memo and
/// the disk cache all address the same entries.
pub fn spec_key(
    source: &str,
    entry: &str,
    args: &str,
    fuel: Option<u64>,
    max_spec: Option<usize>,
    on_exhaustion: OnExhaustion,
    strategy: Strategy,
) -> String {
    format!(
        "{source}|{entry}|{args}|{}|{}|{on_exhaustion:?}|{strategy:?}",
        fuel.unwrap_or(0),
        max_spec.unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mspec-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn entry(key: &str) -> CacheEntry {
        CacheEntry {
            key: key.to_string(),
            entry: "Power.power_5".to_string(),
            residual: "module Power where\npower_5 x = x * x\n".to_string(),
            stats: SpecStats { steps: 42, specialisations: 2, ..SpecStats::default() },
        }
    }

    #[test]
    fn put_then_get_roundtrips() {
        let dir = tmpdir("roundtrip");
        let c = DiskCache::open(&dir).unwrap();
        assert!(c.is_empty());
        let e = entry("src:abc|Power.power|S:5,D|0|0|Error|BreadthFirst");
        let path = c.put(&e).unwrap();
        assert!(path.exists());
        assert_eq!(c.get(&e.key), Some(e.clone()));
        assert_eq!(c.len(), 1);
        // A different key is a miss, not the same slot.
        assert!(c.get("some-other-key").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_rewritable() {
        let dir = tmpdir("corrupt");
        let c = DiskCache::open(&dir).unwrap();
        let e = entry("src:abc|M.f|D|0|0|Error|BreadthFirst");
        let path = c.put(&e).unwrap();
        // Truncated at several depths, then garbage, then empty.
        let clean = fs::read(&path).unwrap();
        for keep in [0, 1, 10, clean.len() / 2, clean.len() - 1] {
            fs::write(&path, &clean[..keep]).unwrap();
            assert!(c.get(&e.key).is_none(), "truncation at {keep} must miss");
        }
        fs::write(&path, "not an artefact at all").unwrap();
        assert!(c.get(&e.key).is_none());
        // The next store repairs the slot.
        c.put(&e).unwrap();
        assert_eq!(c.get(&e.key), Some(e));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_key_mismatch_is_a_miss() {
        let dir = tmpdir("collision");
        let c = DiskCache::open(&dir).unwrap();
        let e = entry("the-real-key");
        // Simulate a filename-hash collision: a valid entry for another
        // key sitting at this key's path.
        let imposter_path = c.entry_path("victim-key");
        fs::write(&imposter_path, encode_artefact(RESID_KIND, &e.encode_payload())).unwrap();
        assert!(c.get("victim-key").is_none(), "stored key must be verified");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_embed_every_request_dimension() {
        let base = spec_key("src:x", "M.f", "S:1,D", None, None, OnExhaustion::Error, Strategy::BreadthFirst);
        for other in [
            spec_key("src:y", "M.f", "S:1,D", None, None, OnExhaustion::Error, Strategy::BreadthFirst),
            spec_key("src:x", "M.g", "S:1,D", None, None, OnExhaustion::Error, Strategy::BreadthFirst),
            spec_key("src:x", "M.f", "S:2,D", None, None, OnExhaustion::Error, Strategy::BreadthFirst),
            spec_key("src:x", "M.f", "S:1,D", Some(9), None, OnExhaustion::Error, Strategy::BreadthFirst),
            spec_key("src:x", "M.f", "S:1,D", None, Some(3), OnExhaustion::Error, Strategy::BreadthFirst),
            spec_key("src:x", "M.f", "S:1,D", None, None, OnExhaustion::Generalise, Strategy::BreadthFirst),
            spec_key("src:x", "M.f", "S:1,D", None, None, OnExhaustion::Error, Strategy::DepthFirst),
        ] {
            assert_ne!(base, other);
        }
    }

    /// Backdates an entry's mtime by `secs` so GC age bounds can be
    /// tested without sleeping.
    fn backdate(path: &Path, secs: u64) {
        let f = fs::File::options().append(true).open(path).unwrap();
        let then = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
        f.set_modified(then).unwrap();
    }

    #[test]
    fn gc_without_bounds_only_reports() {
        let dir = tmpdir("gc-report");
        let c = DiskCache::open(&dir).unwrap();
        let e = entry("k1");
        c.put(&e).unwrap();
        let r = c.gc(None, None).unwrap();
        assert_eq!(r.scanned, 1);
        assert_eq!(r.removed, 0);
        assert!(r.bytes_before > 0);
        assert_eq!(r.bytes_after, r.bytes_before);
        assert_eq!(c.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_prunes_by_age() {
        let dir = tmpdir("gc-age");
        let c = DiskCache::open(&dir).unwrap();
        let old = entry("old-key");
        let fresh = entry("fresh-key");
        let old_path = c.put(&old).unwrap();
        c.put(&fresh).unwrap();
        backdate(&old_path, 3600);
        let r = c.gc(Some(600), None).unwrap();
        assert_eq!((r.scanned, r.removed), (2, 1));
        assert!(c.get(&old.key).is_none(), "expired entry must be gone");
        assert_eq!(c.get(&fresh.key), Some(fresh));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_prunes_oldest_first_to_meet_byte_bound() {
        let dir = tmpdir("gc-bytes");
        let c = DiskCache::open(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            let p = c.put(&entry(key)).unwrap();
            // Distinct ages: "a" oldest, "c" newest.
            backdate(&p, 300 - 100 * i as u64);
            paths.push(p);
        }
        let total: u64 = paths.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let one = total / 3;
        // Keep roughly one entry's worth: the two oldest must go.
        let r = c.gc(None, Some(one + 1)).unwrap();
        assert_eq!((r.scanned, r.removed), (3, 2));
        assert!(r.bytes_after <= one + 1);
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some(), "newest entry must survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_identity_tracks_interface_changes() {
        let dir = tmpdir("identity");
        fs::create_dir_all(&dir).unwrap();
        let id_empty = dir_identity(&dir);
        // A real .bti written through the cogen changes the identity.
        let rp = mspec_lang::resolve::resolve(
            mspec_lang::parser::parse_program("module A where\nf x = x + 1\n").unwrap(),
        )
        .unwrap();
        let m = rp.program().modules[0].clone();
        mspec_cogen::files::cogen_module(&m, &dir, &std::collections::BTreeSet::new()).unwrap();
        let id_one = dir_identity(&dir);
        assert_ne!(id_empty, id_one);
        // Same artefacts, same identity.
        assert_eq!(id_one, dir_identity(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `mspec link-spec DIR --entry Main.main --args D --cache-dir`:
    /// the residual and whether the cache answered.
    fn link_spec(dir: &Path, cache: &DiskCache) -> (String, bool) {
        let key = spec_key(
            &dir_source_key(&dir.to_string_lossy(), dir_identity(dir)),
            "Main.main",
            "D",
            None,
            None,
            OnExhaustion::Error,
            Strategy::BreadthFirst,
        );
        if let Some(hit) = cache.get(&key) {
            return (hit.residual, true);
        }
        let gen = mspec_cogen::link_dir(dir).unwrap();
        let mut engine = mspec_genext::Engine::new(&gen, mspec_genext::EngineOptions::default());
        let residual = engine
            .specialise(
                &mspec_lang::QualName::new("Main", "main"),
                vec![mspec_genext::SpecArg::Dynamic],
            )
            .unwrap();
        let text = mspec_lang::pretty::pretty_program(&residual.program);
        let entry = CacheEntry {
            key,
            entry: residual.entry.to_string(),
            residual: text.clone(),
            stats: *engine.stats(),
        };
        cache.put(&entry).unwrap();
        (text, false)
    }

    /// A rebuild that changes a function body but not its interface
    /// rewrites only the `.gx`; the identity must still move, so a warm
    /// link-spec answers with the new residual, not the cached old one.
    #[test]
    fn body_only_rebuild_changes_identity_and_misses() {
        use mspec_cogen::build::{build, BuildOptions};
        let base = tmpdir("body-only");
        let (src, out) = (base.join("src"), base.join("out"));
        fs::create_dir_all(&src).unwrap();
        let power = |step: &str| {
            format!("module Power where\npower n x = if n == 1 then x else {step}\n")
        };
        fs::write(src.join("Power.mspec"), power("x * power (n - 1) x")).unwrap();
        fs::write(src.join("Main.mspec"), "module Main where\nimport Power\nmain y = power 3 y\n")
            .unwrap();
        build(&src, &out, &BuildOptions::default()).unwrap();
        // Age both sources past their artefacts: a source written in the
        // same file-time tick as its build counts as stale.
        for f in ["Power.mspec", "Main.mspec"] {
            let then = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
            fs::File::options().append(true).open(src.join(f)).unwrap().set_modified(then).unwrap();
        }
        let cache = DiskCache::open(base.join("cache")).unwrap();
        let (cold, hit) = link_spec(&out, &cache);
        assert!(!hit);
        assert!(cold.contains("main y = y * (y * y)"), "{cold}");
        assert_eq!(link_spec(&out, &cache), (cold, true));
        let before = dir_identity(&out);
        let bti_before = fs::read(out.join("Power.bti")).unwrap();

        // Rewrite Power's body only.
        fs::write(src.join("Power.mspec"), power("power (n - 1) x + x")).unwrap();
        let report = build(&src, &out, &BuildOptions::default()).unwrap();
        assert_eq!(report.rebuilt(), 1, "only Power rebuilds");
        assert_eq!(fs::read(out.join("Power.bti")).unwrap(), bti_before, "same interface");
        assert_ne!(dir_identity(&out), before, "a rewritten genext must move the identity");

        let (fresh, hit) = link_spec(&out, &cache);
        assert!(!hit, "the pre-rebuild residual must not be served");
        assert!(fresh.contains("main y = y + y + y"), "{fresh}");
        assert_eq!(link_spec(&out, &cache), (fresh, true), "warm answer equals the cold one");
        let _ = fs::remove_dir_all(&base);
    }
}
