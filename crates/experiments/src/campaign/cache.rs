//! Content-addressed campaign result cache.
//!
//! Each completed job's rendered output is sealed into the PR-3
//! checksummed frame format ([`simt_sim::seal_frame`], distinct
//! `DMKRSLT` magic) and stored under a filename derived from the job's
//! identity fingerprint — an FNV-1a-64 over the kernel program bytes,
//! scenes, `GpuConfig`s, scale, and telemetry spec (see
//! [`crate::campaign::job_fingerprint`]). Repeated jobs return
//! instantly; any change to what a job would compute lands in a
//! different key and recomputes.
//!
//! A corrupt entry — truncated, bit-flipped, wrong magic, or stamped
//! with a different job identity than its filename claims — is never
//! trusted and never silently deleted: [`probe`] *quarantines* it
//! (renames it aside with a `.quarantined` suffix for post-mortem) and
//! reports a miss so the coordinator recomputes the job. A completed
//! campaign is byte-identical whether its results came from this cache,
//! a serial run, or sharded workers.

use simt_isa::codec::Codec;
use simt_sim::{open_frame, seal_frame, write_atomic};
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes of a sealed campaign result entry (cache entries and the
/// frames workers send share the format).
pub const RESULT_MAGIC: [u8; 8] = *b"DMKRSLT\0";

/// Result frame format version.
pub const RESULT_VERSION: u32 = 1;

simt_isa::record! {
    /// Identity + verdict carried in a result frame's meta section.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ResultMeta {
        /// Artifact name (`fig8`, `table3`, ...).
        pub artifact: String,
        /// Job identity fingerprint the result was computed under.
        pub fingerprint: u64,
        /// True when the job rendered successfully; false carries a
        /// job-level error message instead of output.
        pub ok: bool,
        /// Job-level error message (empty when `ok`).
        pub error: String,
    }
}

/// Seals a job result (or job-level error) into the checksummed result
/// frame.
pub fn seal_result(meta: &ResultMeta, output: &[u8]) -> Vec<u8> {
    seal_frame(&RESULT_MAGIC, RESULT_VERSION, &meta.to_bytes(), output)
}

/// Opens a sealed result frame, verifying magic, version, and checksum,
/// and returns `(meta, output bytes)`.
///
/// # Errors
///
/// Returns a human-readable description of why the frame is unusable
/// (corruption, truncation, malformed meta).
pub fn open_result(bytes: &[u8]) -> Result<(ResultMeta, Vec<u8>), String> {
    let (meta_bytes, output) = open_frame(&RESULT_MAGIC, RESULT_VERSION, bytes)
        .map_err(|e| format!("unusable result frame: {e}"))?;
    let meta =
        ResultMeta::from_bytes(&meta_bytes).map_err(|_| "malformed result meta".to_string())?;
    Ok((meta, output))
}

/// Path of the cache entry for `(artifact, fingerprint)` under `dir`.
pub fn entry_path(dir: &Path, artifact: &str, fingerprint: u64) -> PathBuf {
    dir.join(format!("{artifact}-{fingerprint:016x}.result"))
}

/// Outcome of probing the cache for a job.
#[derive(Debug)]
pub enum Probe {
    /// A valid entry for exactly this job identity; the cached output.
    Hit(Vec<u8>),
    /// No entry.
    Miss,
    /// An entry existed but was corrupt or mis-keyed; it has been
    /// renamed to the contained quarantine path and the job must be
    /// recomputed.
    Quarantined(PathBuf),
}

/// Probes the cache for `(artifact, fingerprint)`. A corrupt or
/// mis-stamped entry is quarantined (renamed aside, not deleted) and
/// reported so the caller recomputes.
pub fn probe(dir: &Path, artifact: &str, fingerprint: u64) -> Probe {
    let path = entry_path(dir, artifact, fingerprint);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Probe::Miss,
        Err(e) => {
            eprintln!("warning: cache: cannot read {}: {e}", path.display());
            return Probe::Miss;
        }
    };
    let why = match open_result(&bytes) {
        Ok((meta, output))
            if meta.artifact == artifact && meta.fingerprint == fingerprint && meta.ok =>
        {
            return Probe::Hit(output);
        }
        Ok((meta, _)) => format!(
            "entry is stamped {}/{:#018x} ok={}, expected {artifact}/{fingerprint:#018x}",
            meta.artifact, meta.fingerprint, meta.ok
        ),
        Err(e) => e,
    };
    quarantine(&path, &why)
}

/// Renames a bad cache entry aside and reports the quarantine.
fn quarantine(path: &Path, why: &str) -> Probe {
    let mut q = path.as_os_str().to_owned();
    q.push(".quarantined");
    let q = PathBuf::from(q);
    match std::fs::rename(path, &q) {
        Ok(()) => {
            eprintln!(
                "warning: cache: quarantined {} -> {} ({why})",
                path.display(),
                q.display()
            );
            Probe::Quarantined(q)
        }
        Err(e) => {
            // Could not move it aside; leave it and recompute anyway. The
            // store after recomputation will atomically replace it.
            eprintln!(
                "warning: cache: cannot quarantine {} ({why}; rename failed: {e})",
                path.display()
            );
            Probe::Miss
        }
    }
}

/// Stores a successful job output under its identity key, atomically and
/// durably.
///
/// # Errors
///
/// Propagates filesystem errors; the caller treats a failed store as a
/// lost optimization, never a failed job.
pub fn store(dir: &Path, artifact: &str, fingerprint: u64, output: &[u8]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let meta = ResultMeta {
        artifact: artifact.to_string(),
        fingerprint,
        ok: true,
        error: String::new(),
    };
    write_atomic(
        &entry_path(dir, artifact, fingerprint),
        &seal_result(&meta, output),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("campaign-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    #[test]
    fn store_then_probe_round_trips() {
        let dir = tmp_dir("roundtrip");
        store(&dir, "fig3", 0xABCD, b"rendered output\n").expect("stores");
        match probe(&dir, "fig3", 0xABCD) {
            Probe::Hit(out) => assert_eq!(out, b"rendered output\n"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(probe(&dir, "fig3", 0xABCE), Probe::Miss));
        assert!(matches!(probe(&dir, "fig7", 0xABCD), Probe::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_trusted() {
        let dir = tmp_dir("corrupt");
        store(&dir, "fig3", 7, b"good bytes").expect("stores");
        let path = entry_path(&dir, "fig3", 7);
        let mut bytes = std::fs::read(&path).expect("readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("writable");
        match probe(&dir, "fig3", 7) {
            Probe::Quarantined(q) => {
                assert!(q.exists(), "quarantined file kept for post-mortem");
                assert!(!path.exists(), "bad entry moved aside");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // After recomputation the store replaces the slot cleanly.
        store(&dir, "fig3", 7, b"good bytes").expect("stores again");
        assert!(matches!(probe(&dir, "fig3", 7), Probe::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_quarantined() {
        let dir = tmp_dir("truncated");
        store(&dir, "table3", 9, b"0123456789").expect("stores");
        let path = entry_path(&dir, "table3", 9);
        let bytes = std::fs::read(&path).expect("readable");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("writable");
        assert!(matches!(probe(&dir, "table3", 9), Probe::Quarantined(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mis_keyed_entries_are_quarantined() {
        // An entry whose frame is intact but whose meta names a different
        // job identity than its filename must not be served.
        let dir = tmp_dir("miskey");
        let meta = ResultMeta {
            artifact: "fig9".to_string(),
            fingerprint: 1,
            ok: true,
            error: String::new(),
        };
        std::fs::write(entry_path(&dir, "fig3", 2), seal_result(&meta, b"x")).expect("writable");
        assert!(matches!(probe(&dir, "fig3", 2), Probe::Quarantined(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
