//! Write-ahead job journal for `repro serve`.
//!
//! Every accepted request is sealed into a checksummed frame (the PR-3
//! [`simt_sim::seal_frame`] format, distinct `DMKJOB` magic) and
//! written atomically to `<serve_dir>/journal/<seq>-<fingerprint>.job`
//! **before** the client is acknowledged — the durability contract is
//! "202 means this request survives a crash". The entry is removed only
//! after the job reaches a terminal state with its result banked in the
//! content-addressed cache (or a typed failure recorded); on boot the
//! server replays every surviving entry, in sequence order, back onto
//! the coordinator. Replay is idempotent: job identity is the
//! fingerprint, a warm cache hit completes the replayed job instantly,
//! and an interrupted job resumes from its checkpoints.
//!
//! A corrupt entry (torn write from a crash mid-rename is impossible —
//! `write_atomic` fsyncs and renames — but disks rot) is quarantined
//! aside with a `.quarantined` suffix and counted, never trusted and
//! never silently dropped.

use simt_isa::codec::Codec;
use simt_sim::{open_frame, seal_frame, write_atomic};
use std::path::{Path, PathBuf};

/// Magic bytes of a sealed journal entry.
pub const JOB_MAGIC: [u8; 8] = *b"DMKJOB\0\0";

/// Journal entry format version.
pub const JOB_VERSION: u32 = 1;

simt_isa::record! {
    /// One journaled job request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JournalEntry {
        /// Admission sequence number (monotonic per serve directory).
        pub seq: u64,
        /// Artifact name.
        pub artifact: String,
        /// Scale name (`test` / `quick` / `paper`).
        pub scale_name: String,
        /// Render in `--json` mode.
        pub json: bool,
        /// Requested deadline in milliseconds (0 = none). Deadlines restart
        /// from replay time on recovery: the contract is a *budget per
        /// admission*, and a replayed entry is a fresh admission.
        pub deadline_ms: u64,
        /// Job identity fingerprint at admission (also in the filename).
        /// Replay resubmits the job and keys it by the fingerprint its
        /// inputs have then, which differs after an input change.
        pub fingerprint: u64,
    }
}

/// Seals one entry into its frame bytes.
fn seal_entry(e: &JournalEntry) -> Vec<u8> {
    seal_frame(&JOB_MAGIC, JOB_VERSION, &e.to_bytes(), &[])
}

/// Opens one sealed entry.
///
/// # Errors
///
/// Human-readable description of corruption or malformed meta.
pub fn open_entry(bytes: &[u8]) -> Result<JournalEntry, String> {
    let (meta, _) = open_frame(&JOB_MAGIC, JOB_VERSION, bytes)
        .map_err(|e| format!("unusable journal entry: {e}"))?;
    JournalEntry::from_bytes(&meta).map_err(|_| "malformed journal entry meta".to_string())
}

/// The on-disk journal.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    next_seq: u64,
    /// Corrupt entries quarantined during replay.
    pub quarantined: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal directory and replays the
    /// surviving entries in sequence order. The next sequence number
    /// continues past everything seen on disk.
    ///
    /// # Errors
    ///
    /// Unusable journal directory only; corrupt entries are quarantined,
    /// not fatal.
    pub fn open(dir: &Path) -> Result<(Self, Vec<JournalEntry>), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create journal dir {}: {e}", dir.display()))?;
        let mut entries = Vec::new();
        let mut quarantined = 0u64;
        let mut max_seq = 0u64;
        let listing = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read journal dir {}: {e}", dir.display()))?;
        for item in listing.flatten() {
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some("job") {
                continue;
            }
            match std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|b| open_entry(&b))
            {
                Ok(entry) => {
                    max_seq = max_seq.max(entry.seq);
                    entries.push(entry);
                }
                Err(why) => {
                    quarantined += 1;
                    let aside = path.with_extension("job.quarantined");
                    eprintln!(
                        "serve: journal: quarantining corrupt entry {} ({why})",
                        path.display()
                    );
                    let _ = std::fs::rename(&path, &aside);
                }
            }
        }
        entries.sort_by_key(|e| e.seq);
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                next_seq: max_seq + 1,
                quarantined,
            },
            entries,
        ))
    }

    /// Path of the entry file for `(seq, fingerprint)`.
    fn entry_path(&self, seq: u64, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{seq:012}-{fingerprint:016x}.job"))
    }

    /// Durably appends one request, assigning its sequence number. The
    /// write is atomic and fsynced; when this returns the request will
    /// survive a crash.
    ///
    /// # Errors
    ///
    /// The underlying write — the caller must *not* acknowledge the
    /// request if this fails.
    pub fn append(
        &mut self,
        artifact: &str,
        scale_name: &str,
        json: bool,
        deadline_ms: u64,
        fingerprint: u64,
    ) -> Result<JournalEntry, String> {
        let entry = JournalEntry {
            seq: self.next_seq,
            artifact: artifact.to_string(),
            scale_name: scale_name.to_string(),
            json,
            deadline_ms,
            fingerprint,
        };
        let path = self.entry_path(entry.seq, entry.fingerprint);
        write_atomic(&path, &seal_entry(&entry))
            .map_err(|e| format!("journal append failed: {e}"))?;
        self.next_seq += 1;
        Ok(entry)
    }

    /// Retires one entry after its job reached a terminal state.
    pub fn retire(&self, entry: &JournalEntry) {
        let _ = std::fs::remove_file(self.entry_path(entry.seq, entry.fingerprint));
    }

    /// Entries still on disk (accepted-but-not-terminal) — the journal
    /// lag `/healthz` reports.
    pub fn lag(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|d| {
                d.flatten()
                    .filter(|i| i.path().extension().and_then(|e| e.to_str()) == Some("job"))
                    .count() as u64
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn append_replay_retire_round_trip() {
        let dir = tmp("rt");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut j, replay) = Journal::open(&dir).expect("open fresh");
        assert!(replay.is_empty());
        let a = j.append("fig3", "quick", false, 0, 0xabc).expect("append");
        let b = j
            .append("table3", "quick", true, 5000, 0xdef)
            .expect("append");
        assert_eq!((a.seq, b.seq), (1, 2));
        assert_eq!(j.lag(), 2);

        // A restart replays both, in admission order, and continues the
        // sequence counter past them.
        let (mut j2, replay) = Journal::open(&dir).expect("reopen");
        assert_eq!(replay, vec![a.clone(), b.clone()]);
        let c = j2.append("fig7", "quick", false, 0, 0x123).expect("append");
        assert_eq!(c.seq, 3);

        j2.retire(&a);
        j2.retire(&c);
        let (_, replay) = Journal::open(&dir).expect("reopen after retire");
        assert_eq!(replay, vec![b]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_trusted() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut j, _) = Journal::open(&dir).expect("open");
        let e = j.append("fig3", "test", false, 0, 0x77).expect("append");
        // Flip a byte in the sealed frame.
        let path = dir.join(format!("{:012}-{:016x}.job", e.seq, e.fingerprint));
        let mut bytes = std::fs::read(&path).expect("read entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt entry");

        let (j2, replay) = Journal::open(&dir).expect("reopen");
        assert!(replay.is_empty(), "corrupt entry must not replay");
        assert_eq!(j2.quarantined, 1);
        assert!(
            dir.read_dir()
                .expect("list")
                .flatten()
                .any(|i| i.path().to_string_lossy().ends_with(".job.quarantined")),
            "corrupt entry parked aside for post-mortem"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
