//! Deterministic checkpoint/restore of the whole simulated machine.
//!
//! A [`Snapshot`] captures every piece of mutable architectural state the
//! simulator owns — warps, per-thread registers and predicates, formation
//! unit (LUT, partial-warp pool, new-warp FIFO), per-SM memory frontends,
//! the shared memory fabric (backing stores and DRAM module timing),
//! statistics shards, the fault log, and the fault injector — plus the
//! machine configuration and the active launch (program, pending blocks,
//! dynamic-tid counter). Restoring a snapshot yields a [`crate::Gpu`]
//! whose subsequent execution is bit-identical to the machine that was
//! checkpointed.
//!
//! Snapshots may only be taken between cycles (the inter-`run` barrier):
//! that is the one point where no access waits on a timing batch, no
//! fabric request is in flight (requests retire within the cycle that issues
//! them; only per-module `free`-time floats persist), and the statistics
//! shards are self-consistent. [`crate::Gpu::checkpoint`] enforces this by
//! construction — it can only be called between [`crate::Gpu::run`] calls.
//!
//! # On-disk format
//!
//! ```text
//! [0..8)   magic  b"DMKSNAP\0"
//! [8..]    version: u32        (little-endian, like all fields)
//!          meta:    u64 length + bytes   (opaque caller section)
//!          payload: u64 length + bytes   (machine state)
//! [-8..]   FNV-1a-64 checksum of every preceding byte
//! ```
//!
//! The payload is written with the deterministic codec in
//! [`simt_isa::codec`]; the trailing checksum rejects truncated or
//! bit-flipped files before any of the payload is interpreted. The `meta`
//! section carries caller state (the experiment supervisor stores its job
//! progress there) and is not interpreted by this module.
//!
//! The payload's large word arrays — backing stores, on-chip memories,
//! register files — travel with their zero runs elided
//! ([`simt_isa::codec::Encoder::put_u32_sparse`]), so a snapshot's size
//! follows what the machine has written, not what it has allocated, and
//! [`Snapshot::write_to`] streams the frame into the file without
//! assembling it in memory first.
//!
//! The same `magic / version / meta / payload / FNV-1a-64` frame is
//! exposed generically as [`seal_frame`] / [`open_frame`] so other
//! durable artifacts (the campaign result cache in
//! `experiments::campaign`) share one checksummed container and one set
//! of corruption-rejection tests instead of inventing parallel formats.
//! [`write_atomic`] is the matching durability primitive: temp-file
//! write, `fsync`, atomic rename, and (where supported) a directory
//! `fsync`, so a process killed at any instant can never leave a
//! torn-but-renamed file behind.

use crate::config::GpuConfig;
use simt_isa::codec::{fnv1a64, fnv1a64_extend, Codec, CodecError, Decoder, Encoder, FNV1A64_INIT};
use simt_isa::{Program, ResourceUsage};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic bytes identifying a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DMKSNAP\0";

/// Current snapshot format version. Bumped whenever the payload layout
/// changes; older versions are rejected rather than misread.
///
/// Version history: 1 — initial format; 2 — per-SM telemetry shards and
/// per-DRAM-module busy accounting joined the payload; 3 — per-lane
/// thread state stored as one struct-of-arrays block per warp
/// ([`crate::LaneState`]) instead of per-lane option+context records;
/// 4 — the L1/L2 cache hierarchy joined the payload (cache-geometry
/// config knobs, per-SM L1 tags + MSHR tables, L2 slices, interconnect
/// arbiter state, and the L1 columns of the telemetry counters);
/// 5 — the large word arrays (backing stores, on-chip memories, register
/// files) are written with their zero runs elided, register files
/// register-major as they are held; the fabric's always-zero traffic
/// block and the per-lane instruction counts nothing read are gone;
/// 6 — the per-SM telemetry shard no longer carries a second copy of the
/// divergence timeline (the statistics block holds the only one);
/// 7 — the statistics carry the SM-cycle ledger (stall rows by window)
/// and each warp what it waits on; the fabric and each SM's frontend
/// count the segments they serviced and sent, and the traffic block the
/// bytes the texture path served; what the rest implies is gone: each
/// SM's resource counts and empty statistics shard, the second spawn
/// presence flag, and the derived counters (`cycles`, `idle_sm_cycles`).
pub const SNAPSHOT_VERSION: u32 = 7;

/// Why a snapshot could not be restored.
///
/// Marked `#[non_exhaustive]`: new failure modes may be diagnosed in
/// future format versions, so downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum RestoreError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the contents — the file is
    /// truncated or corrupt.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the file contents.
        actual: u64,
    },
    /// The payload is malformed (truncated mid-field, bad tag, or a
    /// length inconsistent with the captured configuration).
    Codec(CodecError),
    /// The payload decoded but describes an impossible machine (e.g. a
    /// program that fails validation).
    Invalid(String),
    /// The snapshot file could not be read.
    Io(io::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            RestoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})")
            }
            RestoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (file {expected:#018x}, computed {actual:#018x}): truncated or corrupt"
            ),
            RestoreError::Codec(e) => write!(f, "malformed snapshot payload: {e}"),
            RestoreError::Invalid(why) => write!(f, "snapshot describes an invalid machine: {why}"),
            RestoreError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Codec(e) => Some(e),
            RestoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> Self {
        RestoreError::Codec(e)
    }
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// A serialized machine state plus an opaque caller `meta` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    payload: Vec<u8>,
    meta: Vec<u8>,
}

impl Snapshot {
    /// Wraps a machine-state payload produced by
    /// [`crate::Gpu::checkpoint`].
    pub(crate) fn from_payload(payload: Vec<u8>) -> Self {
        Snapshot {
            payload,
            meta: Vec::new(),
        }
    }

    /// The machine-state payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The opaque caller section (empty unless [`Snapshot::set_meta`] was
    /// called).
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Attaches caller state (e.g. experiment-runner job progress) that
    /// rides along with the machine state, covered by the same checksum.
    pub fn set_meta(&mut self, meta: Vec<u8>) {
        self.meta = meta;
    }

    /// Serializes the snapshot to the versioned, checksummed file format,
    /// in memory. [`Snapshot::write_to`] puts the same bytes in a file
    /// without building them.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal_frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &self.meta, &self.payload)
    }

    /// Parses a snapshot file, verifying magic, version, and checksum
    /// before interpreting any content.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] on bad magic, an unsupported version, a
    /// checksum mismatch (truncation, bit flips), or a malformed frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let (meta, payload) = open_frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        Ok(Snapshot { payload, meta })
    }

    /// Writes the snapshot to `path` atomically and durably (temp file,
    /// `fsync`, rename, directory `fsync` — see [`write_atomic`]), so a
    /// process killed at any instant can never leave a torn snapshot for
    /// a later resume to trust. The file holds exactly
    /// [`Snapshot::to_bytes`], streamed: each section goes to the file as
    /// it stands, under a running checksum, so writing costs no copy of
    /// the payload.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write, syncs, or the rename.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        use std::io::Write as _;
        write_atomic_with(path, |file| {
            let mut checksum = FNV1A64_INIT;
            for section in [
                &SNAPSHOT_MAGIC[..],
                &SNAPSHOT_VERSION.to_le_bytes(),
                &(self.meta.len() as u64).to_le_bytes(),
                &self.meta,
                &(self.payload.len() as u64).to_le_bytes(),
                &self.payload,
            ] {
                checksum = fnv1a64_extend(checksum, section);
                file.write_all(section)?;
            }
            file.write_all(&checksum.to_le_bytes())
        })
    }

    /// Reads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] for i/o failures or any of the
    /// [`Snapshot::from_bytes`] rejections.
    pub fn read_from(path: &Path) -> Result<Self, RestoreError> {
        Self::from_bytes(&fs::read(path)?)
    }
}

/// Seals `meta` + `payload` into the checksummed snapshot frame under a
/// caller-chosen 8-byte magic and version. The result is accepted only
/// by [`open_frame`] with the same magic and version; every truncation
/// and bit flip is rejected by the trailing FNV-1a-64 checksum.
pub fn seal_frame(magic: &[u8; 8], version: u32, meta: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(version);
    enc.put_bytes(meta);
    enc.put_bytes(payload);
    let body = enc.into_bytes();
    let mut bytes = Vec::with_capacity(magic.len() + body.len() + 8);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&body);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Opens a frame written by [`seal_frame`], verifying magic, version,
/// and checksum before interpreting any content, and returns
/// `(meta, payload)`.
///
/// # Errors
///
/// Returns a [`RestoreError`] on bad magic, a version other than
/// `version`, a checksum mismatch (truncation, bit flips), or a
/// malformed frame.
pub fn open_frame(
    magic: &[u8; 8],
    version: u32,
    bytes: &[u8],
) -> Result<(Vec<u8>, Vec<u8>), RestoreError> {
    if bytes.len() < magic.len() || !bytes.starts_with(magic) {
        return Err(RestoreError::BadMagic);
    }
    let Some(body_len) = bytes.len().checked_sub(8) else {
        return Err(RestoreError::BadMagic);
    };
    if body_len < magic.len() + 4 {
        return Err(RestoreError::Codec(CodecError::UnexpectedEof {
            needed: magic.len() + 4 + 8,
            remaining: bytes.len(),
        }));
    }
    let mut expected = [0u8; 8];
    expected.copy_from_slice(&bytes[body_len..]);
    let expected = u64::from_le_bytes(expected);
    let actual = fnv1a64(&bytes[..body_len]);
    if expected != actual {
        return Err(RestoreError::ChecksumMismatch { expected, actual });
    }
    let mut dec = Decoder::new(&bytes[magic.len()..body_len]);
    let got_version = dec.take_u32()?;
    if got_version != version {
        return Err(RestoreError::UnsupportedVersion(got_version));
    }
    let meta = dec.take_bytes()?;
    let payload = dec.take_bytes()?;
    if !dec.is_finished() {
        return Err(RestoreError::Invalid(format!(
            "{} trailing bytes after the payload",
            dec.remaining()
        )));
    }
    Ok((meta, payload))
}

/// Writes `bytes` to `path` atomically and durably: the bytes land in a
/// `.tmp` sibling, are `fsync`ed *before* the atomic rename, and the
/// containing directory is `fsync`ed after it (on Unix). A process
/// killed at any instant therefore leaves either the old file, no file,
/// or the complete new file — never a renamed-but-torn one.
///
/// # Errors
///
/// Propagates filesystem errors from the write, the data sync, or the
/// rename. A failed *directory* sync is ignored: the rename itself is
/// already atomic, and some filesystems refuse directory fsync.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    write_atomic_with(path, |file| file.write_all(bytes))
}

/// [`write_atomic`] with the contents produced by `fill` writing into the
/// `.tmp` sibling, for a caller that holds them in pieces.
fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut fs::File) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Deterministic FNV-1a-64 digest of a full machine configuration (the
/// same encoding a snapshot stores). Campaign job identities hash this
/// so any configuration change — memory timing, scheduling model, fault
/// policy — lands in a different result-cache key.
pub fn config_digest(cfg: &GpuConfig) -> u64 {
    fnv1a64(&cfg.to_bytes())
}

/// Deterministic FNV-1a-64 digest of a program — instruction words,
/// labels, entry points, and resource usage, via the snapshot codec.
///
/// # Errors
///
/// Propagates [`simt_isa::EncodeError`] for a program the lossless ISA
/// codec cannot represent.
pub fn program_digest(p: &Program) -> Result<u64, simt_isa::EncodeError> {
    let mut enc = Encoder::new();
    put_program(&mut enc, p)?;
    Ok(fnv1a64(&enc.into_bytes()))
}

/// Serializes a program: instructions through the lossless 96-bit ISA
/// codec ([`simt_isa::encode_program`]) plus name, labels, entry points,
/// and resource usage.
pub(crate) fn put_program(enc: &mut Encoder, p: &Program) -> Result<(), simt_isa::EncodeError> {
    enc.put_str(p.name());
    enc.put_u32_slice(&simt_isa::encode_program(p)?);
    p.labels().encode(enc);
    p.entry_points().to_vec().encode(enc);
    p.resource_usage().encode(enc);
    Ok(())
}

/// Decodes a program written by [`put_program`], revalidating it through
/// [`Program::new`].
pub(crate) fn take_program(dec: &mut Decoder<'_>) -> Result<Program, RestoreError> {
    let name = dec.take_str()?;
    let words = dec.take_u32_vec()?;
    if !words.len().is_multiple_of(3) {
        return Err(RestoreError::Invalid(format!(
            "program section is {} words, not a multiple of 3",
            words.len()
        )));
    }
    let instrs = words
        .chunks_exact(3)
        .map(|c| {
            simt_isa::decode([c[0], c[1], c[2]])
                .map_err(|e| RestoreError::Invalid(format!("undecodable instruction: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let labels = BTreeMap::decode(dec)?;
    let entry_points = Vec::decode(dec)?;
    let resources = ResourceUsage::decode(dec)?;
    Program::new(name, instrs, labels, entry_points, resources)
        .map_err(|e| RestoreError::Invalid(format!("program failed revalidation: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, SchedulingModel};

    /// The configuration's halves, under the names its tests use.
    fn put_gpu_config(enc: &mut Encoder, cfg: &GpuConfig) {
        cfg.encode(enc);
    }

    fn take_gpu_config(dec: &mut Decoder<'_>) -> Result<GpuConfig, CodecError> {
        GpuConfig::decode(dec)
    }

    #[test]
    fn frame_roundtrip_preserves_payload_and_meta() {
        let mut s = Snapshot::from_payload(vec![1, 2, 3, 4, 5]);
        s.set_meta(vec![9, 9]);
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn empty_sections_roundtrip() {
        let s = Snapshot::from_payload(Vec::new());
        let back = Snapshot::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Snapshot::from_payload(vec![1]).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(RestoreError::BadMagic)
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = Snapshot::from_payload(vec![7; 32]).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = Snapshot::from_payload(vec![0xAB; 16]).to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&corrupt).is_err(),
                    "bit flip at byte {i} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn other_versions_are_rejected_by_version_not_checksum() {
        // Re-frame under the previous and the next version with a correct
        // checksum: the version gate must fire. There is no reader for a
        // v6 file; whoever finds one restarts the job.
        let s = Snapshot::from_payload(vec![1, 2, 3]);
        for version in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let bytes = seal_frame(&SNAPSHOT_MAGIC, version, &[], &s.payload);
            assert!(matches!(
                Snapshot::from_bytes(&bytes),
                Err(RestoreError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn write_to_streams_exactly_to_bytes() {
        let dir = std::env::temp_dir().join(format!("ckpt-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("s.ckpt");
        for (payload, meta) in [
            (Vec::new(), Vec::new()),
            (vec![0xC3; 70_000], b"phase meta".to_vec()),
        ] {
            let mut s = Snapshot::from_payload(payload);
            s.set_meta(meta);
            s.write_to(&path).expect("writes");
            assert_eq!(std::fs::read(&path).expect("readable"), s.to_bytes());
            assert_eq!(Snapshot::read_from(&path).expect("reads back"), s);
        }
        assert!(!dir.join("s.ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generic_frame_is_magic_and_version_scoped() {
        const MAGIC_A: [u8; 8] = *b"DMKRSLT\0";
        let bytes = seal_frame(&MAGIC_A, 1, b"meta", b"payload");
        let (meta, payload) = open_frame(&MAGIC_A, 1, &bytes).expect("roundtrip");
        assert_eq!(meta, b"meta");
        assert_eq!(payload, b"payload");
        // A snapshot-magic reader must not accept a result frame, and
        // vice versa; a version bump must gate too.
        assert!(matches!(
            open_frame(&SNAPSHOT_MAGIC, 1, &bytes),
            Err(RestoreError::BadMagic)
        ));
        assert!(matches!(
            open_frame(&MAGIC_A, 2, &bytes),
            Err(RestoreError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn generic_frame_rejects_truncation_and_bit_flips() {
        const MAGIC: [u8; 8] = *b"DMKRSLT\0";
        let bytes = seal_frame(&MAGIC, 1, b"job", &[0x5A; 48]);
        for len in 0..bytes.len() {
            assert!(
                open_frame(&MAGIC, 1, &bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                open_frame(&MAGIC, 1, &corrupt).is_err(),
                "bit flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn write_atomic_replaces_and_survives_reread() {
        let dir = std::env::temp_dir().join(format!("ckpt-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("a.bin");
        write_atomic(&path, b"first").expect("writes");
        assert_eq!(std::fs::read(&path).expect("readable"), b"first");
        write_atomic(&path, b"second").expect("replaces");
        assert_eq!(std::fs::read(&path).expect("readable"), b"second");
        // The temp sibling never outlives a successful write.
        assert!(!dir.join("a.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_digest_tracks_every_knob_it_covers() {
        let base = GpuConfig::fx5800();
        let mut mem = base.clone();
        mem.mem.ideal = true;
        let mut sched = base.clone();
        sched.scheduling = SchedulingModel::Warp;
        let d0 = config_digest(&base);
        assert_eq!(d0, config_digest(&base.clone()), "digest is deterministic");
        assert_ne!(d0, config_digest(&mem), "memory change must re-key");
        assert_ne!(d0, config_digest(&sched), "scheduler change must re-key");
    }

    #[test]
    fn gpu_config_roundtrips() {
        for cfg in [
            GpuConfig::tiny(),
            GpuConfig::fx5800(),
            GpuConfig::fx5800_warp_sched(),
            GpuConfig::fx5800_dmk(dmk_core::DmkConfig::paper()),
        ] {
            let mut enc = Encoder::new();
            put_gpu_config(&mut enc, &cfg);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = take_gpu_config(&mut dec).expect("decodes");
            assert!(dec.is_finished());
            let mut enc2 = Encoder::new();
            put_gpu_config(&mut enc2, &back);
            assert_eq!(bytes, enc2.into_bytes(), "re-encode differs");
        }
    }

    #[test]
    fn program_roundtrips_through_snapshot_codec() {
        let src = r#"
            .kernel main
            .kernel child
            .spawnstate 16
            main:
                mov.u32 r1, %tid
                mov.u32 r2, %spawnmem
                st.spawn.u32 [r2+0], r1
                spawn $child, r2
                exit
            child:
                mov.u32 r2, %spawnmem
                ld.spawn.u32 r2, [r2+0]
                exit
        "#;
        let p = simt_isa::assemble_named("roundtrip", src).expect("assembles");
        let mut enc = Encoder::new();
        put_program(&mut enc, &p).expect("encodable");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = take_program(&mut dec).expect("decodes");
        assert!(dec.is_finished());
        assert_eq!(back, p);
    }

    mod props {
        use super::super::*;
        use crate::config::{SchedulingModel, SpawnPolicy};
        use crate::fault::{Fault, FaultKind, FaultPolicy, InjectedFault, Injection, Injector};
        use crate::gpu::PendingBlock;
        use crate::warp::StackEntry;
        use dmk_core::{CompletedWarp, DmkConfig, LutLine};
        use proptest::prelude::*;
        use simt_isa::codec::check_codec_laws;
        use simt_isa::{EntryPoint, Space};
        use simt_mem::{MemConfig, MemFault};

        /// Bytes each case decodes from: more than the largest record (a
        /// `GpuConfig` with its `DmkConfig`, 221 bytes) takes.
        const CASE_BYTES: usize = 256;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Every record `simt_isa::record!` declares in the crates the
            /// machine is built from keeps the codec laws: decoded from a
            /// zeroed buffer with a few bytes overwritten (zeros decode as
            /// every record's first variant, empty collections and absent
            /// options, so most cases decode), it re-encodes to the bytes it
            /// was read from, and every strict prefix is a `CodecError`,
            /// never a panic.
            #[test]
            fn every_declared_record_round_trips_and_refuses_its_prefixes(
                hits in proptest::collection::vec(
                    (
                        prop_oneof![0..24usize, 0..CASE_BYTES],
                        prop_oneof![Just(1u8), Just(2u8), Just(3u8), any::<u8>()],
                    ),
                    0..6,
                ),
            ) {
                let mut bytes = vec![0u8; CASE_BYTES];
                for (at, byte) in hits {
                    bytes[at] = byte;
                }
                check_codec_laws::<Space>(&bytes);
                check_codec_laws::<EntryPoint>(&bytes);
                check_codec_laws::<ResourceUsage>(&bytes);
                check_codec_laws::<MemConfig>(&bytes);
                check_codec_laws::<MemFault>(&bytes);
                check_codec_laws::<DmkConfig>(&bytes);
                check_codec_laws::<LutLine>(&bytes);
                check_codec_laws::<CompletedWarp>(&bytes);
                check_codec_laws::<GpuConfig>(&bytes);
                check_codec_laws::<SchedulingModel>(&bytes);
                check_codec_laws::<SpawnPolicy>(&bytes);
                check_codec_laws::<FaultPolicy>(&bytes);
                check_codec_laws::<FaultKind>(&bytes);
                check_codec_laws::<Fault>(&bytes);
                check_codec_laws::<InjectedFault>(&bytes);
                check_codec_laws::<Injection>(&bytes);
                check_codec_laws::<Injector>(&bytes);
                check_codec_laws::<StackEntry>(&bytes);
                check_codec_laws::<PendingBlock>(&bytes);
            }
        }

        proptest! {
            /// The snapshot frame is lossless for arbitrary payload and
            /// meta bytes: encode → decode is the identity.
            #[test]
            fn frame_roundtrip_is_identity(
                payload in proptest::collection::vec(any::<u8>(), 0..2048),
                meta in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let mut snap = Snapshot::from_payload(payload);
                snap.set_meta(meta);
                let bytes = snap.to_bytes();
                let back = Snapshot::from_bytes(&bytes).expect("frame roundtrip");
                prop_assert_eq!(back, snap);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4000))]

            /// Seeded byte fuzzer, arbitrary input, because a frame read
            /// from disk is untrusted: random bytes, bare and behind a
            /// genuine magic + version so the section lengths are what
            /// gets fuzzed. The opener returns;
            /// a panic or a hang fails the test by itself.
            #[test]
            fn frame_opener_survives_arbitrary_bytes(
                body in proptest::collection::vec(any::<u8>(), 0..96),
                framed: bool,
            ) {
                let mut bytes = Vec::new();
                if framed {
                    bytes.extend(SNAPSHOT_MAGIC);
                    bytes.extend(SNAPSHOT_VERSION.to_le_bytes());
                }
                bytes.extend(body);
                if let Ok(snap) = Snapshot::from_bytes(&bytes) {
                    prop_assert!(snap.payload().len() + snap.meta().len() <= bytes.len());
                }
            }

            /// Seeded byte fuzzer, mutated-valid input: a real frame with
            /// one to three bytes overwritten, resealed under a correct
            /// checksum half the time so the damage reaches the section
            /// parser and not only the checksum gate.
            #[test]
            fn frame_opener_survives_mutated_frames(
                payload in proptest::collection::vec(any::<u8>(), 0..64),
                meta in proptest::collection::vec(any::<u8>(), 0..16),
                hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
                reseal: bool,
            ) {
                let mut snap = Snapshot::from_payload(payload);
                snap.set_meta(meta);
                let mut bytes = snap.to_bytes();
                let body = bytes.len() - 8;
                for (at, byte) in hits {
                    bytes[at as usize % body] = byte;
                }
                if reseal {
                    let checksum = fnv1a64(&bytes[..body]);
                    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
                }
                if let Ok(back) = Snapshot::from_bytes(&bytes) {
                    prop_assert!(back.payload().len() + back.meta().len() <= bytes.len());
                }
            }
        }
    }
}
