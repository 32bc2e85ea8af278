//! # Durable checkpoints — atomic, checksummed, generational
//!
//! The snapshot layer ([`crate::snapshot`]) gives every live simulation a
//! canonical byte form; this module makes those bytes survive the process.
//! Three guarantees, in order of paranoia:
//!
//! 1. **Atomicity.** A checkpoint is written to a temp file in the target
//!    directory, `fsync`ed, then `rename`d into place, then the directory
//!    itself is `fsync`ed. A reader never observes a half-written file under
//!    the final name — a crash mid-write leaves at most a stray `.tmp`.
//! 2. **Detection.** Every file carries a `BCCK` container: magic, format
//!    version, a *kind* tag (so a campaign checkpoint can never be fed to
//!    the server recovery path), the payload length, and an FNV-1a checksum
//!    over the payload. Truncation, bit-flips, and foreign files all decode
//!    to a typed [`CheckpointError`] — never a panic, never silent garbage.
//! 3. **Fallback.** Files are generation-numbered (`prefix-<gen>.bcc`).
//!    [`CheckpointStore::load_latest`] walks generations newest-first and
//!    returns the first one that verifies, reporting every generation it
//!    had to skip so callers can surface the corruption.
//!
//! The container is deliberately dumb: framing and integrity only. What the
//! payload *means* is the caller's business (BCSS snapshot bytes, campaign
//! accumulator state, a session journal, ...), named by the kind tag.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Container magic: "BC" + ChecKpoint.
const MAGIC: &[u8; 4] = b"BCCK";
/// Container format revision (framing only — payload versioning is per-kind).
const VERSION: u8 = 1;
/// Fixed header: magic(4) + version(1) + kind(1) + payload_len(8).
const HEADER_LEN: usize = 14;
/// Trailer: FNV-1a 64-bit checksum over the payload bytes.
const TRAILER_LEN: usize = 8;

/// What a checkpoint payload *is*. Stored in the container so a file can
/// never be rehydrated by the wrong subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A bare `BCSS` simulation snapshot.
    Snapshot,
    /// Streaming campaign / grid-sweep accumulator state + cursor.
    Campaign,
    /// A `bc-serve` session journal (all open sessions).
    ServeJournal,
}

impl CheckpointKind {
    fn tag(self) -> u8 {
        match self {
            CheckpointKind::Snapshot => 1,
            CheckpointKind::Campaign => 2,
            CheckpointKind::ServeJournal => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(CheckpointKind::Snapshot),
            2 => Some(CheckpointKind::Campaign),
            3 => Some(CheckpointKind::ServeJournal),
            _ => None,
        }
    }
}

impl std::fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointKind::Snapshot => write!(f, "snapshot"),
            CheckpointKind::Campaign => write!(f, "campaign"),
            CheckpointKind::ServeJournal => write!(f, "serve-journal"),
        }
    }
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure (create, write, fsync, rename, read).
    Io(io::Error),
    /// File ended before the declared payload + checksum.
    Truncated,
    /// The `BCCK` magic is missing — not a checkpoint container.
    BadMagic,
    /// Container framing from a newer (or corrupt) revision.
    UnsupportedVersion(u8),
    /// The kind tag is not one we know.
    UnknownKind(u8),
    /// A valid container, but holding a different kind than requested.
    WrongKind {
        /// Kind the caller asked for.
        expected: CheckpointKind,
        /// Kind actually found in the file.
        found: CheckpointKind,
    },
    /// Payload bytes do not match the stored checksum — torn or bit-flipped.
    ChecksumMismatch,
    /// No generation in the store survived verification.
    NoUsableGeneration,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "missing BCCK magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint container version {v}")
            }
            CheckpointError::UnknownKind(t) => write!(f, "unknown checkpoint kind tag {t}"),
            CheckpointError::WrongKind { expected, found } => {
                write!(
                    f,
                    "checkpoint kind mismatch: expected {expected}, found {found}"
                )
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::NoUsableGeneration => {
                write!(f, "no usable checkpoint generation found")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a, 64-bit. Not cryptographic — it guards against torn writes and
/// random media corruption, which is exactly the threat model here, and it
/// costs nothing to vendor.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Fixed-width little-endian readers for checkpoint payloads. Each takes
// its bytes off the front of `input` and returns `None` when too few
// remain; callers map that to their own error.

/// Splits `n` bytes off the front of `input`.
pub fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = input.split_at_checked(n)?;
    *input = rest;
    Some(head)
}

fn take_array<const N: usize>(input: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = input.split_first_chunk::<N>()?;
    *input = rest;
    Some(*head)
}

/// Reads a little-endian `u32` off the front of `input`.
pub fn take_u32_le(input: &mut &[u8]) -> Option<u32> {
    take_array(input).map(u32::from_le_bytes)
}

/// Reads a little-endian `u64` off the front of `input`.
pub fn take_u64_le(input: &mut &[u8]) -> Option<u64> {
    take_array(input).map(u64::from_le_bytes)
}

/// Reads a little-endian `u128` off the front of `input`.
pub fn take_u128_le(input: &mut &[u8]) -> Option<u128> {
    take_array(input).map(u128::from_le_bytes)
}

/// Frame `payload` in a `BCCK` container.
pub fn encode_container(kind: CheckpointKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(kind.tag());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Unframe a `BCCK` container, verifying magic, version, kind, length, and
/// checksum. Total: every byte string maps to `Ok` or a typed error.
pub fn decode_container(kind: CheckpointKind, bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        // Too short to even hold the magic + header: classify precisely.
        if bytes.len() >= 4 && &bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(CheckpointError::UnsupportedVersion(bytes[4]));
    }
    let found = CheckpointKind::from_tag(bytes[5]).ok_or(CheckpointError::UnknownKind(bytes[5]))?;
    let len = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
    // Guard the length against the actual byte count before any allocation:
    // a hostile 2^60 length must not OOM.
    let avail = (bytes.len() - HEADER_LEN) as u64;
    if len > avail || avail - len < TRAILER_LEN as u64 {
        return Err(CheckpointError::Truncated);
    }
    let len = len as usize;
    let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
    let stored = u64::from_le_bytes(
        bytes[HEADER_LEN + len..HEADER_LEN + len + TRAILER_LEN]
            .try_into()
            .unwrap(),
    );
    if fnv1a64(payload) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    // Kind is checked *after* integrity so a bit-flip in the kind byte
    // reports as corruption-adjacent (UnknownKind/WrongKind) only when the
    // rest of the frame is sound — keeps diagnostics honest.
    if found != kind {
        return Err(CheckpointError::WrongKind {
            expected: kind,
            found,
        });
    }
    Ok(payload.to_vec())
}

/// A generation that `load_latest` had to skip, and why.
#[derive(Debug)]
pub struct SkippedGeneration {
    /// Generation number parsed from the filename.
    pub generation: u64,
    /// The error that disqualified it.
    pub error: CheckpointError,
}

/// Result of a successful [`CheckpointStore::load_latest`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Generation number the payload came from.
    pub generation: u64,
    /// Verified payload bytes.
    pub payload: Vec<u8>,
    /// Newer generations that failed verification and were skipped.
    pub skipped: Vec<SkippedGeneration>,
}

/// A directory of generation-numbered checkpoint files for one producer.
///
/// Filenames are `{prefix}-{generation:016}.bcc`; the zero-padded decimal
/// keeps lexicographic order equal to numeric order. Writes are atomic,
/// reads fall back past corrupt generations.
pub struct CheckpointStore {
    dir: PathBuf,
    prefix: String,
    kind: CheckpointKind,
    /// How many generations to retain after a successful save (min 1).
    keep: usize,
    next_generation: u64,
}

impl CheckpointStore {
    /// Open (creating the directory if needed) a store for `kind` payloads.
    /// `keep` bounds retained generations; at least 2 is recommended so a
    /// corrupt newest generation still has somewhere to fall back to.
    pub fn open(
        dir: impl Into<PathBuf>,
        prefix: &str,
        kind: CheckpointKind,
        keep: usize,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = CheckpointStore {
            dir,
            prefix: prefix.to_string(),
            kind,
            keep: keep.max(1),
            next_generation: 0,
        };
        store.next_generation = store.generations()?.last().map(|&g| g + 1).unwrap_or(0);
        Ok(store)
    }

    /// Directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(&self, generation: u64) -> String {
        format!("{}-{generation:016}.bcc", self.prefix)
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(self.file_name(generation))
    }

    /// All generation numbers currently on disk, ascending.
    pub fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let want_prefix = format!("{}-", self.prefix);
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&want_prefix) else {
                continue;
            };
            let Some(digits) = rest.strip_suffix(".bcc") else {
                continue;
            };
            if let Ok(g) = digits.parse::<u64>() {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Atomically persist `payload` as a new generation; returns its number.
    ///
    /// Protocol: write `{final}.tmp-{pid}` → `sync_all` → `rename` → fsync
    /// the directory. Older generations beyond `keep` are pruned afterwards
    /// (prune failures are ignored — stale files are harmless).
    pub fn save(&mut self, payload: &[u8]) -> Result<u64, CheckpointError> {
        let generation = self.next_generation;
        let bytes = encode_container(self.kind, payload);
        let final_path = self.path_for(generation);
        let tmp_path = self.dir.join(format!(
            "{}.tmp-{}",
            self.file_name(generation),
            std::process::id()
        ));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        // Persist the rename itself: fsync the containing directory. Some
        // platforms refuse to open a directory for writing; opening
        // read-only is sufficient for fsync on Unix.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.next_generation = generation + 1;
        self.prune();
        Ok(generation)
    }

    fn prune(&self) {
        let Ok(gens) = self.generations() else { return };
        if gens.len() <= self.keep {
            return;
        }
        for &g in &gens[..gens.len() - self.keep] {
            let _ = fs::remove_file(self.path_for(g));
        }
    }

    /// Load one specific generation, fully verified.
    pub fn load_generation(&self, generation: u64) -> Result<Vec<u8>, CheckpointError> {
        let mut bytes = Vec::new();
        File::open(self.path_for(generation))?.read_to_end(&mut bytes)?;
        decode_container(self.kind, &bytes)
    }

    /// Load the newest generation that verifies, walking backwards past any
    /// torn/corrupt files. `Ok(None)` means the store is empty (a fresh
    /// start, not an error); `Err(NoUsableGeneration)` means files exist
    /// but none of them verified.
    pub fn load_latest(&self) -> Result<Option<LoadedCheckpoint>, CheckpointError> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        let mut skipped = Vec::new();
        for &g in gens.iter().rev() {
            match self.load_generation(g) {
                Ok(payload) => {
                    return Ok(Some(LoadedCheckpoint {
                        generation: g,
                        payload,
                        skipped,
                    }))
                }
                Err(error) => skipped.push(SkippedGeneration {
                    generation: g,
                    error,
                }),
            }
        }
        Err(CheckpointError::NoUsableGeneration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bc-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn container_roundtrip() {
        let payload = b"hello checkpoint".to_vec();
        let framed = encode_container(CheckpointKind::Campaign, &payload);
        assert_eq!(
            decode_container(CheckpointKind::Campaign, &framed).unwrap(),
            payload
        );
    }

    #[test]
    fn container_rejects_wrong_kind() {
        let framed = encode_container(CheckpointKind::Snapshot, b"x");
        match decode_container(CheckpointKind::Campaign, &framed) {
            Err(CheckpointError::WrongKind { expected, found }) => {
                assert_eq!(expected, CheckpointKind::Campaign);
                assert_eq!(found, CheckpointKind::Snapshot);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn container_detects_every_truncation() {
        let framed = encode_container(CheckpointKind::Campaign, b"some payload bytes");
        for cut in 0..framed.len() {
            assert!(
                decode_container(CheckpointKind::Campaign, &framed[..cut]).is_err(),
                "truncation at {cut} must not verify"
            );
        }
    }

    #[test]
    fn container_detects_every_single_bit_flip() {
        let framed = encode_container(CheckpointKind::Campaign, b"bit flip me");
        for i in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_container(CheckpointKind::Campaign, &bad).is_err(),
                    "bit flip at byte {i} bit {bit} must not verify"
                );
            }
        }
    }

    #[test]
    fn container_hostile_length_does_not_allocate() {
        // A giant declared length with few actual bytes must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.push(CheckpointKind::Campaign.tag());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_container(CheckpointKind::Campaign, &bytes),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn store_saves_loads_and_prunes() {
        let dir = tmp_dir("basic");
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 2).unwrap();
        for i in 0u8..5 {
            store.save(&[i; 4]).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.generation, 4);
        assert_eq!(loaded.payload, vec![4u8; 4]);
        assert!(loaded.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_falls_back_past_corrupt_newest() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 4).unwrap();
        store.save(b"good generation zero").unwrap();
        let g1 = store.save(b"generation one, soon corrupt").unwrap();
        // Flip a payload bit in the newest file.
        let path = store.path_for(g1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.payload, b"good generation zero");
        assert_eq!(loaded.skipped.len(), 1);
        assert!(matches!(
            loaded.skipped[0].error,
            CheckpointError::ChecksumMismatch
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_truncated_newest_falls_back() {
        let dir = tmp_dir("truncate");
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 4).unwrap();
        store.save(b"old but intact").unwrap();
        let g1 = store.save(b"new but torn in half").unwrap();
        let path = store.path_for(g1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.payload, b"old but intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_all_corrupt_is_typed_error() {
        let dir = tmp_dir("allbad");
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 4).unwrap();
        let g = store.save(b"only generation").unwrap();
        fs::write(store.path_for(g), b"BCCKgarbage").unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::NoUsableGeneration)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_empty_is_none() {
        let dir = tmp_dir("empty");
        let store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 2).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_resumes_generation_numbering() {
        let dir = tmp_dir("renumber");
        {
            let mut store =
                CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 8).unwrap();
            store.save(b"a").unwrap();
            store.save(b"b").unwrap();
        }
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 8).unwrap();
        let g = store.save(b"c").unwrap();
        assert_eq!(g, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let dir = tmp_dir("stray");
        let mut store = CheckpointStore::open(&dir, "camp", CheckpointKind::Campaign, 2).unwrap();
        store.save(b"real").unwrap();
        // Simulate a crash mid-write: a stray temp file in the directory.
        fs::write(dir.join("camp-0000000000000009.bcc.tmp-1234"), b"junk").unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.payload, b"real");
        let _ = fs::remove_dir_all(&dir);
    }
}
