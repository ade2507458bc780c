//! The content-addressed on-disk snapshot store.
//!
//! Layout (one store holds every snapshot of a run — or of a whole sweep):
//!
//! ```text
//! <root>/
//!   packs/<64-hex>.pack        the chunks one `save` added, in one file
//!   <name>.json                manifests ("bhsnap/v1")
//!   objects/<2-hex>/<62-hex>   loose chunks: read, never written (stores
//!                              from before packs existed)
//! ```
//!
//! A snapshot is chunked **per column**: each body field (id, cost, mass,
//! phi, pos, vel, acc) of each body set (current, anchor) becomes its own
//! run of fixed-size chunks ([`CHUNK_BODIES`] bodies per chunk), and every
//! chunk is stored once under its SHA-256.  Columns rather than rows because
//! that is where the redundancy lives: between two consecutive-step
//! snapshots the ids, costs and masses are typically bit-identical and a
//! mid-cadence pair shares the entire anchor set, so only the columns that
//! actually moved (pos/vel/acc/phi of the current bodies) cost new storage.
//! The manifest records the chunk hash lists plus the full run identity
//! (scenario, backend, every [`SimConfig`] field with floats as bit-exact
//! hex) — everything [`crate::state::resume`] needs.
//!
//! # Packs
//!
//! One [`Store::save`] stages the chunks the store does not hold yet in
//! memory and commits them as one pack:
//!
//! ```text
//! bhpack/v1 <count, 8 hex digits>\n
//! <chunk SHA-256, 64 hex digits> <payload length, 8 hex digits>\n    × count
//! <payloads, back to back, in header order>
//! ```
//!
//! The file is named by the SHA-256 of its header, so the name vouches for
//! the header and the header's hashes vouch for the payloads.  A store
//! handle keeps a `hash -> (pack, offset, length)` index built from pack
//! headers alone; a chunk the index does not know is looked for as a loose
//! object, then `packs/` is listed again for packs another handle or
//! process added since, and only then is it [`SnapError::MissingChunk`].
//!
//! # Durability
//!
//! Every byte a manifest names is on disk before the manifest can be seen.
//! In order, per save:
//!
//! 1. the pack is written to a temp file in `packs/` and `fsync`ed;
//! 2. it is renamed to its name and `packs/` is `fsync`ed (the `packs`
//!    entry itself was `fsync`ed when [`Store::open`] created it);
//! 3. only then is the manifest written to a temp file in `<root>` and
//!    `fsync`ed;
//! 4. it is renamed to `<name>.json` and `<root>` is `fsync`ed, and `save`
//!    returns.
//!
//! Four flushes per checkpoint that adds chunks, two for one that adds none
//! ([`Saved::fsyncs`] counts them).  A crash leaves either no manifest or a
//! manifest whose every chunk is durable; a failed save removes its temp
//! file, and a pack whose manifest never landed is an unreferenced file that
//! the next save of the same chunks overwrites with the same bytes.
//!
//! Integrity is checked on every read: a chunk whose content no longer
//! matches its name fails with [`SnapError::Corrupt`] (so does a pack whose
//! header is malformed, does not hash to its name, or promises more bytes
//! than the file holds), a chunk the manifest references but the store
//! lacks fails with [`SnapError::MissingChunk`] — structured errors, never
//! a panic, so drivers can report which file to restore from backup.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use engine::knobs::{self, Front};
use engine::snap::{bodies_bits_equal, parse_hex_u32, push_hex_u32, push_hex_u64};
use engine::{FaultPlan, SimConfig};
use nbody::{Body, Tuning, Vec3};
use serde::Value;

use crate::sha256;
use crate::state::{digest_bodies_timed, unhex_f64, unhex_u32, CpuTime, SimState};

/// Manifest format tag; bumped on any incompatible schema change.
pub const FORMAT: &str = "bhsnap/v1";

/// Bodies per chunk.  256 bodies × 16 hex digits × 3 components keeps pos
/// chunks around 12 KiB — small enough that one moved body invalidates
/// little, large enough that a 4096-body snapshot is 16 chunks per column,
/// not thousands of files.
pub const CHUNK_BODIES: usize = 256;

/// A snapshot-store failure.  Every variant carries the offending path or
/// object so the user knows *which* file to repair.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem-level failure (permissions, disk full, unreadable file).
    Io { path: PathBuf, source: std::io::Error },
    /// A stored chunk's content no longer matches its content address.
    Corrupt { hash: String, detail: String },
    /// A manifest chunk reference with no object in the store.
    MissingChunk { hash: String },
    /// A manifest that is not valid `bhsnap/v1` (bad JSON, missing field,
    /// unknown enum name, body-count mismatch, ...).
    Schema { path: PathBuf, detail: String },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io { path, source } => {
                write!(f, "snapshot store I/O error at {}: {source}", path.display())
            }
            SnapError::Corrupt { hash, detail } => {
                write!(f, "snapshot chunk {hash} is corrupt: {detail}")
            }
            SnapError::MissingChunk { hash } => {
                write!(f, "snapshot chunk {hash} is missing from the store")
            }
            SnapError::Schema { path, detail } => {
                write!(f, "snapshot manifest {} is invalid: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-column chunk hash lists for one body set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnHashes {
    pub id: Vec<String>,
    pub cost: Vec<String>,
    pub mass: Vec<String>,
    pub phi: Vec<String>,
    pub pos: Vec<String>,
    pub vel: Vec<String>,
    pub acc: Vec<String>,
}

impl ColumnHashes {
    /// The columns with their stable names, in manifest order.
    pub fn named(&self) -> [(&'static str, &[String]); 7] {
        [
            ("id", &self.id),
            ("cost", &self.cost),
            ("mass", &self.mass),
            ("phi", &self.phi),
            ("pos", &self.pos),
            ("vel", &self.vel),
            ("acc", &self.acc),
        ]
    }

    /// Every chunk hash this set references.
    pub fn all(&self) -> impl Iterator<Item = &str> {
        self.named().into_iter().flat_map(|(_, hashes)| hashes).map(|h| h.as_str())
    }
}

/// A decoded `bhsnap/v1` manifest: the run identity plus the chunk hash
/// lists.  [`crate::diff`] works on manifests alone — no chunk reads — so
/// `snapdiff` over two multi-megabyte snapshots touches two small files.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub scenario: String,
    pub backend: String,
    pub cfg: SimConfig,
    pub step: usize,
    pub anchor_step: usize,
    pub tree_generation: u64,
    /// [`digest_bodies`] of the current / anchor body sets — lets tools
    /// compare end states without materializing bodies.
    pub bodies_digest: String,
    pub anchor_digest: String,
    pub bodies: ColumnHashes,
    pub anchor: ColumnHashes,
}

impl Manifest {
    /// The deduplicated set of chunk hashes the snapshot references.
    pub fn chunk_set(&self) -> BTreeSet<&str> {
        self.bodies.all().chain(self.anchor.all()).collect()
    }
}

/// Outcome of a [`Store::save`]: where the manifest landed, how much of
/// the snapshot was already present (the dedup visible to callers), and
/// what the save did to the disk and the CPU — counted where it happened,
/// not derived from the chunk counts.
#[derive(Debug, Clone)]
pub struct Saved {
    pub manifest_path: PathBuf,
    /// SHA-256 of the manifest text — the stable snapshot token `bhserve`
    /// hands to clients.
    pub manifest_hash: String,
    /// Chunks the snapshot references (deduplicated).
    pub chunks_total: usize,
    /// Chunks that were not already in the store.
    pub chunks_new: usize,
    /// Files created: the manifest, and a pack when `chunks_new > 0`.
    pub files_written: usize,
    /// Bytes in those files.
    pub bytes_written: u64,
    /// `fsync` calls, files and directories alike.
    pub fsyncs: usize,
    /// Host time rendering values as hex text (columns, digest lines) and
    /// the manifest as JSON.
    pub encode_ms: f64,
    /// Host time in SHA-256 (chunks, body digests, manifest hash).
    pub hash_ms: f64,
    /// Host time creating, writing and renaming the files.
    pub write_ms: f64,
    /// Host time waiting on `fsync`.
    pub sync_ms: f64,
}

/// What a save's file writes cost, counted at the calls.
#[derive(Debug, Default)]
struct IoCount {
    files: usize,
    bytes: u64,
    fsyncs: usize,
    write: Duration,
    sync: Duration,
}

const PACK_MAGIC: &[u8] = b"bhpack/v1 ";
/// The header's first line: magic, 8-digit chunk count, newline.
const PACK_HEAD_LEN: usize = PACK_MAGIC.len() + 8 + 1;
/// One header entry: 64-digit hash, space, 8-digit length, newline.
const PACK_ENTRY_LEN: usize = 64 + 1 + 8 + 1;

/// Where one chunk's payload sits.
#[derive(Debug, Clone)]
struct ChunkLoc {
    /// The pack's file name under `packs/`.
    pack: Arc<str>,
    offset: u64,
    len: u32,
}

/// The chunks of every pack read so far, by hash.
#[derive(Debug, Default)]
struct PackIndex {
    packs: HashSet<Arc<str>>,
    chunks: HashMap<String, ChunkLoc>,
}

impl PackIndex {
    /// Enters a pack's chunks, given its header's `(hash, length)` entries.
    fn add_pack(&mut self, pack: &str, entries: Vec<(String, u32)>) {
        let pack: Arc<str> = Arc::from(pack);
        let mut offset = (PACK_HEAD_LEN + PACK_ENTRY_LEN * entries.len()) as u64;
        for (hash, len) in entries {
            self.chunks.insert(hash, ChunkLoc { pack: pack.clone(), offset, len });
            offset += len as u64;
        }
        self.packs.insert(pack);
    }

    /// Reads the header of every `*.pack` in `dir` that is not indexed yet.
    fn scan(&mut self, dir: &Path) -> Result<(), SnapError> {
        let listing = match fs::read_dir(dir) {
            Ok(listing) => listing,
            // A store without packs: written before they existed, or empty.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(SnapError::Io { path: dir.to_path_buf(), source: e }),
        };
        for entry in listing {
            let entry = entry.map_err(|e| SnapError::Io { path: dir.to_path_buf(), source: e })?;
            let name = entry.file_name();
            let Some(name) = name.to_str().filter(|n| n.ends_with(".pack")) else {
                continue; // another save's temp file, or not ours
            };
            if !self.packs.contains(name) {
                let entries = read_pack_header(&entry.path(), name)?;
                self.add_pack(name, entries);
            }
        }
        Ok(())
    }
}

/// Reads and checks one pack's header — the header only, whatever the
/// file's size: it must hash to the pack's name, and the payload lengths it
/// lists must add up to the rest of the file.
fn read_pack_header(path: &Path, name: &str) -> Result<Vec<(String, u32)>, SnapError> {
    let io = |e| SnapError::Io { path: path.to_path_buf(), source: e };
    let stem = name.strip_suffix(".pack").unwrap_or(name);
    let corrupt = |detail: String| SnapError::Corrupt {
        hash: stem.to_string(),
        detail: format!("pack {}: {detail}", path.display()),
    };
    let mut file = fs::File::open(path).map_err(io)?;
    let file_len = file.metadata().map_err(io)?.len();

    let mut header = vec![0u8; PACK_HEAD_LEN];
    if file_len < PACK_HEAD_LEN as u64 {
        return Err(corrupt(format!("{file_len} bytes cannot hold a header")));
    }
    file.read_exact(&mut header).map_err(io)?;
    let count = header
        .strip_prefix(PACK_MAGIC)
        .and_then(|rest| rest.strip_suffix(b"\n"))
        .and_then(parse_hex_u32)
        .ok_or_else(|| corrupt("the first line is not \"bhpack/v1 <count>\"".to_string()))?;
    // The count is input: bound it by the file before allocating for it.
    let header_len = PACK_HEAD_LEN as u64 + PACK_ENTRY_LEN as u64 * count as u64;
    if header_len > file_len {
        return Err(corrupt(format!(
            "the header lists {count} chunks ({header_len} bytes) in a file of {file_len}"
        )));
    }
    header.resize(header_len as usize, 0);
    file.read_exact(&mut header[PACK_HEAD_LEN..]).map_err(io)?;
    let actual = sha256::hex_digest(&header);
    if stem != actual {
        return Err(corrupt(format!("the header hashes to {actual}")));
    }

    let mut entries = Vec::with_capacity(count as usize);
    let mut payload_len = 0u64;
    for line in header[PACK_HEAD_LEN..].chunks_exact(PACK_ENTRY_LEN) {
        let hash = std::str::from_utf8(&line[..64])
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let len = parse_hex_u32(&line[65..73]);
        match (hash, len, line[64], line[73]) {
            (Some(hash), Some(len), b' ', b'\n') => {
                payload_len += len as u64;
                entries.push((hash.to_string(), len));
            }
            _ => return Err(corrupt(format!("malformed header entry {}", entries.len()))),
        }
    }
    if header_len + payload_len != file_len {
        return Err(corrupt(format!(
            "the header promises {} bytes, the file holds {file_len}",
            header_len + payload_len
        )));
    }
    Ok(entries)
}

/// The chunks one save found missing from the store, held in memory until
/// [`Store::commit_pack`] writes them as one file.  Local to that save.
#[derive(Default)]
struct Staged {
    /// `(hash, payload length)` in staging order — the pack's header.
    entries: Vec<(String, u32)>,
    hashes: HashSet<String>,
    /// The payloads, back to back.
    payloads: Vec<u8>,
}

/// Makes temp-file names unique among this process's saves (the process id
/// keeps them apart from another process's).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `parts` as the file `dir/name` so that it is either absent or
/// complete and durable: temp file, `fsync`, rename, `fsync` of `dir`.  A
/// rename without the directory sync can vanish on power loss — for a pack,
/// that would leave a durable manifest naming chunks that are gone.  On
/// failure the temp file is removed.
fn write_durably(
    dir: &Path,
    name: &str,
    parts: &[&[u8]],
    io: &mut IoCount,
) -> Result<(), SnapError> {
    let path = dir.join(name);
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{seq}", std::process::id()));
    let mut write = || -> std::io::Result<()> {
        let begin = Instant::now();
        let mut file = fs::File::create(&tmp)?;
        for part in parts {
            file.write_all(part)?;
        }
        let written = Instant::now();
        file.sync_all()?;
        io.fsyncs += 1;
        let synced = Instant::now();
        fs::rename(&tmp, &path)?;
        let renamed = Instant::now();
        sync_dir(dir)?;
        io.fsyncs += 1;
        io.write += (written - begin) + (renamed - synced);
        io.sync += (synced - written) + renamed.elapsed();
        Ok(())
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(SnapError::Io { path, source: e });
    }
    io.files += 1;
    io.bytes += parts.iter().map(|part| part.len() as u64).sum::<u64>();
    Ok(())
}

/// A content-addressed snapshot store rooted at one directory.
///
/// One handle can be shared by threads (`bhserve` holds one per daemon);
/// several handles, in one process or several, can work on one directory.
pub struct Store {
    root: PathBuf,
    /// Faultline plan consulted at every I/O injection point (sites
    /// `snap.chunk.io`, `snap.chunk.torn`, `snap.chunk.bitflip`,
    /// `snap.manifest.torn`).  Empty — inert — by default.
    faults: FaultPlan,
    index: Mutex<PackIndex>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` and indexes the
    /// packs it holds.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, SnapError> {
        let root = root.as_ref();
        let packs = root.join("packs");
        if !packs.is_dir() {
            fs::create_dir_all(&packs)
                .map_err(|e| SnapError::Io { path: packs.clone(), source: e })?;
            // A pack's own directory entry is synced at every save; the
            // `packs` entry above it, here, once.
            sync_dir(root).map_err(|e| SnapError::Io { path: root.to_path_buf(), source: e })?;
        }
        Store::attach(root)
    }

    /// A handle on whatever `root` holds, creating nothing — all a reader
    /// needs, and the only thing to do to a directory that is not ours to
    /// write in (`bhsim --resume` on a read-only checkout).
    fn attach(root: &Path) -> Result<Store, SnapError> {
        let mut index = PackIndex::default();
        index.scan(&root.join("packs"))?;
        Ok(Store {
            root: root.to_path_buf(),
            faults: FaultPlan::default(),
            index: Mutex::new(index),
        })
    }

    /// Arms the store's faultline injection points with `faults` (builder
    /// style; chaos tests and `bhsim --faults` use this).
    pub fn with_faults(mut self, faults: FaultPlan) -> Store {
        self.faults = faults;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the manifest file for `name`.
    pub fn manifest_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.json"))
    }

    fn packs_dir(&self) -> PathBuf {
        self.root.join("packs")
    }

    /// Where an earlier version's store keeps the chunk `hash`.
    fn object_path(&self, hash: &str) -> PathBuf {
        self.root.join("objects").join(&hash[..2]).join(&hash[2..])
    }

    fn index(&self) -> std::sync::MutexGuard<'_, PackIndex> {
        self.index.lock().expect("no code path panics while holding the pack index")
    }

    /// Hashes one chunk payload and, when neither the store nor this save
    /// holds it yet, stages it for the save's pack.
    fn stage_chunk(
        &self,
        payload: &[u8],
        staged: &mut Staged,
        cpu: &mut CpuTime,
    ) -> Result<String, SnapError> {
        let hash = cpu.hex_digest(payload);
        let held = staged.hashes.contains(&hash)
            || self.index().chunks.contains_key(&hash)
            || self.object_path(&hash).exists();
        if held {
            return Ok(hash);
        }
        if self.faults.fires("snap.chunk.io") {
            return Err(SnapError::Io {
                path: self.packs_dir(),
                source: std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected ENOSPC (faultline site snap.chunk.io)",
                ),
            });
        }
        let stored = if self.faults.fires("snap.chunk.torn") {
            // The failure mode the durable write path exists to rule out: a
            // truncated payload under a valid content address.  The
            // injection plants that end state directly — half the payload
            // under the full payload's hash — so readers must surface it as
            // a structured integrity error.
            &payload[..payload.len() / 2]
        } else {
            payload
        };
        let len = u32::try_from(stored.len()).expect("a chunk is CHUNK_BODIES short lines");
        staged.entries.push((hash.clone(), len));
        staged.hashes.insert(hash.clone());
        staged.payloads.extend_from_slice(stored);
        Ok(hash)
    }

    /// Durably writes the staged chunks as one pack (see the module doc)
    /// and enters them in the index.  Nothing staged, nothing written.
    fn commit_pack(
        &self,
        staged: Staged,
        cpu: &mut CpuTime,
        io: &mut IoCount,
    ) -> Result<(), SnapError> {
        if staged.entries.is_empty() {
            return Ok(());
        }
        let begin = Instant::now();
        let mut header = Vec::with_capacity(PACK_HEAD_LEN + PACK_ENTRY_LEN * staged.entries.len());
        header.extend_from_slice(PACK_MAGIC);
        push_hex_u32(&mut header, staged.entries.len() as u32);
        header.push(b'\n');
        for (hash, len) in &staged.entries {
            header.extend_from_slice(hash.as_bytes());
            header.push(b' ');
            push_hex_u32(&mut header, *len);
            header.push(b'\n');
        }
        cpu.encode += begin.elapsed();
        let name = format!("{}.pack", cpu.hex_digest(&header));
        write_durably(&self.packs_dir(), &name, &[&header, &staged.payloads], io)?;
        self.index().add_pack(&name, staged.entries);
        Ok(())
    }

    /// Finds one chunk's bytes: in the pack the index names, else as a
    /// loose object, else in a pack another handle on this directory added
    /// since this one last listed `packs/`.
    fn read_chunk(&self, hash: &str) -> Result<Vec<u8>, SnapError> {
        let known = self.index().chunks.get(hash).cloned();
        if let Some(loc) = known {
            return self.read_packed(hash, &loc);
        }
        let loose = self.object_path(hash);
        match fs::read(&loose) {
            Ok(payload) => return Ok(payload),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(SnapError::Io { path: loose, source: e }),
        }
        let found = {
            let mut index = self.index();
            index.scan(&self.packs_dir())?;
            index.chunks.get(hash).cloned()
        };
        match found {
            Some(loc) => self.read_packed(hash, &loc),
            None => Err(SnapError::MissingChunk { hash: hash.to_string() }),
        }
    }

    /// Reads the bytes `loc` names.  A pack that is gone is a missing
    /// chunk; one that ends early is corrupt.
    fn read_packed(&self, hash: &str, loc: &ChunkLoc) -> Result<Vec<u8>, SnapError> {
        let path = self.packs_dir().join(&*loc.pack);
        let mut payload = vec![0u8; loc.len as usize];
        let mut read = || -> std::io::Result<()> {
            let mut file = fs::File::open(&path)?;
            file.seek(SeekFrom::Start(loc.offset))?;
            file.read_exact(&mut payload)
        };
        match read() {
            Ok(()) => Ok(payload),
            Err(e) => Err(match e.kind() {
                std::io::ErrorKind::NotFound => SnapError::MissingChunk { hash: hash.to_string() },
                std::io::ErrorKind::UnexpectedEof => SnapError::Corrupt {
                    hash: hash.to_string(),
                    detail: format!("pack {} ends inside the chunk", path.display()),
                },
                _ => SnapError::Io { path, source: e },
            }),
        }
    }

    /// Reads one chunk and verifies its content address.
    fn get_chunk(&self, hash: &str) -> Result<String, SnapError> {
        let mut payload = self.read_chunk(hash)?;
        if !payload.is_empty() && self.faults.fires("snap.chunk.bitflip") {
            // Silent media corruption: flip one bit of the payload on its
            // way in; the content-address check below must catch it.
            payload[0] ^= 0x01;
        }
        let actual = sha256::hex_digest(&payload);
        if actual != hash {
            return Err(SnapError::Corrupt {
                hash: hash.to_string(),
                detail: format!("stored content hashes to {actual}"),
            });
        }
        String::from_utf8(payload).map_err(|_| SnapError::Corrupt {
            hash: hash.to_string(),
            detail: "the payload is not text".to_string(),
        })
    }

    /// Encodes one column of `bodies`, chunk by chunk, into one reused
    /// buffer; returns the chunk hashes.
    fn stage_column(
        &self,
        bodies: &[Body],
        encode: impl Fn(&mut Vec<u8>, &Body),
        staged: &mut Staged,
        cpu: &mut CpuTime,
    ) -> Result<Vec<String>, SnapError> {
        let mut hashes = Vec::with_capacity(bodies.len().div_ceil(CHUNK_BODIES));
        let mut payload = Vec::new();
        for run in bodies.chunks(CHUNK_BODIES) {
            let begin = Instant::now();
            payload.clear();
            for b in run {
                encode(&mut payload, b);
                payload.push(b'\n');
            }
            cpu.encode += begin.elapsed();
            hashes.push(self.stage_chunk(&payload, staged, cpu)?);
        }
        Ok(hashes)
    }

    fn stage_bodies(
        &self,
        bodies: &[Body],
        staged: &mut Staged,
        cpu: &mut CpuTime,
    ) -> Result<ColumnHashes, SnapError> {
        Ok(ColumnHashes {
            id: self.stage_column(bodies, |out, b| push_hex_u32(out, b.id), staged, cpu)?,
            cost: self.stage_column(bodies, |out, b| push_hex_u32(out, b.cost), staged, cpu)?,
            mass: self.stage_column(bodies, |out, b| push_f64(out, b.mass), staged, cpu)?,
            phi: self.stage_column(bodies, |out, b| push_f64(out, b.phi), staged, cpu)?,
            pos: self.stage_column(bodies, |out, b| push_vec3(out, b.pos), staged, cpu)?,
            vel: self.stage_column(bodies, |out, b| push_vec3(out, b.vel), staged, cpu)?,
            acc: self.stage_column(bodies, |out, b| push_vec3(out, b.acc), staged, cpu)?,
        })
    }

    /// Reads all lines of one column, checking the line count.
    fn read_column(
        &self,
        hashes: &[String],
        n: usize,
        what: &str,
    ) -> Result<Vec<String>, SnapError> {
        let mut lines = Vec::with_capacity(n);
        for hash in hashes {
            let payload = self.get_chunk(hash)?;
            lines.extend(payload.lines().map(str::to_string));
        }
        if lines.len() != n {
            return Err(SnapError::Corrupt {
                hash: hashes.first().cloned().unwrap_or_default(),
                detail: format!("column {what} holds {} values, expected {n}", lines.len()),
            });
        }
        Ok(lines)
    }

    fn read_bodies(&self, cols: &ColumnHashes, n: usize) -> Result<Vec<Body>, SnapError> {
        let id = self.read_column(&cols.id, n, "id")?;
        let cost = self.read_column(&cols.cost, n, "cost")?;
        let mass = self.read_column(&cols.mass, n, "mass")?;
        let phi = self.read_column(&cols.phi, n, "phi")?;
        let pos = self.read_column(&cols.pos, n, "pos")?;
        let vel = self.read_column(&cols.vel, n, "vel")?;
        let acc = self.read_column(&cols.acc, n, "acc")?;
        let mut bodies = Vec::with_capacity(n);
        for i in 0..n {
            bodies.push(Body {
                id: parse_u32(&id[i], "id")?,
                cost: parse_u32(&cost[i], "cost")?,
                mass: parse_f64(&mass[i], "mass")?,
                phi: parse_f64(&phi[i], "phi")?,
                pos: parse_vec3(&pos[i], "pos")?,
                vel: parse_vec3(&vel[i], "vel")?,
                acc: parse_vec3(&acc[i], "acc")?,
            });
        }
        Ok(bodies)
    }

    /// Saves `state` as `<name>.json`, deduplicating chunks against
    /// everything already in the store.
    pub fn save(&self, state: &SimState, name: &str) -> Result<Saved, SnapError> {
        self.save_as(state, Some(name))
    }

    /// Saves `state` named by its own manifest hash and returns that hash as
    /// the token — the handle `bhserve` gives clients for a suspended
    /// session.  Saving the same state twice yields the same token and
    /// writes no chunk again.
    pub fn save_token(&self, state: &SimState) -> Result<Saved, SnapError> {
        self.save_as(state, None)
    }

    /// One checkpoint: every value encoded once, the new chunks committed
    /// as one pack, then — and only then — the manifest.
    fn save_as(&self, state: &SimState, name: Option<&str>) -> Result<Saved, SnapError> {
        let mut staged = Staged::default();
        let mut cpu = CpuTime::default();
        let bodies = self.stage_bodies(&state.bodies, &mut staged, &mut cpu)?;
        let bodies_digest = digest_bodies_timed(&state.bodies, &mut cpu);
        // A configuration without cross-step tree state anchors at the
        // current bodies: the same bytes, so the same hashes.
        let (anchor, anchor_digest) = if bodies_bits_equal(&state.anchor, &state.bodies) {
            (bodies.clone(), bodies_digest.clone())
        } else {
            let anchor = self.stage_bodies(&state.anchor, &mut staged, &mut cpu)?;
            (anchor, digest_bodies_timed(&state.anchor, &mut cpu))
        };
        let manifest = Manifest {
            scenario: state.scenario.clone(),
            backend: state.backend.clone(),
            cfg: state.cfg.clone(),
            step: state.step,
            anchor_step: state.anchor_step,
            tree_generation: state.tree_generation,
            bodies_digest,
            anchor_digest,
            bodies,
            anchor,
        };
        let begin = Instant::now();
        let text = serde_json::to_string_pretty(&encode_manifest(&manifest))
            .expect("manifest Value always serializes");
        cpu.encode += begin.elapsed();
        let manifest_hash = cpu.hex_digest(text.as_bytes());

        let mut io = IoCount::default();
        let chunks_new = staged.entries.len();
        self.commit_pack(staged, &mut cpu, &mut io)?;
        let manifest_path = self.manifest_path(name.unwrap_or(&manifest_hash));
        self.write_manifest(&manifest_path, &text, &mut io)?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Ok(Saved {
            manifest_path,
            manifest_hash,
            chunks_total: manifest.chunk_set().len(),
            chunks_new,
            files_written: io.files,
            bytes_written: io.bytes,
            fsyncs: io.fsyncs,
            encode_ms: ms(cpu.encode),
            hash_ms: ms(cpu.hash),
            write_ms: ms(io.write),
            sync_ms: ms(io.sync),
        })
    }

    /// Durably writes a manifest ([`write_durably`]) — a manifest *names*
    /// the snapshot, so a torn manifest loses the whole checkpoint even
    /// when every chunk survived.  The `snap.manifest.torn` faultline site
    /// plants exactly that end state (a truncated manifest), which readers
    /// surface as a structured [`SnapError::Schema`].
    fn write_manifest(&self, path: &Path, text: &str, io: &mut IoCount) -> Result<(), SnapError> {
        if self.faults.fires("snap.manifest.torn") {
            let torn = &text[..text.len() / 2];
            return fs::write(path, torn)
                .map_err(|e| SnapError::Io { path: path.to_path_buf(), source: e });
        }
        let name = path.file_name().and_then(|n| n.to_str()).expect("manifest_path names a file");
        write_durably(&self.root, name, &[text.as_bytes()], io)
    }

    /// Loads the state saved under `name` (a [`Store::save`] name or a
    /// [`Store::save_token`] token).
    pub fn load(&self, name: &str) -> Result<SimState, SnapError> {
        self.load_from(&self.manifest_path(name))
    }

    /// Loads a state from an explicit manifest path inside this store.
    pub fn load_from(&self, manifest_path: &Path) -> Result<SimState, SnapError> {
        let manifest = load_manifest(manifest_path)?;
        let n = manifest.cfg.nbodies;
        let bodies = self.read_bodies(&manifest.bodies, n)?;
        let anchor = self.read_bodies(&manifest.anchor, n)?;
        Ok(SimState {
            scenario: manifest.scenario,
            backend: manifest.backend,
            cfg: manifest.cfg,
            step: manifest.step,
            anchor_step: manifest.anchor_step,
            tree_generation: manifest.tree_generation,
            bodies,
            anchor,
        })
    }
}

/// `fsync`s a directory so a just-renamed entry survives power loss.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Loads a full [`SimState`] from a manifest path, taking the manifest's
/// parent directory as the store root — the one-call entry `bhsim --resume
/// PATH` uses.
pub fn load_state(manifest_path: &Path) -> Result<SimState, SnapError> {
    let root =
        manifest_path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    Store::attach(root)?.load_from(manifest_path)
}

/// Loads and decodes a manifest (no chunk reads) — what `snapdiff` uses.
pub fn load_manifest(path: &Path) -> Result<Manifest, SnapError> {
    let text = fs::read_to_string(path)
        .map_err(|e| SnapError::Io { path: path.to_path_buf(), source: e })?;
    let value =
        serde_json::from_str(&text).map_err(|e| schema(path, format!("not valid JSON: {e:?}")))?;
    decode_manifest(&value, path)
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_hex_u64(out, v.to_bits());
}

fn push_vec3(out: &mut Vec<u8>, v: Vec3) {
    push_f64(out, v.x);
    out.push(b' ');
    push_f64(out, v.y);
    out.push(b' ');
    push_f64(out, v.z);
}

fn parse_u32(text: &str, what: &str) -> Result<u32, SnapError> {
    unhex_u32(text).ok_or_else(|| SnapError::Corrupt {
        hash: String::new(),
        detail: format!("bad {what} value {text:?}"),
    })
}

fn parse_f64(text: &str, what: &str) -> Result<f64, SnapError> {
    unhex_f64(text).ok_or_else(|| SnapError::Corrupt {
        hash: String::new(),
        detail: format!("bad {what} value {text:?}"),
    })
}

fn parse_vec3(text: &str, what: &str) -> Result<Vec3, SnapError> {
    let mut parts = text.split(' ');
    let mut next = || {
        parts.next().and_then(unhex_f64).ok_or_else(|| SnapError::Corrupt {
            hash: String::new(),
            detail: format!("bad {what} triple {text:?}"),
        })
    };
    let (x, y, z) = (next()?, next()?, next()?);
    Ok(Vec3::new(x, y, z))
}

// --- manifest encoding -----------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_val(s: &str) -> Value {
    Value::String(s.to_string())
}

fn hashes_val(hashes: &[String]) -> Value {
    Value::Array(hashes.iter().map(|h| str_val(h)).collect())
}

fn encode_columns(cols: &ColumnHashes) -> Value {
    obj(cols.named().into_iter().map(|(name, hashes)| (name, hashes_val(hashes))).collect())
}

fn encode_manifest(m: &Manifest) -> Value {
    obj(vec![
        ("format", str_val(FORMAT)),
        ("scenario", str_val(&m.scenario)),
        ("backend", str_val(&m.backend)),
        ("step", Value::UInt(m.step as u64)),
        ("anchor_step", Value::UInt(m.anchor_step as u64)),
        ("tree_generation", Value::UInt(m.tree_generation)),
        ("bodies_digest", str_val(&m.bodies_digest)),
        ("anchor_digest", str_val(&m.anchor_digest)),
        ("config", knobs::encode(Front::Manifest, &m.cfg)),
        ("bodies", encode_columns(&m.bodies)),
        ("anchor", encode_columns(&m.anchor)),
    ])
}

// --- manifest decoding -----------------------------------------------------
//
// The vendored serde is serialize-only, so decoding walks `Value` by hand.
// Every missing/odd field names itself in the error: the manifest is a
// user-visible file that people will edit and corrupt.

fn schema(path: &Path, detail: String) -> SnapError {
    SnapError::Schema { path: path.to_path_buf(), detail }
}

fn req<'a>(v: &'a Value, key: &str, path: &Path) -> Result<&'a Value, SnapError> {
    v.get(key).ok_or_else(|| schema(path, format!("missing field {key:?}")))
}

fn req_u64(v: &Value, key: &str, path: &Path) -> Result<u64, SnapError> {
    req(v, key, path)?
        .as_u64()
        .ok_or_else(|| schema(path, format!("field {key:?} is not an unsigned integer")))
}

fn req_usize(v: &Value, key: &str, path: &Path) -> Result<usize, SnapError> {
    Ok(req_u64(v, key, path)? as usize)
}

fn req_str<'a>(v: &'a Value, key: &str, path: &Path) -> Result<&'a str, SnapError> {
    req(v, key, path)?
        .as_str()
        .ok_or_else(|| schema(path, format!("field {key:?} is not a string")))
}

fn req_hashes(v: &Value, key: &str, path: &Path) -> Result<Vec<String>, SnapError> {
    let items = req(v, key, path)?
        .as_array()
        .ok_or_else(|| schema(path, format!("field {key:?} is not an array")))?;
    items
        .iter()
        .map(|item| {
            let s = item
                .as_str()
                .ok_or_else(|| schema(path, format!("field {key:?} holds a non-string hash")))?;
            if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(schema(path, format!("field {key:?} holds a malformed hash {s:?}")));
            }
            Ok(s.to_string())
        })
        .collect()
}

fn decode_columns(v: &Value, path: &Path) -> Result<ColumnHashes, SnapError> {
    Ok(ColumnHashes {
        id: req_hashes(v, "id", path)?,
        cost: req_hashes(v, "cost", path)?,
        mass: req_hashes(v, "mass", path)?,
        phi: req_hashes(v, "phi", path)?,
        pos: req_hashes(v, "pos", path)?,
        vel: req_hashes(v, "vel", path)?,
        acc: req_hashes(v, "acc", path)?,
    })
}

/// A manifest's `config` object, read by the knob table: every knob that
/// applies must be present and fit its field.
fn decode_config(v: &Value, path: &Path) -> Result<SimConfig, SnapError> {
    knobs::config(Front::Manifest, v, &Tuning::default()).map_err(|detail| schema(path, detail))
}

fn decode_manifest(v: &Value, path: &Path) -> Result<Manifest, SnapError> {
    let format = req_str(v, "format", path)?;
    if format != FORMAT {
        return Err(schema(path, format!("format {format:?}, this build reads {FORMAT:?}")));
    }
    let cfg = decode_config(req(v, "config", path)?, path)?;
    let step = req_usize(v, "step", path)?;
    let anchor_step = req_usize(v, "anchor_step", path)?;
    if anchor_step > step {
        return Err(schema(path, format!("anchor_step {anchor_step} is beyond step {step}")));
    }
    Ok(Manifest {
        scenario: req_str(v, "scenario", path)?.to_string(),
        backend: req_str(v, "backend", path)?.to_string(),
        cfg,
        step,
        anchor_step,
        tree_generation: req_u64(v, "tree_generation", path)?,
        bodies_digest: req_str(v, "bodies_digest", path)?.to_string(),
        anchor_digest: req_str(v, "anchor_digest", path)?.to_string(),
        bodies: decode_columns(req(v, "bodies", path)?, path)?,
        anchor: decode_columns(req(v, "anchor", path)?, path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::hex_f64;
    use engine::config::SUBSPACE_ALPHA;
    use engine::snap::bodies_bits_equal;
    use engine::{OptLevel, TreePolicy, WalkMode};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snapstore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every regular file under `dir`, relative, sorted.
    fn files_under(dir: &Path) -> Vec<String> {
        fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
            for entry in fs::read_dir(dir).expect("read_dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    walk(&path, root, out);
                } else {
                    out.push(path.strip_prefix(root).expect("under root").display().to_string());
                }
            }
        }
        let mut out = Vec::new();
        walk(dir, dir, &mut out);
        out.sort();
        out
    }

    fn packs_in(dir: &Path) -> Vec<PathBuf> {
        files_under(dir).iter().filter(|f| f.ends_with(".pack")).map(|f| dir.join(f)).collect()
    }

    fn only_pack(dir: &Path) -> PathBuf {
        let packs = packs_in(dir);
        assert_eq!(packs.len(), 1, "{packs:?}");
        packs[0].clone()
    }

    fn sample_bodies(n: usize, salt: f64) -> Vec<Body> {
        (0..n)
            .map(|i| {
                let mut b = Body::at_rest(i as u32, Vec3::new(i as f64, salt, -1.0), 1.5);
                b.vel = Vec3::new(salt * 0.25, i as f64 * 1e-3, 0.0);
                b.acc = Vec3::new(0.0, -salt, i as f64);
                b.phi = -(i as f64) - salt;
                b.cost = 1 + (i as u32 % 7);
                b
            })
            .collect()
    }

    fn sample_state(n: usize) -> SimState {
        let mut cfg = SimConfig::test(n, 2, OptLevel::CacheLocalTree);
        cfg.steps = 8;
        cfg.measured_steps = 4;
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 4, drift_threshold: 0.25 };
        cfg.walk = WalkMode::Group;
        cfg.seed = 42;
        SimState {
            scenario: "plummer".to_string(),
            backend: "upc".to_string(),
            cfg,
            step: 6,
            anchor_step: 4,
            tree_generation: 2,
            bodies: sample_bodies(n, 3.5),
            anchor: sample_bodies(n, 1.25),
        }
    }

    /// One step on, mid-cadence: the anchor and id/cost/mass stay, the
    /// moving columns (pos/vel/acc/phi) change.
    fn stepped(mut state: SimState) -> SimState {
        state.step += 1;
        for b in &mut state.bodies {
            b.pos.x += 1e-6;
            b.vel.y += 1e-6;
            b.acc.z += 1e-6;
            b.phi += 1e-6;
        }
        state
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir).expect("open");
        let state = sample_state(300); // spans two chunks per column
        let saved = store.save(&state, "step-0006").expect("save");
        assert!(saved.manifest_path.ends_with("step-0006.json"));
        assert_eq!(saved.chunks_new, saved.chunks_total, "fresh store stores every chunk");

        let loaded = store.load("step-0006").expect("load");
        assert_eq!(loaded.scenario, "plummer");
        assert_eq!(loaded.backend, "upc");
        assert_eq!(loaded.step, 6);
        assert_eq!(loaded.anchor_step, 4);
        assert_eq!(loaded.steps_since_rebuild(), 2);
        assert_eq!(loaded.tree_generation, 2);
        assert!(bodies_bits_equal(&loaded.bodies, &state.bodies));
        assert!(bodies_bits_equal(&loaded.anchor, &state.anchor));
        assert_eq!(loaded.cfg.tree_policy, state.cfg.tree_policy);
        assert_eq!(loaded.cfg.walk, WalkMode::Group);
        assert_eq!(loaded.cfg.seed, 42);
        assert_eq!(loaded.cfg.machine.ranks(), state.cfg.machine.ranks());
        assert_eq!(loaded.cfg.dt.to_bits(), state.cfg.dt.to_bits());

        // The free-function entry (what `bhsim --resume` uses).
        let via_path = load_state(&saved.manifest_path).expect("load_state");
        assert!(bodies_bits_equal(&via_path.bodies, &state.bodies));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_snapshots_share_most_chunks() {
        let dir = temp_dir("dedup");
        let store = Store::open(&dir).expect("open");
        let s1 = sample_state(300);
        // One step later, mid-cadence: anchor identical, current bodies
        // moved (pos/vel/acc/phi change; id/cost/mass do not).
        let s2 = stepped(s1.clone());
        let first = store.save(&s1, "step-0006").expect("save 1");
        let second = store.save(&s2, "step-0007").expect("save 2");
        assert!(
            second.chunks_new * 2 < second.chunks_total,
            "content addressing must share >50% of chunks between consecutive snapshots \
             (shared {} of {})",
            second.chunks_total - second.chunks_new,
            second.chunks_total
        );
        assert_eq!(first.chunks_total, second.chunks_total);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_token_is_idempotent_and_content_named() {
        let dir = temp_dir("token");
        let store = Store::open(&dir).expect("open");
        let state = sample_state(64);
        let a = store.save_token(&state).expect("first");
        let b = store.save_token(&state).expect("second");
        assert_eq!(a.manifest_hash, b.manifest_hash);
        assert_eq!(b.chunks_new, 0, "second save of identical state writes nothing");
        let loaded = store.load(&a.manifest_hash).expect("load by token");
        assert!(bodies_bits_equal(&loaded.bodies, &state.bodies));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_chunk_is_a_structured_error() {
        let dir = temp_dir("corrupt");
        let store = Store::open(&dir).expect("open");
        let state = sample_state(64);
        store.save(&state, "snap").expect("save");

        // Flip one payload byte inside the pack (its last byte is a chunk's).
        let some_pack = only_pack(&dir);
        let mut bytes = fs::read(&some_pack).expect("read pack");
        *bytes.last_mut().expect("a pack is not empty") ^= 0x01;
        fs::write(&some_pack, bytes).expect("corrupt");

        match store.load("snap") {
            Err(SnapError::Corrupt { hash, .. }) => assert_eq!(hash.len(), 64),
            other => panic!("expected SnapError::Corrupt, got {other:?}"),
        }

        // Delete it instead: missing chunk, also structured.
        fs::remove_file(&some_pack).expect("remove");
        match store.load("snap") {
            Err(SnapError::MissingChunk { hash }) => assert_eq!(hash.len(), 64),
            other => panic!("expected SnapError::MissingChunk, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_manifests_fail_with_schema_errors() {
        let dir = temp_dir("schema");
        let store = Store::open(&dir).expect("open");
        let path = store.manifest_path("bad");

        fs::write(&path, "{ not json").expect("write");
        assert!(matches!(store.load("bad"), Err(SnapError::Schema { .. })));

        fs::write(&path, "{\"format\": \"bhsnap/v999\"}").expect("write");
        match store.load("bad") {
            Err(SnapError::Schema { detail, .. }) => assert!(detail.contains("bhsnap/v999")),
            other => panic!("expected SnapError::Schema, got {other:?}"),
        }

        let state = sample_state(16);
        let saved = store.save(&state, "good").expect("save");
        let mangled = fs::read_to_string(&saved.manifest_path)
            .expect("read")
            .replace("\"walk\": \"group\"", "\"walk\": \"sideways\"");
        fs::write(&path, mangled).expect("write");
        match store.load("bad") {
            Err(SnapError::Schema { detail, .. }) => {
                assert!(detail.contains("sideways"), "{detail}")
            }
            other => panic!("expected SnapError::Schema, got {other:?}"),
        }

        // A retired policy, the paper's constants at any other value and an
        // integer its field cannot hold: each refusal names its field.
        let good = fs::read_to_string(&saved.manifest_path).expect("read");
        let alpha = format!("\"alpha\": \"{}\"", hex_f64(SUBSPACE_ALPHA));
        for (from, to, named) in [
            ("\"name\": \"reuse\"", "\"name\": \"adaptive\"", "adaptive"),
            (alpha.as_str(), "\"alpha\": \"3fe0000000000000\"", "alpha"),
            ("\"leaf_capacity\": 1", "\"leaf_capacity\": 8", "leaf_capacity"),
            ("\"max_depth\": 48", "\"max_depth\": 6", "max_depth"),
            // 2^32 + 3 is 3 once truncated to 32 bits: never resumed as 3.
            (
                "\"fine_grained_fields\": 3",
                "\"fine_grained_fields\": 4294967299",
                "fine_grained_fields",
            ),
        ] {
            assert!(good.contains(from), "{from} not in the manifest");
            fs::write(&path, good.replace(from, to)).expect("write");
            match store.load("bad") {
                Err(SnapError::Schema { detail, .. }) => {
                    assert!(detail.contains(named), "{named}: {detail}")
                }
                other => panic!("{named}: expected SnapError::Schema, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
    fn assert_no_temp_files(dir: &Path) {
        let files = files_under(dir);
        assert!(!files.iter().any(|f| f.contains(".tmp-")), "temp file left behind: {files:?}");
    }

    #[test]
    fn a_checkpoint_is_one_pack_and_four_flushes() {
        let dir = temp_dir("flushes");
        let store = Store::open(&dir).expect("open");
        let state = sample_state(300);

        let first = store.save(&state, "step-0006").expect("save");
        assert_eq!(
            (first.files_written, first.fsyncs),
            (2, 4),
            "pack + manifest, each synced twice"
        );
        let on_disk: u64 = files_under(&dir)
            .iter()
            .map(|f| fs::metadata(dir.join(f)).expect("metadata").len())
            .sum();
        assert_eq!(first.bytes_written, on_disk, "counted bytes are the bytes in the store");
        assert_eq!(files_under(&dir).len(), 2);
        assert!(first.encode_ms > 0.0 && first.hash_ms > 0.0);
        assert!(first.write_ms > 0.0 && first.sync_ms > 0.0);

        // Everything dedups: no pack, just the manifest and its directory.
        let again = store.save(&state, "step-0006-again").expect("save");
        assert_eq!((again.chunks_new, again.files_written, again.fsyncs), (0, 1, 2));
        let token = store.save_token(&state).expect("first token");
        let token_again = store.save_token(&state).expect("second token");
        assert_eq!((token_again.chunks_new, token_again.fsyncs), (0, 2));
        assert_eq!(token.manifest_hash, token_again.manifest_hash);
        assert_eq!(packs_in(&dir).len(), 1, "only the first save had chunks to pack");

        // The next step adds the moved columns only: again one pack.
        let next = store.save(&stepped(state), "step-0007").expect("save");
        assert!(next.chunks_new > 0 && next.chunks_new < next.chunks_total);
        assert_eq!((next.files_written, next.fsyncs), (2, 4));
        assert_eq!(packs_in(&dir).len(), 2);
        assert_no_temp_files(&dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_hashes_are_the_ones_earlier_versions_gave() {
        // Recorded from the loose-object store (commit 028177a): the token
        // `bhserve` hands out for a state must not move with the layout.
        let dir = temp_dir("pins");
        let store = Store::open(&dir).expect("open");
        let token = store.save_token(&sample_state(64)).expect("save");
        assert_eq!(
            token.manifest_hash,
            "151788d30bd851d731828cd8aefe59e9be36b0e12fd2a7eb18cf662058ac785f"
        );
        let named = store.save(&sample_state(300), "x").expect("save");
        assert_eq!(
            named.manifest_hash,
            "941940897304831b79056030bff6344f1d70b0381d0ab85d3df8dc9622b7a756"
        );
        // The token of that state is the same hash: manifest bytes, chunk
        // addresses and the hasher together, whichever block path it took.
        let token300 = store.save_token(&sample_state(300)).expect("save");
        assert_eq!(token300.manifest_hash, named.manifest_hash);
        // Anchor bit-equal to the bodies: hashed once, listed twice.
        let mut stateless = sample_state(300);
        stateless.anchor = stateless.bodies.clone();
        stateless.anchor_step = stateless.step;
        let shared = store.save_token(&stateless).expect("save");
        assert_eq!(
            shared.manifest_hash,
            "9b3d94557d25ef7bfd3da899122c895e80979cf97c84587d15b442cb66f9eea0"
        );
        let manifest = load_manifest(&shared.manifest_path).expect("manifest");
        assert_eq!(manifest.bodies, manifest.anchor);
        assert_eq!(manifest.bodies_digest, manifest.anchor_digest);
        let loaded = store.load(&shared.manifest_hash).expect("load");
        assert!(bodies_bits_equal(&loaded.anchor, &stateless.anchor));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_save_leaves_nothing_behind() {
        let (s0, s1) = (sample_state(300), stepped(sample_state(300)));
        // What a store that never fails gives.
        let reference_dir = temp_dir("fail-reference");
        let reference = Store::open(&reference_dir).expect("open");
        reference.save(&s0, "step-0006").expect("save");
        let clean = reference.save(&s1, "step-0007").expect("save");
        assert!(clean.chunks_new >= 3);

        for k in [1, clean.chunks_new / 2, clean.chunks_new] {
            let dir = temp_dir(&format!("fail-{k}"));
            Store::open(&dir).expect("open").save(&s0, "step-0006").expect("save");
            let before = files_under(&dir);

            let spec = format!("snap.chunk.io@n{k}");
            let store = Store::open(&dir)
                .expect("open")
                .with_faults(FaultPlan::parse(&spec).expect("spec"));
            assert!(matches!(store.save(&s1, "step-0007"), Err(SnapError::Io { .. })), "{spec}");
            assert_eq!(files_under(&dir), before, "{spec}: no pack, no manifest, no temp file");
            let earlier = store.load("step-0006").expect("the earlier checkpoint loads");
            assert!(bodies_bits_equal(&earlier.bodies, &s0.bodies));
            assert!(bodies_bits_equal(&earlier.anchor, &s0.anchor));

            let retried = store.save(&s1, "step-0007").expect("the fault was one-shot");
            assert_eq!(retried.manifest_hash, clean.manifest_hash, "{spec}");
            assert_eq!(retried.chunks_new, clean.chunks_new, "{spec}");
            let loaded = store.load("step-0007").expect("load");
            assert!(bodies_bits_equal(&loaded.bodies, &s1.bodies));
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&reference_dir);
    }

    #[test]
    fn a_pack_without_its_manifest_is_a_harmless_orphan() {
        let dir = temp_dir("orphan");
        let store = Store::open(&dir).expect("open");
        let (s0, s1) = (sample_state(300), stepped(sample_state(300)));
        store.save(&s0, "step-0006").expect("save");
        // The manifest's rename fails after the pack has landed: its name is
        // taken by a directory.
        fs::create_dir(store.manifest_path("step-0007")).expect("mkdir");
        match store.save(&s1, "step-0007") {
            Err(SnapError::Io { path, .. }) => assert!(path.ends_with("step-0007.json")),
            other => panic!("expected SnapError::Io, got {other:?}"),
        }
        assert_eq!(packs_in(&dir).len(), 2, "the pack was committed before the manifest");
        assert_no_temp_files(&dir);
        fs::remove_dir(store.manifest_path("step-0007")).expect("rmdir");

        // A fresh handle indexes the orphan without complaint, the earlier
        // checkpoint loads, and the retried save finds its chunks in place.
        let fresh = Store::open(&dir).expect("reopen");
        let earlier = fresh.load("step-0006").expect("load");
        assert!(bodies_bits_equal(&earlier.bodies, &s0.bodies));
        let retried = fresh.save(&s1, "step-0007").expect("save");
        assert_eq!((retried.chunks_new, retried.fsyncs), (0, 2));
        let loaded = fresh.load("step-0007").expect("load");
        assert!(bodies_bits_equal(&loaded.bodies, &s1.bodies));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_on_one_directory_see_each_other() {
        let dir = temp_dir("handles");
        let a = Store::open(&dir).expect("open a");
        let b = Store::open(&dir).expect("open b"); // indexed while the store was empty
        let (s0, s1) = (sample_state(300), stepped(sample_state(300)));
        a.save(&s0, "from-a").expect("save");
        let loaded = b.load("from-a").expect("b lists packs/ again on the miss");
        assert!(bodies_bits_equal(&loaded.bodies, &s0.bodies));
        // And back: b adds only what a's pack does not hold; a finds it.
        let saved = b.save(&s1, "from-b").expect("save");
        assert!(saved.chunks_new < saved.chunks_total);
        let loaded = a.load("from-b").expect("load");
        assert!(bodies_bits_equal(&loaded.bodies, &s1.bodies));
        // A hash nobody holds is still a structured miss.
        let gone = "0".repeat(64);
        assert!(matches!(a.get_chunk(&gone), Err(SnapError::MissingChunk { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes `header` + `payloads` as a pack named by the header's hash.
    fn plant_pack(dir: &Path, header: &[u8], payloads: &[u8]) -> PathBuf {
        let path = dir.join("packs").join(format!("{}.pack", sha256::hex_digest(header)));
        fs::write(&path, [header, payloads].concat()).expect("plant pack");
        path
    }

    #[test]
    fn damaged_packs_are_structured_errors() {
        let expect_corrupt = |dir: &Path, what: &str, needle: &str| match Store::open(dir) {
            Err(SnapError::Corrupt { hash, detail }) => {
                assert_eq!(hash.len(), 64, "{what}");
                assert!(detail.contains(needle), "{what}: {detail}");
            }
            other => panic!("{what}: expected SnapError::Corrupt, got {:?}", other.map(|_| ())),
        };
        let fresh = |tag: &str| {
            let dir = temp_dir(tag);
            let saved = Store::open(&dir).expect("open").save(&sample_state(64), "snap");
            (dir, saved.expect("save").manifest_path)
        };

        // Truncated inside the payloads, and inside the header.
        let (dir, manifest) = fresh("pack-truncated");
        let pack = only_pack(&dir);
        let bytes = fs::read(&pack).expect("read");
        fs::write(&pack, &bytes[..bytes.len() - 10]).expect("truncate");
        expect_corrupt(&dir, "short payloads", "the file holds");
        assert!(matches!(load_state(&manifest), Err(SnapError::Corrupt { .. })));
        fs::write(&pack, &bytes[..PACK_HEAD_LEN + 30]).expect("truncate");
        expect_corrupt(&dir, "short header", "in a file of");
        fs::write(&pack, b"bhpack").expect("truncate");
        expect_corrupt(&dir, "no header", "cannot hold a header");
        let _ = fs::remove_dir_all(&dir);

        // A header that does not hash to the file's name.
        let (dir, _) = fresh("pack-renamed");
        let pack = only_pack(&dir);
        let mut bytes = fs::read(&pack).expect("read");
        bytes[PACK_HEAD_LEN] ^= 0x01; // first digit of the first chunk hash
        fs::write(&pack, bytes).expect("write");
        expect_corrupt(&dir, "edited header", "the header hashes to");
        let _ = fs::remove_dir_all(&dir);

        // Well-named packs with malformed headers.
        let (dir, _) = fresh("pack-malformed");
        let planted = plant_pack(&dir, b"bhpack/v2 00000000\n", b"");
        expect_corrupt(&dir, "magic", "first line");
        fs::remove_file(planted).expect("remove");
        let planted = plant_pack(&dir, b"bhpack/v1 +0000000\n", b"");
        expect_corrupt(&dir, "signed count", "first line");
        fs::remove_file(planted).expect("remove");
        // A count the file cannot hold must not be allocated for.
        let planted = plant_pack(&dir, b"bhpack/v1 ffffffff\n", b"");
        expect_corrupt(&dir, "huge count", "in a file of");
        fs::remove_file(planted).expect("remove");
        let entry = format!("bhpack/v1 00000001\n{} 0000000g\n", "a".repeat(64));
        let planted = plant_pack(&dir, entry.as_bytes(), b"");
        expect_corrupt(&dir, "bad length", "malformed header entry 0");
        fs::remove_file(planted).expect("remove");
        let entry = format!("bhpack/v1 00000001\n{}z 00000000\n", "a".repeat(63));
        let planted = plant_pack(&dir, entry.as_bytes(), b"");
        expect_corrupt(&dir, "bad hash", "malformed header entry 0");
        fs::remove_file(planted).expect("remove");
        // An empty, well-formed pack and a stray file are both fine.
        plant_pack(&dir, b"bhpack/v1 00000000\n", b"");
        fs::write(dir.join("packs").join(".tmp-1-1"), b"half a pack").expect("stray");
        Store::open(&dir).expect("open").load("snap").expect("load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pack_that_shrinks_under_a_live_handle_is_corrupt_not_a_panic() {
        let dir = temp_dir("pack-shrinks");
        let store = Store::open(&dir).expect("open");
        store.save(&sample_state(64), "snap").expect("save");
        let pack = only_pack(&dir);
        let bytes = fs::read(&pack).expect("read");
        fs::write(&pack, &bytes[..bytes.len() - 10]).expect("truncate");
        match store.load("snap") {
            Err(SnapError::Corrupt { detail, .. }) => {
                assert!(detail.contains("ends inside the chunk"), "{detail}")
            }
            other => panic!("expected SnapError::Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reading_creates_nothing() {
        let dir = temp_dir("readonly");
        let saved = Store::open(&dir).expect("open").save(&sample_state(16), "snap").expect("save");
        fs::create_dir(dir.join("elsewhere")).expect("mkdir");
        let moved = dir.join("elsewhere").join("snap.json");
        fs::copy(&saved.manifest_path, &moved).expect("copy");
        // The manifest alone in a directory: its chunks are missing, and
        // looking for them made no `packs/` there.
        assert!(matches!(load_state(&moved), Err(SnapError::MissingChunk { .. })));
        assert_eq!(files_under(&dir.join("elsewhere")), ["snap.json"]);
        assert!(!dir.join("elsewhere").join("packs").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_faults_surface_as_structured_errors() {
        let dir = temp_dir("fault-io");
        let store = Store::open(&dir)
            .expect("open store")
            .with_faults(FaultPlan::parse("snap.chunk.io@n1").expect("spec"));
        match store.save(&sample_state(16), "doomed") {
            Err(SnapError::Io { source, .. }) => {
                assert!(source.to_string().contains("injected ENOSPC"), "{source}")
            }
            other => panic!("expected SnapError::Io, got {other:?}"),
        }
        // The trigger was one-shot: the very next save goes through clean.
        store.save(&sample_state(16), "fine").expect("save after the fault consumed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_chunk_writes_read_back_as_corrupt_not_a_panic() {
        let dir = temp_dir("fault-torn");
        let store = Store::open(&dir)
            .expect("open store")
            .with_faults(FaultPlan::parse("snap.chunk.torn@n1").expect("spec"));
        let saved = store.save(&sample_state(16), "torn").expect("save plants the torn object");
        let clean = Store::open(&dir).expect("reopen");
        match clean.load("torn") {
            Err(SnapError::Corrupt { detail, .. }) => {
                assert!(detail.contains("stored content hashes to"), "{detail}")
            }
            other => panic!("expected SnapError::Corrupt, got {other:?}"),
        }
        assert!(saved.chunks_new > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_chunk_reads_fail_verification() {
        let dir = temp_dir("fault-bitflip");
        let store = Store::open(&dir).expect("open store");
        store.save(&sample_state(16), "ok").expect("save");

        let flipping = Store::open(&dir)
            .expect("reopen")
            .with_faults(FaultPlan::parse("snap.chunk.bitflip@n1").expect("spec"));
        match flipping.load("ok") {
            Err(SnapError::Corrupt { detail, .. }) => {
                assert!(detail.contains("stored content hashes to"), "{detail}")
            }
            other => panic!("expected SnapError::Corrupt, got {other:?}"),
        }
        // The on-disk object is untouched; a clean reader round-trips.
        let clean = Store::open(&dir).expect("reopen clean");
        let loaded = clean.load("ok").expect("load");
        assert!(bodies_bits_equal(&loaded.bodies, &sample_state(16).bodies));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifests_load_as_schema_errors() {
        let dir = temp_dir("fault-manifest");
        let store = Store::open(&dir)
            .expect("open store")
            .with_faults(FaultPlan::parse("snap.manifest.torn@n1").expect("spec"));
        store.save(&sample_state(16), "half").expect("save plants the torn manifest");
        let clean = Store::open(&dir).expect("reopen");
        assert!(matches!(clean.load("half"), Err(SnapError::Schema { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}
