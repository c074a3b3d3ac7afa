//! The `.odz` binary serving artifact — the one serving format, built for
//! paper-scale cold start.
//!
//! A text artifact costs a full parse plus an owned copy of every table —
//! at the paper's deployment scale (2.6M users, PAPER.md §2) that is
//! seconds of cold start and a resident copy per serving process — so
//! there is none: `.odz` is the only form a [`FrozenOdNet`] is ever
//! persisted in, and a training checkpoint holds weights, not an artifact
//! (`OdNetModel::load_json` + `freeze()` + [`FrozenOdNet::save_bin`] is the
//! road from one to the other). The format stores the embedding tables as
//! 64-byte-aligned little-endian `f32` rows that [`FrozenOdNet`] can score
//! **directly out of an mmap'd file**: load time becomes page-fault time,
//! and N serving processes mapping the same artifact share one physical
//! copy of the tables.
//!
//! Layout (all integers little-endian; see DESIGN.md §12):
//!
//! ```text
//! [0, 64)                  fixed header (magic, version, variant, dims,
//!                          meta location, FNV-1a checksums)
//! [64, meta_offset)        table payload: each table starts on a 64-byte
//!                          boundary; row-major f32 little-endian
//! [meta_offset, ..)        meta JSON: config, θ, small module weights
//!                          (PEC / MMoE / towers), and the table directory
//!                          (name, offset, rows, cols, per-table FNV)
//! ```
//!
//! The embedding tables dominate the artifact (99.9% of bytes at paper
//! scale); the PEC/MMoE/tower weights are a few hundred KB and ride in the
//! meta block, where they are loaded eagerly on both paths. Two load
//! paths exist:
//!
//! - [`FrozenOdNet::load_bin`]: binary read + copy, every table checksum
//!   verified, full finiteness validation — the trust-establishing path,
//! - [`FrozenOdNet::load_bin_mmap`]: zero-copy. Header, directory, and
//!   meta checksums are verified and the geometry is validated, but table
//!   bytes are *not* scanned (that would fault in every page and defeat
//!   lazy loading). Mapped scoring is bit-identical to the owned path
//!   because both serve the same IEEE-754 bit patterns.
//!
//! Safety: the mmap wrapper calls raw `mmap(2)`/`munmap(2)` through
//! `extern "C"` declarations (no new dependencies). The mapping is
//! `MAP_PRIVATE` and read-only; truncating the file while mapped can
//! deliver `SIGBUS`, the standard contract for mmap-served artifacts. On
//! non-Unix platforms [`MmapRegion`] transparently falls back to reading
//! the file into a 64-byte-aligned heap buffer.

use crate::config::OdnetConfig;
use crate::frozen::{FrozenBranch, FrozenHead, FrozenOdNet};
use crate::intent::FrozenIntent;
use crate::model::{CheckpointError, Variant};
use crate::pec::FrozenPec;
use od_tensor::{Shape, Tensor};
use serde::Deserialize;
use std::fs::File;
use std::io::{BufWriter, Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

/// `.odz` format version. Independent of the training checkpoint version.
pub const ODZ_VERSION: u32 = 1;

const ODZ_MAGIC: [u8; 4] = *b"ODZ1";
const HEADER_LEN: usize = 64;
/// Table alignment: cache-line / SIMD friendly, and coarse enough that
/// every `f32` row lookup is at worst one line split.
const ALIGN: usize = 64;

/// The four payload tables, in canonical file order.
const TABLE_NAMES: [&str; 4] = ["origin.users", "origin.cities", "dest.users", "dest.cities"];

// ---------------------------------------------------------------------------
// FNV-1a (32-bit) — the checksum named in the header spec. Streaming-friendly
// and dependency-free; this guards against corrupt/truncated artifacts, not
// adversaries.

const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

fn fnv1a(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Read only the 64-byte header of an `.odz` file and return its stored
/// meta-block checksum — the cheapest stable identity of the artifact's
/// content. The meta block carries the table directory (including every
/// table's own FNV), so this checksum transitively covers the payload
/// without touching (or faulting in) a single table page.
pub fn read_odz_checksum(path: &Path) -> Result<u32, CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(format!("reading {path:?}: {e}"));
    let mut file = File::open(path).map_err(io)?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).map_err(io)?;
    Ok(OdzHeader::decode(&header)?.meta_fnv)
}

impl FrozenOdNet {
    /// Cheap FNV-1a content fingerprint of an in-memory artifact, for
    /// version identity when no `.odz` header is at hand (e.g. a model
    /// frozen in-process and published without touching disk).
    ///
    /// Covers the variant, geometry, config, θ, and a strided sample of
    /// rows from every embedding table (first, last, and every
    /// `rows/16`-th row) — mmap-safe: at most a few dozen pages fault in.
    /// Equal artifacts always fingerprint equal; differently-trained
    /// artifacts differ in their tables and (with the usual hash caveats)
    /// fingerprint differently. This is an observability identity, not a
    /// cryptographic digest.
    pub fn fingerprint(&self) -> u32 {
        let mut h = FNV_OFFSET;
        h = fnv1a(h, format!("{:?}", self.variant).as_bytes());
        for dim in [self.num_users as u64, self.num_cities as u64] {
            h = fnv1a(h, &dim.to_le_bytes());
        }
        h = fnv1a(h, &self.theta.to_bits().to_le_bytes());
        if let Ok(cfg) = serde_json::to_string(&self.config) {
            h = fnv1a(h, cfg.as_bytes());
        }
        let tables = [
            &self.origin.users,
            &self.origin.cities,
            &self.dest.users,
            &self.dest.cities,
        ];
        let mut buf = Vec::new();
        for table in tables {
            let (rows, cols) = (table.rows(), table.cols());
            h = fnv1a(h, &(rows as u64).to_le_bytes());
            h = fnv1a(h, &(cols as u64).to_le_bytes());
            if rows == 0 {
                continue;
            }
            let step = (rows / 16).max(1);
            for i in (0..rows).step_by(step).chain(std::iter::once(rows - 1)) {
                buf.clear();
                for v in table.row(i) {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                h = fnv1a(h, &buf);
            }
        }
        h
    }
}

// ---------------------------------------------------------------------------
// MmapRegion: read-only bytes backed by mmap(2) on Unix, by an aligned heap
// buffer elsewhere (or when the kernel refuses the mapping).

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A 64-byte-aligned heap chunk for the read-into-buffer fallback.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct AlignedChunk([u8; 64]);

/// An immutable byte region an artifact's tables are served from: either a
/// kernel mapping of the file or an owned aligned buffer. `Send + Sync`
/// because the region is never written after construction.
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
    /// `Some` when the region owns a heap buffer instead of a mapping.
    heap: Option<Vec<AlignedChunk>>,
}

// SAFETY: the region is read-only for its entire lifetime; the pointer
// refers either to a private file mapping or to the boxed buffer in `heap`.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .field("mapped", &self.heap.is_none())
            .finish()
    }
}

impl MmapRegion {
    /// Map (or read) `file`, which must be `len` bytes long.
    fn open(file: &File, len: usize) -> std::io::Result<MmapRegion> {
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty artifact is
            // malformed anyway, so hand back an empty heap region and let
            // header validation produce the typed error.
            return Ok(MmapRegion {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                heap: Some(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p as isize != -1 {
                return Ok(MmapRegion {
                    ptr: p as *const u8,
                    len,
                    heap: None,
                });
            }
            // Fall through to the heap path (e.g. a filesystem without
            // mmap support); the caller cannot tell the difference.
        }
        Self::read_aligned(file, len)
    }

    /// Fallback: read the whole file into a 64-byte-aligned buffer.
    fn read_aligned(file: &File, len: usize) -> std::io::Result<MmapRegion> {
        let chunks = len.div_ceil(64);
        let mut heap = vec![AlignedChunk([0u8; 64]); chunks];
        // SAFETY: `heap` owns `chunks * 64 >= len` contiguous initialized
        // bytes; the slice is dropped before `heap` moves into the region.
        let bytes = unsafe { std::slice::from_raw_parts_mut(heap.as_mut_ptr() as *mut u8, len) };
        let mut f = file;
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(bytes)?;
        let ptr = heap.as_ptr() as *const u8;
        Ok(MmapRegion {
            ptr,
            len,
            heap: Some(heap),
        })
    }

    /// The whole region.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe the live mapping or heap buffer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// A `count`-element f32 slice at `offset` bytes. The loader has
    /// already validated alignment and bounds; both are re-checked here
    /// because this is the boundary where bytes become typed.
    fn f32_slice(&self, offset: usize, count: usize) -> &[f32] {
        let bytes = count * 4;
        assert!(
            offset.is_multiple_of(std::mem::align_of::<f32>()) && offset + bytes <= self.len,
            "table slice out of bounds or misaligned (validated at load)"
        );
        // SAFETY: in-bounds, 4-byte-aligned, and any bit pattern is a
        // valid f32 (NaNs are rejected by deep validation, not UB).
        unsafe { std::slice::from_raw_parts(self.ptr.add(offset) as *const f32, count) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.heap.is_none() && self.len > 0 {
            // SAFETY: ptr/len came from a successful mmap with this length.
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Table: the borrowed/owned storage behind FrozenOdNet's embedding tables.

/// A row-major `rows × cols` f32 table that is either owned (`freeze()`
/// and binary-read paths) or borrowed from an [`MmapRegion`] (zero-copy path).
/// The scoring hot path only ever asks for [`Table::row`], which both
/// variants serve as a plain slice — the enum never shows up per-element.
#[derive(Clone)]
pub(crate) enum Table {
    Owned(Tensor),
    Mapped {
        region: Arc<MmapRegion>,
        /// Byte offset of the table inside the region.
        offset: usize,
        rows: usize,
        cols: usize,
    },
}

impl From<Tensor> for Table {
    fn from(t: Tensor) -> Self {
        Table::Owned(t)
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Table::Owned(t) => write!(f, "Table::Owned({}x{})", t.rows(), t.cols()),
            Table::Mapped {
                rows, cols, offset, ..
            } => {
                write!(f, "Table::Mapped({rows}x{cols} @ {offset})")
            }
        }
    }
}

impl Table {
    pub(crate) fn rows(&self) -> usize {
        match self {
            Table::Owned(t) => t.rows(),
            Table::Mapped { rows, .. } => *rows,
        }
    }

    pub(crate) fn cols(&self) -> usize {
        match self {
            Table::Owned(t) => t.cols(),
            Table::Mapped { cols, .. } => *cols,
        }
    }

    /// One row — the only accessor the scoring hot path uses.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        match self {
            Table::Owned(t) => t.row(i),
            Table::Mapped {
                region,
                offset,
                rows,
                cols,
            } => {
                assert!(i < *rows, "row {i} out of range ({rows} rows)");
                region.f32_slice(offset + i * cols * 4, *cols)
            }
        }
    }

    /// The full table as one contiguous slice.
    pub(crate) fn as_slice(&self) -> &[f32] {
        match self {
            Table::Owned(t) => t.as_slice(),
            Table::Mapped {
                region,
                offset,
                rows,
                cols,
            } => region.f32_slice(*offset, rows * cols),
        }
    }

    /// Mutable access for tests that inject corruption; only the owned
    /// variant supports it.
    #[cfg(test)]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        match self {
            Table::Owned(t) => t.as_mut_slice(),
            Table::Mapped { .. } => panic!("cannot mutate a mapped table"),
        }
    }

    /// Shape check plus (optionally) the full finiteness scan. The scan is
    /// skipped on the mmap load path so validation does not fault in every
    /// page of a multi-GB artifact.
    pub(crate) fn check(
        &self,
        what: &str,
        rows: usize,
        cols: usize,
        deep: bool,
    ) -> Result<(), CheckpointError> {
        if self.rows() != rows || self.cols() != cols {
            return Err(CheckpointError::Inconsistent(format!(
                "{what}: expected {rows}x{cols}, found {}x{}",
                self.rows(),
                self.cols()
            )));
        }
        if deep && !self.as_slice().iter().all(|v| v.is_finite()) {
            return Err(CheckpointError::NonFinite(format!(
                "{what} contains NaN or infinite weights"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Header encode/decode.

struct OdzHeader {
    variant: Variant,
    num_users: u64,
    num_cities: u64,
    table_count: u32,
    embed_dim: u32,
    meta_offset: u64,
    meta_len: u64,
    /// FNV-1a over the meta JSON bytes, so silent corruption of the small
    /// weights riding in the meta block is caught on every load path.
    meta_fnv: u32,
}

impl OdzHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&ODZ_MAGIC);
        h[4..8].copy_from_slice(&ODZ_VERSION.to_le_bytes());
        h[8..12].copy_from_slice(&variant_tag(self.variant).to_le_bytes());
        // h[12..16]: header FNV, patched below.
        h[16..24].copy_from_slice(&self.num_users.to_le_bytes());
        h[24..32].copy_from_slice(&self.num_cities.to_le_bytes());
        h[32..36].copy_from_slice(&self.table_count.to_le_bytes());
        h[36..40].copy_from_slice(&self.embed_dim.to_le_bytes());
        h[40..48].copy_from_slice(&self.meta_offset.to_le_bytes());
        h[48..56].copy_from_slice(&self.meta_len.to_le_bytes());
        h[56..60].copy_from_slice(&self.meta_fnv.to_le_bytes());
        // h[60..64]: reserved, zero.
        let fnv = fnv1a(FNV_OFFSET, &h);
        h[12..16].copy_from_slice(&fnv.to_le_bytes());
        h
    }

    fn decode(bytes: &[u8]) -> Result<OdzHeader, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Binary(format!(
                "file is {} bytes, smaller than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        let h = &bytes[..HEADER_LEN];
        if h[0..4] != ODZ_MAGIC {
            return Err(CheckpointError::Binary(format!(
                "bad magic {:02x?} (expected {:02x?} — not an .odz artifact)",
                &h[0..4],
                ODZ_MAGIC
            )));
        }
        let version = u32_at(h, 4);
        if version != ODZ_VERSION {
            return Err(CheckpointError::Version(version));
        }
        // Verify the header checksum with the stored FNV field zeroed.
        let stored_fnv = u32_at(h, 12);
        let mut zeroed = [0u8; HEADER_LEN];
        zeroed.copy_from_slice(h);
        zeroed[12..16].fill(0);
        if fnv1a(FNV_OFFSET, &zeroed) != stored_fnv {
            return Err(CheckpointError::Binary(
                "header checksum mismatch (flipped or corrupt header bytes)".to_string(),
            ));
        }
        let variant = variant_from_tag(u32_at(h, 8))?;
        Ok(OdzHeader {
            variant,
            num_users: u64_at(h, 16),
            num_cities: u64_at(h, 24),
            table_count: u32_at(h, 32),
            embed_dim: u32_at(h, 36),
            meta_offset: u64_at(h, 40),
            meta_len: u64_at(h, 48),
            meta_fnv: u32_at(h, 56),
        })
    }
}

fn u32_at(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"))
}

fn u64_at(b: &[u8], o: usize) -> u64 {
    u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"))
}

fn variant_tag(v: Variant) -> u32 {
    match v {
        Variant::Odnet => 0,
        Variant::OdnetG => 1,
        Variant::StlPlusG => 2,
        Variant::StlG => 3,
    }
}

fn variant_from_tag(tag: u32) -> Result<Variant, CheckpointError> {
    match tag {
        0 => Ok(Variant::Odnet),
        1 => Ok(Variant::OdnetG),
        2 => Ok(Variant::StlPlusG),
        3 => Ok(Variant::StlG),
        other => Err(CheckpointError::Binary(format!(
            "unknown variant tag {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Meta block: everything that is not a big table.

/// Table directory entry inside the meta JSON.
#[derive(Clone, Debug, serde::Serialize, Deserialize)]
struct OdzTableMeta {
    name: String,
    offset: u64,
    rows: u64,
    cols: u64,
    fnv: u32,
}

/// Deserialization target for the meta JSON. (Serialization is hand-built
/// from borrows in [`FrozenOdNet::save_bin`]; the vendored serde derive
/// cannot express a borrowing struct.)
#[derive(Deserialize)]
struct OdzMeta {
    format_version: u32,
    variant: Variant,
    config: OdnetConfig,
    num_users: u64,
    num_cities: u64,
    theta: f32,
    tables: Vec<OdzTableMeta>,
    origin_pec: FrozenPec,
    origin_intent: Option<FrozenIntent>,
    dest_pec: FrozenPec,
    dest_intent: Option<FrozenIntent>,
    head: FrozenHead,
}

/// A parsed, bounds-checked view of an `.odz` file: the meta block plus
/// resolved byte ranges for each payload table.
struct ParsedOdz {
    meta: OdzMeta,
    /// `(offset, rows, cols, fnv)` for each of [`TABLE_NAMES`], in order.
    tables: Vec<(usize, usize, usize, u32)>,
}

fn parse_odz(bytes: &[u8]) -> Result<ParsedOdz, CheckpointError> {
    let header = OdzHeader::decode(bytes)?;
    let meta_offset = header.meta_offset as usize;
    let meta_len = header.meta_len as usize;
    let meta_end = meta_offset
        .checked_add(meta_len)
        .filter(|&end| end <= bytes.len() && meta_offset >= HEADER_LEN)
        .ok_or_else(|| {
            CheckpointError::Binary(format!(
                "meta block [{meta_offset}, +{meta_len}) outside the {}-byte file (truncated?)",
                bytes.len()
            ))
        })?;
    let meta_bytes = &bytes[meta_offset..meta_end];
    if fnv1a(FNV_OFFSET, meta_bytes) != header.meta_fnv {
        return Err(CheckpointError::Binary(
            "meta block checksum mismatch (corrupt module weights or directory)".to_string(),
        ));
    }
    let meta_json = std::str::from_utf8(meta_bytes)
        .map_err(|_| CheckpointError::Binary("meta block is not UTF-8".to_string()))?;
    let meta: OdzMeta = serde_json::from_str(meta_json).map_err(CheckpointError::Parse)?;

    // The meta block repeats the header's identity fields; they must agree
    // (a mismatch means a spliced or hand-edited file).
    if meta.format_version != ODZ_VERSION {
        return Err(CheckpointError::Version(meta.format_version));
    }
    if meta.variant != header.variant
        || meta.num_users != header.num_users
        || meta.num_cities != header.num_cities
    {
        return Err(CheckpointError::Binary(
            "meta block disagrees with header (variant or universe dims)".to_string(),
        ));
    }
    if header.table_count as usize != TABLE_NAMES.len() || meta.tables.len() != TABLE_NAMES.len() {
        return Err(CheckpointError::Binary(format!(
            "expected {} tables, header declares {} and directory {}",
            TABLE_NAMES.len(),
            header.table_count,
            meta.tables.len()
        )));
    }

    let mut tables = Vec::with_capacity(TABLE_NAMES.len());
    for name in TABLE_NAMES {
        let entry = meta
            .tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| CheckpointError::Binary(format!("table {name:?} missing")))?;
        let offset = entry.offset as usize;
        let rows = entry.rows as usize;
        let cols = entry.cols as usize;
        if !offset.is_multiple_of(ALIGN) {
            return Err(CheckpointError::Binary(format!(
                "table {name:?} offset {offset} is not {ALIGN}-byte aligned"
            )));
        }
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| {
                CheckpointError::Binary(format!("table {name:?} dimensions overflow"))
            })?;
        if rows == 0 || cols == 0 {
            return Err(CheckpointError::Binary(format!(
                "table {name:?} has zero extent ({rows}x{cols})"
            )));
        }
        // Tables live strictly between the header and the meta block.
        if offset < HEADER_LEN || offset.checked_add(byte_len).is_none_or(|e| e > meta_offset) {
            return Err(CheckpointError::Binary(format!(
                "table {name:?} [{offset}, +{byte_len}) escapes the payload region \
                 [{HEADER_LEN}, {meta_offset}) (truncated?)"
            )));
        }
        tables.push((offset, rows, cols, entry.fnv));
    }
    Ok(ParsedOdz { meta, tables })
}

/// Assemble a [`FrozenOdNet`] from parsed meta and four resolved tables.
fn assemble(meta: OdzMeta, ou: Table, oc: Table, du: Table, dc: Table) -> FrozenOdNet {
    FrozenOdNet {
        variant: meta.variant,
        config: meta.config,
        num_users: meta.num_users as usize,
        num_cities: meta.num_cities as usize,
        origin: FrozenBranch {
            users: ou,
            cities: oc,
            pec: meta.origin_pec,
            intent: meta.origin_intent,
        },
        dest: FrozenBranch {
            users: du,
            cities: dc,
            pec: meta.dest_pec,
            intent: meta.dest_intent,
        },
        head: meta.head,
        theta: meta.theta,
    }
}

impl FrozenOdNet {
    /// Write the artifact as an `.odz` binary: aligned zero-copy-ready
    /// tables plus a checksummed meta block. Validates before writing so a
    /// corrupt in-memory artifact can never become a plausible file.
    pub fn save_bin(&self, path: &Path) -> Result<(), CheckpointError> {
        self.validate_artifact()?;
        let io = |e: std::io::Error| CheckpointError::Io(format!("writing {path:?}: {e}"));
        let file = File::create(path).map_err(io)?;
        let mut w = BufWriter::new(file);
        w.write_all(&[0u8; HEADER_LEN]).map_err(io)?;
        let mut pos = HEADER_LEN as u64;

        let tables: [(&str, &Table); 4] = [
            (TABLE_NAMES[0], &self.origin.users),
            (TABLE_NAMES[1], &self.origin.cities),
            (TABLE_NAMES[2], &self.dest.users),
            (TABLE_NAMES[3], &self.dest.cities),
        ];
        let mut directory = Vec::with_capacity(tables.len());
        for (name, table) in tables {
            let pad = (ALIGN as u64 - pos % ALIGN as u64) % ALIGN as u64;
            w.write_all(&vec![0u8; pad as usize]).map_err(io)?;
            pos += pad;
            let offset = pos;
            let mut fnv = FNV_OFFSET;
            // Stream in chunks so paper-scale tables never double in RAM.
            let data = table.as_slice();
            let mut buf = Vec::with_capacity(4 * 65_536);
            for chunk in data.chunks(65_536) {
                buf.clear();
                for v in chunk {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                fnv = fnv1a(fnv, &buf);
                w.write_all(&buf).map_err(io)?;
            }
            pos += 4 * data.len() as u64;
            directory.push(OdzTableMeta {
                name: name.to_string(),
                offset,
                rows: table.rows() as u64,
                cols: table.cols() as u64,
                fnv,
            });
        }

        // Meta JSON, hand-assembled from borrows (field names must match
        // the `OdzMeta` deserialization struct above).
        use serde::Serialize as _;
        let meta = serde::Content::Map(vec![
            ("format_version".into(), ODZ_VERSION.to_content()),
            ("variant".into(), self.variant.to_content()),
            ("config".into(), self.config.to_content()),
            ("num_users".into(), (self.num_users as u64).to_content()),
            ("num_cities".into(), (self.num_cities as u64).to_content()),
            ("theta".into(), self.theta.to_content()),
            ("tables".into(), directory.to_content()),
            ("origin_pec".into(), self.origin.pec.to_content()),
            ("origin_intent".into(), self.origin.intent.to_content()),
            ("dest_pec".into(), self.dest.pec.to_content()),
            ("dest_intent".into(), self.dest.intent.to_content()),
            ("head".into(), self.head.to_content()),
        ]);
        let meta_json = serde_json::to_string(&meta).map_err(CheckpointError::Parse)?;
        let meta_offset = pos;
        w.write_all(meta_json.as_bytes()).map_err(io)?;

        let header = OdzHeader {
            variant: self.variant,
            num_users: self.num_users as u64,
            num_cities: self.num_cities as u64,
            table_count: TABLE_NAMES.len() as u32,
            embed_dim: self.config.embed_dim as u32,
            meta_offset,
            meta_len: meta_json.len() as u64,
            meta_fnv: fnv1a(FNV_OFFSET, meta_json.as_bytes()),
        };
        let mut file = w.into_inner().map_err(|e| io(e.into_error()))?;
        file.seek(SeekFrom::Start(0)).map_err(io)?;
        file.write_all(&header.encode()).map_err(io)?;
        file.sync_all().map_err(io)?;
        Ok(())
    }

    /// Owned binary read: every table checksum is verified and the full
    /// artifact validation (including the finiteness scan) runs. Use this
    /// to establish trust in a file; use [`FrozenOdNet::load_bin_mmap`]
    /// for serving cold starts.
    pub fn load_bin(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("reading {path:?}: {e}")))?;
        let parsed = parse_odz(&bytes)?;
        let mut loaded = Vec::with_capacity(TABLE_NAMES.len());
        for (name, &(offset, rows, cols, fnv)) in TABLE_NAMES.iter().zip(&parsed.tables) {
            let raw = &bytes[offset..offset + rows * cols * 4];
            if fnv1a(FNV_OFFSET, raw) != fnv {
                return Err(CheckpointError::Binary(format!(
                    "table {name:?} checksum mismatch (corrupt payload)"
                )));
            }
            let data: Vec<f32> = raw
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect();
            loaded.push(Table::Owned(Tensor::new(Shape::Matrix(rows, cols), data)));
        }
        let dc = loaded.pop().expect("4 tables");
        let du = loaded.pop().expect("4 tables");
        let oc = loaded.pop().expect("4 tables");
        let ou = loaded.pop().expect("4 tables");
        let frozen = assemble(parsed.meta, ou, oc, du, dc);
        frozen.validate_artifact()?;
        Ok(frozen)
    }

    /// Zero-copy load: the returned artifact scores directly out of the
    /// mapped file. Header, directory, and meta checksums are verified and
    /// all geometry is validated against the config, but table payloads
    /// are not scanned — pages fault in lazily as rows are touched, and N
    /// processes mapping the same file share one physical copy.
    pub fn load_bin_mmap(path: &Path) -> Result<Self, CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(format!("mapping {path:?}: {e}"));
        let file = File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len() as usize;
        let region = Arc::new(MmapRegion::open(&file, len).map_err(io)?);
        let parsed = parse_odz(region.as_bytes())?;
        let table = |&(offset, rows, cols, _fnv): &(usize, usize, usize, u32)| Table::Mapped {
            region: Arc::clone(&region),
            offset,
            rows,
            cols,
        };
        let [ou, oc, du, dc] = [
            table(&parsed.tables[0]),
            table(&parsed.tables[1]),
            table(&parsed.tables[2]),
            table(&parsed.tables[3]),
        ];
        let frozen = assemble(parsed.meta, ou, oc, du, dc);
        frozen.validate_geometry()?;
        Ok(frozen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0x811c_9dc5);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn header_round_trips_and_rejects_corruption() {
        let h = OdzHeader {
            variant: Variant::OdnetG,
            num_users: 2_600_000,
            num_cities: 200,
            table_count: 4,
            embed_dim: 16,
            meta_offset: 1 << 30,
            meta_len: 4096,
            meta_fnv: 0xdead_beef,
        };
        let enc = h.encode();
        let back = OdzHeader::decode(&enc).expect("round trip");
        assert_eq!(back.variant, Variant::OdnetG);
        assert_eq!(back.num_users, 2_600_000);
        assert_eq!(back.num_cities, 200);
        assert_eq!(back.meta_offset, 1 << 30);

        // Any flipped header byte must be caught by the checksum (or the
        // magic/version checks before it).
        for i in 0..HEADER_LEN {
            let mut bad = enc;
            bad[i] ^= 0x40;
            assert!(
                OdzHeader::decode(&bad).is_err(),
                "flipped header byte {i} went undetected"
            );
        }
    }

    #[test]
    fn aligned_fallback_region_is_64_byte_aligned() {
        let dir = std::env::temp_dir().join("odz_align_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        std::fs::write(&path, vec![7u8; 1000]).unwrap();
        let file = File::open(&path).unwrap();
        let region = MmapRegion::read_aligned(&file, 1000).unwrap();
        assert_eq!(region.as_bytes().len(), 1000);
        assert!(region.as_bytes().iter().all(|&b| b == 7));
        assert_eq!(region.as_bytes().as_ptr() as usize % 64, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_region_serves_file_bytes() {
        let dir = std::env::temp_dir().join("odz_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        std::fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();
        let region = MmapRegion::open(&file, data.len()).unwrap();
        assert_eq!(region.as_bytes(), &data[..]);
        let _ = std::fs::remove_file(&path);
    }
}
