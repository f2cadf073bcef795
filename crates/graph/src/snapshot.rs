//! `.ppg` — a versioned binary CSR snapshot format.
//!
//! Text edge lists pay a per-edge price twice: parsing on the way in and a
//! full [`crate::GraphBuilder`] normalization pass (sort + dedup +
//! symmetrize) afterwards. A `.ppg` file stores the *finished* CSR arrays,
//! so [`load_ppg`] is a header read plus three bulk slab reads — O(bytes)
//! with no per-edge construction work — which turns "load the graph" from
//! the dominant cost of short benchmark runs into noise.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PPGR"
//! 4       4     format version (currently 1)
//! 8       4     flags: bit 0 = weighted, bit 1 = directed
//! 12      4     reserved (zero)
//! 16      8     n      (vertex count)
//! 24      8     arcs   (stored arc count; 2m undirected, m directed)
//! 32      ...   offsets  (n + 1) x u64
//! ...     ...   targets  arcs x u32
//! ...     ...   weights  arcs x u32   (present iff weighted)
//! ```
//!
//! The header is validated on load ([`SnapshotError`] instead of a panic
//! on corrupt input), and the slabs are checked against the
//! [`crate::CsrGraph::from_parts`] invariants (monotone offsets, in-range
//! targets) before the graph is constructed.

use std::io::{Read, Write};
use std::path::Path;

use crate::csr::rows_are_sorted;
use crate::{CsrGraph, VertexId, Weight};

/// File magic: the first four bytes of every `.ppg` snapshot.
pub const MAGIC: [u8; 4] = *b"PPGR";

/// Current format version. Readers reject anything newer.
pub const VERSION: u32 = 1;

/// Fixed header size in bytes.
const HEADER_LEN: usize = 32;

const FLAG_WEIGHTED: u32 = 1 << 0;
const FLAG_DIRECTED: u32 = 1 << 1;

/// Errors from reading a `.ppg` snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (including truncated files).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The header or a slab violates a format invariant.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a .ppg snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .ppg version {v} (reader supports {VERSION})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt .ppg snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Whether a buffer starts with the `.ppg` magic — the format sniff the
/// CLI uses to tell snapshots from text edge lists.
pub fn is_ppg(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Writes `g` as a `.ppg` snapshot.
pub fn save_ppg<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    let mut flags = 0u32;
    if g.is_weighted() {
        flags |= FLAG_WEIGHTED;
    }
    if g.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    header[8..12].copy_from_slice(&flags.to_le_bytes());
    header[16..24].copy_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(g.num_arcs() as u64).to_le_bytes());
    writer.write_all(&header)?;

    // One reusable chunk buffer keeps the syscall count low without
    // doubling the graph's memory footprint.
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    write_slab(&mut writer, &mut buf, g.offsets(), |x| x.to_le_bytes())?;
    write_slab(&mut writer, &mut buf, g.targets(), |x| x.to_le_bytes())?;
    if let Some(weights) = g.weight_slab() {
        write_slab(&mut writer, &mut buf, weights, |x| x.to_le_bytes())?;
    }
    Ok(())
}

fn write_slab<W: Write, T: Copy, const N: usize>(
    writer: &mut W,
    buf: &mut Vec<u8>,
    slab: &[T],
    to_bytes: impl Fn(T) -> [u8; N],
) -> std::io::Result<()> {
    buf.clear();
    for &x in slab {
        buf.extend_from_slice(&to_bytes(x));
        if buf.len() >= 64 * 1024 {
            writer.write_all(buf)?;
            buf.clear();
        }
    }
    writer.write_all(buf)
}

/// Reads a `.ppg` snapshot back into a [`CsrGraph`].
///
/// The load is O(bytes): bulk slab reads plus one linear validation sweep —
/// no sorting, no deduplication, no builder pass.
pub fn load_ppg<R: Read>(mut reader: R) -> Result<CsrGraph, SnapshotError> {
    // Read the magic on its own: a short non-snapshot input (e.g. a tiny
    // text edge list) should report BadMagic, not a truncation error.
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&magic);
    reader.read_exact(&mut header[4..])?;
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let flags = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if flags & !(FLAG_WEIGHTED | FLAG_DIRECTED) != 0 {
        return Err(SnapshotError::Corrupt("unknown flag bits set"));
    }
    let n = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let arcs = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if n > VertexId::MAX as u64 + 1 {
        return Err(SnapshotError::Corrupt("vertex count exceeds VertexId"));
    }
    // An arc needs at least 4 bytes of target storage; anything claiming
    // more arcs than any real file could hold is a corrupt header. (The
    // real protection against crafted headers is in `read_slab`, which
    // reads incrementally and hits EOF long before a lying header's
    // claimed size is ever allocated.)
    if arcs > (1u64 << 40) {
        return Err(SnapshotError::Corrupt("implausible arc count"));
    }
    let (n, arcs) = (n as usize, arcs as usize);

    let offsets: Vec<u64> = read_slab(&mut reader, n + 1, u64::from_le_bytes)?;
    let targets: Vec<VertexId> = read_slab(&mut reader, arcs, VertexId::from_le_bytes)?;
    let weighted = flags & FLAG_WEIGHTED != 0;
    let weights: Option<Vec<Weight>> = if weighted {
        Some(read_slab(&mut reader, arcs, Weight::from_le_bytes)?)
    } else {
        None
    };

    // Validate the from_parts invariants with recoverable errors; the
    // constructor's own asserts then hold by construction.
    if offsets[0] != 0 {
        return Err(SnapshotError::Corrupt("offsets do not start at 0"));
    }
    if *offsets.last().unwrap() != arcs as u64 {
        return Err(SnapshotError::Corrupt(
            "offsets do not end at the arc count",
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("offsets are not monotone"));
    }
    if targets.iter().max().is_some_and(|&t| t as usize >= n) {
        return Err(SnapshotError::Corrupt("edge target out of range"));
    }
    if !rows_are_sorted(&offsets, &targets) {
        return Err(SnapshotError::Corrupt("neighbor lists are not sorted"));
    }
    Ok(CsrGraph::from_parts(
        offsets,
        targets,
        weights,
        flags & FLAG_DIRECTED != 0,
    ))
}

/// Bytes read (and decoded) per step of [`read_slab`]. Bounded so a
/// crafted or truncated header claiming a huge slab fails with a
/// recoverable EOF error after at most one chunk — the output vector only
/// grows as real data actually arrives, never from the header's claim.
const READ_CHUNK: usize = 16 * 1024 * 1024;

fn read_slab<R: Read, T, const N: usize>(
    reader: &mut R,
    len: usize,
    from_bytes: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, SnapshotError> {
    let total = len
        .checked_mul(N)
        .ok_or(SnapshotError::Corrupt("slab overflow"))?;
    let mut buf = vec![0u8; total.min(READ_CHUNK)];
    let mut out: Vec<T> = Vec::with_capacity(buf.len() / N);
    let mut remaining = total;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        reader.read_exact(&mut buf[..take])?;
        out.extend(
            buf[..take]
                .chunks_exact(N)
                .map(|c| from_bytes(c.try_into().unwrap())),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Writes `g` to `path` as a `.ppg` snapshot.
pub fn save_ppg_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> std::io::Result<()> {
    save_ppg(g, std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// Loads a `.ppg` snapshot from `path`.
pub fn load_ppg_path<P: AsRef<Path>>(path: P) -> Result<CsrGraph, SnapshotError> {
    load_ppg(std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder};

    fn round_trip(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        save_ppg(g, &mut buf).unwrap();
        assert!(is_ppg(&buf));
        load_ppg(buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trips_unweighted_weighted_and_directed() {
        for g in [
            gen::rmat(7, 4, 3),
            gen::with_random_weights(&gen::rmat(6, 5, 9), 1, 99, 4),
            GraphBuilder::directed(5)
                .edges([(0, 1), (3, 2), (4, 0)])
                .build(),
            GraphBuilder::undirected(7).edge(0, 1).build(), // isolated tail
            // Descents across row boundaries, one shared by an empty row.
            GraphBuilder::directed(4)
                .edges([(0, 3), (2, 1), (2, 2)])
                .build(),
            GraphBuilder::undirected(0).build(), // empty
            GraphBuilder::undirected(3)
                .weighted_edges(std::iter::empty())
                .build(), // weighted, edgeless
        ] {
            assert_eq!(round_trip(&g), g);
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(matches!(
            load_ppg(&b"0 1\n1 2\n"[..]).unwrap_err(),
            SnapshotError::BadMagic
        ));
        assert!(!is_ppg(b"0 1\n"));
        let mut buf = Vec::new();
        save_ppg(&gen::path(10), &mut buf).unwrap();
        for cut in [3, HEADER_LEN - 1, HEADER_LEN + 5, buf.len() - 1] {
            assert!(
                matches!(load_ppg(&buf[..cut]).unwrap_err(), SnapshotError::Io(_)),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn rejects_future_versions_and_unknown_flags() {
        let mut buf = Vec::new();
        save_ppg(&gen::path(4), &mut buf).unwrap();
        let mut newer = buf.clone();
        newer[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            load_ppg(newer.as_slice()).unwrap_err(),
            SnapshotError::UnsupportedVersion(2)
        ));
        let mut flagged = buf.clone();
        flagged[8] |= 0x80;
        assert!(matches!(
            load_ppg(flagged.as_slice()).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn rejects_corrupt_slabs() {
        let mut buf = Vec::new();
        save_ppg(&gen::path(4), &mut buf).unwrap();
        // Break monotonicity of the offsets slab.
        let mut bad = buf.clone();
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            load_ppg(bad.as_slice()).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Point a target out of range.
        let targets_at = HEADER_LEN + 5 * 8;
        let mut bad = buf.clone();
        bad[targets_at..targets_at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            load_ppg(bad.as_slice()).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Swap vertex 1's targets [0, 2] to [2, 0]: every range and offset
        // check still passes, only the sorted-row invariant breaks.
        let mut bad = buf.clone();
        bad[targets_at + 4..targets_at + 8].copy_from_slice(&2u32.to_le_bytes());
        bad[targets_at + 8..targets_at + 12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            load_ppg(bad.as_slice()).unwrap_err(),
            SnapshotError::Corrupt("neighbor lists are not sorted")
        ));
    }

    #[test]
    fn lying_headers_fail_recoverably_without_huge_allocation() {
        // Regression (review finding): a crafted header claiming a huge
        // slab used to be allocated up front (`vec![0u8; claimed]`), so a
        // 48-byte file could demand terabytes and abort the process. With
        // chunked reads it now fails with a plain EOF error.
        let mut buf = Vec::new();
        save_ppg(&gen::path(4), &mut buf).unwrap();
        // Claim n = VertexId::MAX + 1 vertices (the largest the n-guard
        // admits → a multi-GB offsets slab) and 2^40 arcs (the largest
        // the arc-guard admits → a 4 TiB targets slab).
        let mut lying = buf.clone();
        lying[16..24].copy_from_slice(&(u64::from(VertexId::MAX) + 1).to_le_bytes());
        lying[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            load_ppg(lying.as_slice()).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn path_helpers_round_trip() {
        let g = gen::with_random_weights(&gen::cycle(9), 1, 5, 1);
        let path = std::env::temp_dir().join("pp_snapshot_test.ppg");
        save_ppg_path(&g, &path).unwrap();
        let back = load_ppg_path(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, g);
    }

    #[test]
    fn error_display_is_informative() {
        let msg = SnapshotError::UnsupportedVersion(7).to_string();
        assert!(msg.contains('7') && msg.contains("version"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
