//! Crash-safe sweep journal: the persistence layer under
//! [`crate::SweepPlan::checkpoint`] / [`crate::SweepPlan::resume`].
//!
//! A population-scale grid runs for hours; a kill, OOM or host preemption
//! must not cost the completed cells. The journal is an append-only file:
//! a fingerprinted header naming the exact grid it belongs to, followed by
//! one self-checksummed record per completed cell. Resume replays the
//! records, refuses a journal whose grid identity does not match the plan
//! (a typed [`ResumeError::IdentityMismatch`], never a silent mix of two
//! grids), and reschedules only the missing cells.
//!
//! Durability model (what each failure mode costs):
//!
//! * **SIGKILL mid-append** — the tail record is torn. The scan stops at
//!   the first structurally incomplete record, truncates the file back to
//!   the last good boundary, and that one cell re-runs.
//! * **Bit flip inside a record** — the FNV-1a checksum rejects it; the
//!   record is skipped (its cell re-runs) and scanning continues at the
//!   next frame boundary. A flip inside a length field can swallow the
//!   frames behind it; the swallowed region then fails its checksum and
//!   those cells re-run too. Corruption never surfaces as wrong data,
//!   only as re-executed work.
//! * **Duplicate records** (a cell journaled, the run killed before the
//!   in-memory bookkeeping caught up, the cell re-run on resume) — last
//!   record wins; replay is idempotent.
//!
//! Every record decodes to the byte-exact [`SweepCell`] the executor
//! produced, so *interrupted-then-resumed ≡ uninterrupted*: the resumed
//! [`crate::SweepReport`] is bit-identical to one from an undisturbed run
//! (`tests/checkpoint.rs` proves this at every kill boundary, and
//! `tests/resume_kill.rs` does it with a real SIGKILL).

use crate::plan::{RunOutput, RunReport};
use crate::replay::ReplayOutcome;
use crate::sweep::{CellFailure, CellStats, FailureKind, RecoveredRep, RetryClass, SweepCell};
use h2push_browser::{LoadResult, PaintSample};
use h2push_netsim::{NetStats, SimTime};
use h2push_strategies::RunTrace;
use h2push_webmodel::ResourceId;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a sweep journal (and its framing generation).
const MAGIC: &[u8; 8] = b"H2PSWEEP";
/// Bump on any incompatible change to the header or record encoding.
const VERSION: u32 = 2;
/// Records longer than this are treated as framing corruption, not data.
const MAX_RECORD: u32 = 1 << 30;

/// 64-bit FNV-1a — the same cheap, dependency-free fingerprint the
/// badpeer harness uses for wire bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a journal belongs to: a fingerprint over every input that shapes
/// the grid (strategy set, site set, reps, seed, mode, fault profile,
/// streaming switch) plus a human-readable summary for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridIdentity {
    /// FNV-1a over the canonical description of the grid.
    pub hash: u64,
    /// One-line human-readable description (shown on mismatch).
    pub summary: String,
}

/// Why a resume was refused (or a journal could not be written).
#[derive(Debug)]
pub enum ResumeError {
    /// Filesystem-level failure reading or writing the journal.
    Io(std::io::Error),
    /// The file exists but is not a sweep journal (bad magic or a header
    /// too corrupt to read).
    NotAJournal {
        /// The offending path.
        path: PathBuf,
    },
    /// The journal was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The journal belongs to a different grid: resuming it under this
    /// plan would silently mix two experiments, so it is refused.
    IdentityMismatch {
        /// What the resuming plan describes.
        expected: String,
        /// What the journal header recorded.
        found: String,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "journal I/O error: {e}"),
            ResumeError::NotAJournal { path } => {
                write!(f, "{} is not a sweep journal", path.display())
            }
            ResumeError::UnsupportedVersion { found } => {
                write!(f, "journal format v{found} is not supported (this build writes v{VERSION})")
            }
            ResumeError::IdentityMismatch { expected, found } => write!(
                f,
                "journal belongs to a different grid: journal has [{found}], plan is [{expected}]"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<std::io::Error> for ResumeError {
    fn from(e: std::io::Error) -> Self {
        ResumeError::Io(e)
    }
}

/// What [`SweepJournal::load`] found while scanning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Records accepted (framing intact, checksum verified).
    pub accepted: usize,
    /// Records rejected by checksum (bit rot) — their cells re-run.
    pub rejected: usize,
    /// A structurally incomplete tail record was dropped (torn write).
    pub torn_tail: bool,
}

/// The append-only, fingerprinted cell journal.
///
/// Created by [`SweepJournal::create`] (fresh grid) or recovered by
/// [`SweepJournal::load`] (resume). Appends are flushed and fsynced per
/// cell, so a completed cell survives any subsequent kill.
pub struct SweepJournal {
    file: File,
}

impl SweepJournal {
    /// Start a fresh journal at `path` (truncating anything there) and
    /// write the identity header.
    pub fn create(path: &Path, id: &GridIdentity) -> Result<SweepJournal, ResumeError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION);
        put_u64(&mut header, id.hash);
        let summary = id.summary.as_bytes();
        put_u32(&mut header, summary.len() as u32);
        header.extend_from_slice(summary);
        put_u64(&mut header, fnv1a(summary));
        file.write_all(&header)?;
        file.flush()?;
        file.sync_data()?;
        Ok(SweepJournal { file })
    }

    /// Append one completed cell's encoded record and make it durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), ResumeError> {
        let mut frame = Vec::with_capacity(payload.len() + 12);
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, fnv1a(payload));
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Open an existing journal, verify it belongs to `id`, and return the
    /// surviving record payloads in journal order together with scan
    /// diagnostics. The file is truncated back to the last structurally
    /// complete record so subsequent appends extend a clean tail.
    pub fn load(
        path: &Path,
        id: &GridIdentity,
    ) -> Result<(SweepJournal, Vec<Vec<u8>>, JournalScan), ResumeError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let not_a_journal = || ResumeError::NotAJournal { path: path.to_path_buf() };

        // Header: magic, version, identity hash, summary, summary checksum.
        let mut pos = 0usize;
        let magic = take(&bytes, &mut pos, 8).ok_or_else(not_a_journal)?;
        if magic != MAGIC {
            return Err(not_a_journal());
        }
        let version = take_u32(&bytes, &mut pos).ok_or_else(not_a_journal)?;
        if version != VERSION {
            return Err(ResumeError::UnsupportedVersion { found: version });
        }
        let hash = take_u64(&bytes, &mut pos).ok_or_else(not_a_journal)?;
        let summary_len = take_u32(&bytes, &mut pos).ok_or_else(not_a_journal)? as usize;
        if summary_len > MAX_RECORD as usize {
            return Err(not_a_journal());
        }
        let summary = take(&bytes, &mut pos, summary_len).ok_or_else(not_a_journal)?.to_vec();
        let summary_sum = take_u64(&bytes, &mut pos).ok_or_else(not_a_journal)?;
        if fnv1a(&summary) != summary_sum {
            return Err(not_a_journal());
        }
        let found = String::from_utf8_lossy(&summary).into_owned();
        if hash != id.hash {
            return Err(ResumeError::IdentityMismatch { expected: id.summary.clone(), found });
        }

        // Records: stop at the first torn frame, skip checksum failures.
        let mut records = Vec::new();
        let mut scan = JournalScan::default();
        let mut good_end = pos;
        while pos < bytes.len() {
            let Some(len) = take_u32(&bytes, &mut pos) else {
                scan.torn_tail = true;
                break;
            };
            if len > MAX_RECORD {
                // Framing corruption: nothing behind it can be trusted.
                scan.torn_tail = true;
                break;
            }
            let Some(sum) = take_u64(&bytes, &mut pos) else {
                scan.torn_tail = true;
                break;
            };
            let Some(payload) = take(&bytes, &mut pos, len as usize) else {
                scan.torn_tail = true;
                break;
            };
            if fnv1a(payload) == sum {
                records.push(payload.to_vec());
                scan.accepted += 1;
            } else {
                scan.rejected += 1;
            }
            good_end = pos;
        }
        // Drop the torn tail so appends start at a clean boundary.
        if good_end < bytes.len() {
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((SweepJournal { file }, records, scan))
    }
}

// ---------------------------------------------------------------------------
// Cell record codec: a versioned, lossless binary encoding of SweepCell.
// Every field of every rep outcome round-trips exactly (f64 via to_bits),
// which is what makes "resumed ≡ uninterrupted" byte-for-byte true.
// ---------------------------------------------------------------------------

/// Encode one completed cell (its grid index plus full contents).
pub fn encode_cell(index: u32, cell: &SweepCell) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    put_u32(&mut b, index);
    put_str(&mut b, &cell.strategy);
    put_str(&mut b, &cell.site);
    put_u32(&mut b, cell.report.runs.len() as u32);
    for run in &cell.report.runs {
        // Sweeps are untraced: timelines are never journaled (and never
        // present — SweepPlan has no trace switch).
        encode_outcome(&mut b, &run.outcome);
    }
    encode_stats(&mut b, &cell.stats);
    put_u32(&mut b, cell.failures.len() as u32);
    for f in &cell.failures {
        put_u64(&mut b, f.rep as u64);
        put_u32(&mut b, f.retries);
        put_u8(
            &mut b,
            match f.class {
                RetryClass::NotRetried => 0,
                RetryClass::Deterministic => 1,
            },
        );
        match &f.kind {
            FailureKind::Panic(msg) => {
                put_u8(&mut b, 0);
                put_str(&mut b, msg);
            }
            FailureKind::Watchdog { events } => {
                put_u8(&mut b, 1);
                put_u64(&mut b, *events);
            }
            FailureKind::Stalled => put_u8(&mut b, 2),
            FailureKind::Deadline => put_u8(&mut b, 3),
        }
    }
    put_u32(&mut b, cell.recovered.len() as u32);
    for r in &cell.recovered {
        put_u64(&mut b, r.rep as u64);
        put_u32(&mut b, r.retries);
    }
    b
}

/// Decode a cell record. `None` means the payload is structurally invalid
/// (despite a matching checksum — defense in depth); the caller treats the
/// cell as missing and re-runs it.
pub fn decode_cell(payload: &[u8]) -> Option<(u32, SweepCell)> {
    let mut pos = 0usize;
    let b = payload;
    let index = take_u32(b, &mut pos)?;
    let strategy = take_str(b, &mut pos)?;
    let site = take_str(b, &mut pos)?;
    let n_runs = take_u32(b, &mut pos)? as usize;
    if n_runs > MAX_RECORD as usize {
        return None;
    }
    let mut runs = Vec::with_capacity(n_runs.min(1024));
    for _ in 0..n_runs {
        runs.push(RunOutput { outcome: decode_outcome(b, &mut pos)?, timeline: None });
    }
    let stats = decode_stats(b, &mut pos)?;
    let n_failures = take_u32(b, &mut pos)? as usize;
    let mut failures = Vec::with_capacity(n_failures.min(1024));
    for _ in 0..n_failures {
        let rep = take_u64(b, &mut pos)? as usize;
        let retries = take_u32(b, &mut pos)?;
        let class = match take_u8(b, &mut pos)? {
            0 => RetryClass::NotRetried,
            1 => RetryClass::Deterministic,
            _ => return None,
        };
        let kind = match take_u8(b, &mut pos)? {
            0 => FailureKind::Panic(take_str(b, &mut pos)?),
            1 => FailureKind::Watchdog { events: take_u64(b, &mut pos)? },
            2 => FailureKind::Stalled,
            3 => FailureKind::Deadline,
            _ => return None,
        };
        failures.push(CellFailure { rep, kind, retries, class });
    }
    let n_recovered = take_u32(b, &mut pos)? as usize;
    let mut recovered = Vec::with_capacity(n_recovered.min(1024));
    for _ in 0..n_recovered {
        let rep = take_u64(b, &mut pos)? as usize;
        let retries = take_u32(b, &mut pos)?;
        recovered.push(RecoveredRep { rep, retries });
    }
    if pos != b.len() {
        return None; // trailing garbage
    }
    Some((
        index,
        SweepCell { strategy, site, report: RunReport { runs }, stats, failures, recovered },
    ))
}

fn encode_outcome(b: &mut Vec<u8>, o: &ReplayOutcome) {
    // LoadResult
    let l = &o.load;
    put_u64(b, l.connect_end.0);
    put_opt_time(b, l.dom_content_loaded);
    put_opt_time(b, l.onload);
    put_u32(b, l.paints.len() as u32);
    for p in &l.paints {
        put_u64(b, p.time.0);
        put_f64(b, p.completeness);
    }
    put_u64(b, l.pushed_bytes);
    put_u32(b, l.pushed_count);
    put_u32(b, l.cancelled_pushes);
    put_u32(b, l.requests);
    put_u8(b, l.partial as u8);
    put_u32(b, l.failed_resources);
    put_u32(b, l.retries);
    put_u32(b, l.timeouts);
    put_u32(b, l.conn_errors);
    // RunTrace
    put_u32(b, o.trace.order.len() as u32);
    for r in &o.trace.order {
        put_u64(b, r.0 as u64);
    }
    put_u64(b, o.server_pushed_bytes);
    // NetStats
    put_u64(b, o.net.data_packets);
    put_u64(b, o.net.drops_queue);
    put_u64(b, o.net.drops_random);
    put_u64(b, o.net.drops_fault);
    put_u64(b, o.net.drops_flap);
    put_u64(b, o.net.reordered);
    put_u64(b, o.net.retransmits);
}

fn decode_outcome(b: &[u8], pos: &mut usize) -> Option<ReplayOutcome> {
    let connect_end = SimTime(take_u64(b, pos)?);
    let dom_content_loaded = take_opt_time(b, pos)?;
    let onload = take_opt_time(b, pos)?;
    let n_paints = take_u32(b, pos)? as usize;
    let mut paints = Vec::with_capacity(n_paints.min(4096));
    for _ in 0..n_paints {
        let time = SimTime(take_u64(b, pos)?);
        let completeness = take_f64(b, pos)?;
        paints.push(PaintSample { time, completeness });
    }
    let pushed_bytes = take_u64(b, pos)?;
    let pushed_count = take_u32(b, pos)?;
    let cancelled_pushes = take_u32(b, pos)?;
    let requests = take_u32(b, pos)?;
    let partial = take_u8(b, pos)? != 0;
    let failed_resources = take_u32(b, pos)?;
    let retries = take_u32(b, pos)?;
    let timeouts = take_u32(b, pos)?;
    let conn_errors = take_u32(b, pos)?;
    let n_order = take_u32(b, pos)? as usize;
    let mut order = Vec::with_capacity(n_order.min(4096));
    for _ in 0..n_order {
        order.push(ResourceId(take_u64(b, pos)? as usize));
    }
    let server_pushed_bytes = take_u64(b, pos)?;
    let net = NetStats {
        data_packets: take_u64(b, pos)?,
        drops_queue: take_u64(b, pos)?,
        drops_random: take_u64(b, pos)?,
        drops_fault: take_u64(b, pos)?,
        drops_flap: take_u64(b, pos)?,
        reordered: take_u64(b, pos)?,
        retransmits: take_u64(b, pos)?,
    };
    Some(ReplayOutcome {
        load: LoadResult {
            connect_end,
            dom_content_loaded,
            onload,
            paints,
            pushed_bytes,
            pushed_count,
            cancelled_pushes,
            requests,
            partial,
            failed_resources,
            retries,
            timeouts,
            conn_errors,
        },
        trace: RunTrace { order },
        server_pushed_bytes,
        net,
    })
}

fn encode_stats(b: &mut Vec<u8>, s: &CellStats) {
    put_u32(b, s.n);
    put_u32(b, s.partial);
    put_u32(b, s.plt.len() as u32);
    for &v in &s.plt {
        put_f64(b, v);
    }
    put_u32(b, s.speed_index.len() as u32);
    for &v in &s.speed_index {
        put_f64(b, v);
    }
    put_u64(b, s.pushed_bytes);
}

fn decode_stats(b: &[u8], pos: &mut usize) -> Option<CellStats> {
    let n = take_u32(b, pos)?;
    let partial = take_u32(b, pos)?;
    let n_plt = take_u32(b, pos)? as usize;
    let mut plt = Vec::with_capacity(n_plt.min(4096));
    for _ in 0..n_plt {
        plt.push(take_f64(b, pos)?);
    }
    let n_si = take_u32(b, pos)? as usize;
    let mut speed_index = Vec::with_capacity(n_si.min(4096));
    for _ in 0..n_si {
        speed_index.push(take_f64(b, pos)?);
    }
    let pushed_bytes = take_u64(b, pos)?;
    Some(CellStats { n, partial, plt, speed_index, pushed_bytes })
}

// --- little-endian primitives ---------------------------------------------

fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

fn put_opt_time(b: &mut Vec<u8>, t: Option<SimTime>) {
    match t {
        Some(t) => {
            put_u8(b, 1);
            put_u64(b, t.0);
        }
        None => put_u8(b, 0),
    }
}

fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    if end > b.len() {
        return None;
    }
    let out = &b[*pos..end];
    *pos = end;
    Some(out)
}

fn take_u8(b: &[u8], pos: &mut usize) -> Option<u8> {
    take(b, pos, 1).map(|s| s[0])
}

fn take_u32(b: &[u8], pos: &mut usize) -> Option<u32> {
    take(b, pos, 4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
}

fn take_u64(b: &[u8], pos: &mut usize) -> Option<u64> {
    take(b, pos, 8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

fn take_f64(b: &[u8], pos: &mut usize) -> Option<f64> {
    take_u64(b, pos).map(f64::from_bits)
}

fn take_str(b: &[u8], pos: &mut usize) -> Option<String> {
    let len = take_u32(b, pos)? as usize;
    if len > MAX_RECORD as usize {
        return None;
    }
    let s = take(b, pos, len)?;
    String::from_utf8(s.to_vec()).ok()
}

fn take_opt_time(b: &[u8], pos: &mut usize) -> Option<Option<SimTime>> {
    match take_u8(b, pos)? {
        0 => Some(None),
        1 => Some(Some(SimTime(take_u64(b, pos)?))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn primitives_round_trip() {
        let mut b = Vec::new();
        put_u8(&mut b, 7);
        put_u32(&mut b, 0xdead_beef);
        put_u64(&mut b, u64::MAX - 3);
        put_f64(&mut b, -0.0);
        put_str(&mut b, "héllo");
        put_opt_time(&mut b, None);
        put_opt_time(&mut b, Some(SimTime(42)));
        let mut pos = 0;
        assert_eq!(take_u8(&b, &mut pos), Some(7));
        assert_eq!(take_u32(&b, &mut pos), Some(0xdead_beef));
        assert_eq!(take_u64(&b, &mut pos), Some(u64::MAX - 3));
        assert_eq!(take_f64(&b, &mut pos).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(take_str(&b, &mut pos).as_deref(), Some("héllo"));
        assert_eq!(take_opt_time(&b, &mut pos), Some(None));
        assert_eq!(take_opt_time(&b, &mut pos), Some(Some(SimTime(42))));
        assert_eq!(pos, b.len());
        // Truncated reads fail cleanly.
        let mut short = 0;
        assert_eq!(take_u64(&b[..3], &mut short), None);
    }
}
