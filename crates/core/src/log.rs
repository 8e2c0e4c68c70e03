//! The record-log engine under the leg store ([`crate::persist`]) and the
//! campaign journal ([`crate::journal`]).
//!
//! Both are append-only, checksummed logs of self-describing records; this
//! module owns everything about them except the payload codecs and the
//! indexes: the header, the record framing, recovery, the wholesale reset,
//! append with torn-write rollback, the read-only degrade and the session
//! counters ([`LogStats`]).
//!
//! # File format
//!
//! ```text
//! header   := MAGIC(8) version(u32) stamp(16 bytes) cksum(u64)   // cksum = fnv1a64(magic..stamp)
//! record   := len(u32) payload(len bytes) cksum(u64)             // cksum = fnv1a64(payload)
//! ```
//!
//! All integers are little-endian. The magic and version name the log kind
//! and its payload format; the stamp names what the contents are valid for
//! (the store's engine revision and model corpus, the journal's campaign
//! and shard). A record is never rewritten in place, so any prefix of the
//! file that passes validation is a faithful prefix of some past log state.
//!
//! # Crash safety
//!
//! Recovery on open scans the log front to back and keeps the longest
//! valid prefix: the first record whose length field overruns the file or
//! exceeds [`MAX_RECORD`], whose checksum does not match, or whose payload
//! the owner fails to decode marks the damaged suffix, which is dropped
//! (and physically truncated) in its entirety. A torn append, a `kill -9`
//! mid-write or a bit-flipped tail therefore costs exactly the damaged
//! records; a corrupt entry can degrade to a recompute, never to wrong
//! data. A header that is missing, damaged or stamped for something else
//! resets the log wholesale.
//!
//! # Failure semantics
//!
//! Log I/O failures *degrade*: a failed append is rolled back (the torn
//! tail truncated) and counted, and the entry stays memory-only; when the
//! file can no longer be kept a valid prefix the session turns read-only
//! and says so once on stderr. The campaign never fails because a log
//! could not be written. Injected faults are driven through the
//! [`StoreBackend`] trait — see [`FaultyBackend`] and [`FaultPlan`].

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use telechat_common::{fnv1a64, Error, Result};

/// Length of a header stamp.
pub(crate) const STAMP_LEN: usize = 16;
/// Header size: magic + version + stamp + checksum.
pub(crate) const HEADER_LEN: usize = 8 + 4 + STAMP_LEN + 8;
/// Upper bound on a single record payload. Recovery treats a larger length
/// as corruption, so appends refuse such a payload before writing it (a
/// litmus-scale leg is a few kilobytes).
pub(crate) const MAX_RECORD: u32 = 1 << 24;

// ---------------------------------------------------------------------------
// Backend: the I/O surface, small enough to shim for fault injection.
// ---------------------------------------------------------------------------

/// The file operations a log performs, as a trait so tests can inject
/// faults deterministically ([`FaultyBackend`]) and run entirely in memory
/// ([`MemBackend`]).
pub trait StoreBackend: Send + Sync {
    /// Reads the entire current log image.
    fn load(&self) -> std::io::Result<Vec<u8>>;
    /// Appends bytes at the end of the log.
    fn append(&self, bytes: &[u8]) -> std::io::Result<()>;
    /// Truncates the log to `len` bytes (recovery and torn-write rollback).
    fn truncate(&self, len: u64) -> std::io::Result<()>;
}

/// The real thing: a single log file on disk.
pub struct FileBackend {
    path: PathBuf,
}

impl FileBackend {
    /// A backend over the given path; the file is created on first append.
    pub fn new(path: impl Into<PathBuf>) -> FileBackend {
        FileBackend { path: path.into() }
    }
}

impl StoreBackend for FileBackend {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            loaded => loaded,
        }
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(len)?;
        f.sync_data()
    }
}

/// An in-memory backend. Cloning shares the underlying buffer, so a test
/// can "restart the process" by reopening a clone, and can corrupt the
/// image directly through [`MemBackend::bytes`].
#[derive(Clone, Default)]
pub struct MemBackend {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// A fresh, empty in-memory log.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// The shared log image, for inspection and deliberate corruption.
    pub fn bytes(&self) -> Arc<Mutex<Vec<u8>>> {
        self.buf.clone()
    }

    fn image(&self) -> MutexGuard<'_, Vec<u8>> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StoreBackend for MemBackend {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.image().clone())
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.image().extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        self.image()
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// A deterministic plan of I/O faults for [`FaultyBackend`].
///
/// Each field arms one fault; `Default` arms none. [`FaultPlan::seeded`]
/// derives a plan from a seed, for matrix-style tests that want coverage
/// without hand-picking every point.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail the Nth append (0-based, counted across the backend's life).
    pub fail_append: Option<u32>,
    /// When the failing append fires, let the first N bytes land anyway —
    /// a torn ("short") write, as a crash mid-`write` would leave.
    pub torn_bytes: Option<usize>,
    /// Flip one bit of the loaded image at this byte offset (mod length)
    /// on every [`StoreBackend::load`].
    pub flip_read_at: Option<u64>,
    /// Fail every truncate call (recovery cannot repair the file).
    pub fail_truncate: bool,
    /// Fail every load call (the resume-read / merge-read fault: the log
    /// exists but cannot be read back at open).
    pub fail_load: bool,
}

/// The splitmix64 stream seeded plans draw from.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl FaultPlan {
    /// A deterministic plan derived from `seed` (splitmix64): fails one of
    /// the first 16 appends, torn half the time.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut next = splitmix64(seed);
        FaultPlan {
            fail_append: Some((next() % 16) as u32),
            torn_bytes: next().is_multiple_of(2).then(|| (next() % 24) as usize),
            ..FaultPlan::default()
        }
    }

    /// A wider deterministic plan for the chaos matrix: independently arms
    /// an append fault (torn half the time), a read bit-flip, a truncate
    /// fault and a load fault from `seed`, so a sweep over seeds covers the
    /// cross-product of fault sites — including the resume-read and
    /// merge-read paths [`FaultPlan::seeded`] never touches.
    pub fn seeded_chaos(seed: u64) -> FaultPlan {
        let mut next = splitmix64(seed);
        FaultPlan {
            fail_append: next().is_multiple_of(2).then(|| (next() % 32) as u32),
            torn_bytes: next().is_multiple_of(2).then(|| (next() % 24) as usize),
            flip_read_at: next().is_multiple_of(4).then(|| next() % 4096),
            fail_truncate: next().is_multiple_of(4),
            fail_load: next().is_multiple_of(8),
        }
    }
}

/// Wraps a backend and injects the faults a [`FaultPlan`] arms. Used by
/// the crash-matrix tests to prove recovery; never constructed on the
/// production path.
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    appends: AtomicU32,
}

impl<B: StoreBackend> FaultyBackend<B> {
    /// Wraps `inner`, arming `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> FaultyBackend<B> {
        FaultyBackend {
            inner,
            plan,
            appends: AtomicU32::new(0),
        }
    }
}

impl<B: StoreBackend> StoreBackend for FaultyBackend<B> {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        if self.plan.fail_load {
            return Err(std::io::Error::other("injected load fault"));
        }
        let mut buf = self.inner.load()?;
        if let Some(off) = self.plan.flip_read_at {
            if !buf.is_empty() {
                let i = (off % buf.len() as u64) as usize;
                buf[i] ^= 0x40;
            }
        }
        Ok(buf)
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        if self.plan.fail_append == Some(n) {
            if let Some(torn) = self.plan.torn_bytes {
                let torn = torn.min(bytes.len());
                // Land the torn prefix, then report failure — the shape a
                // crash mid-write leaves on disk.
                let _ = self.inner.append(&bytes[..torn]);
            }
            return Err(std::io::Error::other("injected append fault"));
        }
        self.inner.append(bytes)
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        if self.plan.fail_truncate {
            return Err(std::io::Error::other("injected truncate fault"));
        }
        self.inner.truncate(len)
    }
}

// ---------------------------------------------------------------------------
// The log session.
// ---------------------------------------------------------------------------

/// Counters describing one log session: what recovery found and what has
/// happened since. Rendered as the `store.*` and `journal.*` metric rows by
/// [`crate::CampaignResult::metric_rows`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Valid records recovered on open.
    pub recovered: u64,
    /// Bytes of damaged suffix (or of a reset image) dropped on open.
    pub dropped_bytes: u64,
    /// True if the header was missing/mismatched and the log was reset.
    pub reset: bool,
    /// Records appended since open.
    pub appends: u64,
    /// Failed or refused appends (the entries stayed memory-only).
    pub write_errors: u64,
    /// True when the file could no longer be kept a valid prefix (a
    /// rollback, recovery truncation or header write failed): the session
    /// serves what it has but accepts no appends.
    pub read_only: bool,
    /// Lookups answered from the log: store legs served from disk, journal
    /// items replayed.
    pub replayed: u64,
}

/// What tells one kind of log from another.
pub(crate) struct LogFormat {
    /// The name errors and the degrade notice use.
    pub(crate) what: &'static str,
    pub(crate) magic: &'static [u8; 8],
    /// Payload format version; any other version resets the log.
    pub(crate) version: u32,
}

impl LogFormat {
    fn header(&self, stamp: &[u8; STAMP_LEN]) -> Vec<u8> {
        let mut h = [&self.magic[..], &self.version.to_le_bytes(), stamp].concat();
        let ck = fnv1a64(0, &h);
        h.extend_from_slice(&ck.to_le_bytes());
        h
    }

    /// The stamp of `image`'s header, when magic, version and checksum hold.
    fn stamp_of(&self, image: &[u8]) -> Option<[u8; STAMP_LEN]> {
        let header = image.get(..HEADER_LEN)?;
        let stamp: [u8; STAMP_LEN] = header[12..12 + STAMP_LEN].try_into().unwrap();
        (self.header(&stamp) == header).then_some(stamp)
    }
}

/// Which header an open accepts.
#[derive(Clone, Copy)]
pub(crate) enum Stamp {
    /// Exactly this stamp; any other image is reset under a fresh header.
    Expect([u8; STAMP_LEN]),
    /// Any intact stamp the predicate accepts. With none, the session
    /// reports `reset`, is read-only and never writes: a file named by
    /// mistake is not stamped over.
    Adopt(fn(&[u8; STAMP_LEN]) -> bool),
}

/// One open session over a log. Owners keep it under the mutex that
/// guards their index, so an append and its index update are one critical
/// section.
pub(crate) struct RecordLog {
    backend: Box<dyn StoreBackend>,
    format: &'static LogFormat,
    stamp: [u8; STAMP_LEN],
    /// Length of the valid prefix: the header and every kept record.
    len: u64,
    stats: LogStats,
    /// Framing buffer, reused across appends.
    frame: Vec<u8>,
}

#[cfg(test)]
thread_local! {
    /// Degrade notices emitted on this thread, for the warn-once tests.
    static NOTICES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl RecordLog {
    /// Loads `backend`'s image and opens a session on it. Under an accepted
    /// header each checksum-valid record goes to `keep` in log order until
    /// one is rejected (a decode failure) and the damaged suffix is
    /// truncated; otherwise the log is reset or, when adopting, left as it
    /// is. Only a failed load is an error.
    pub(crate) fn open(
        backend: Box<dyn StoreBackend>,
        format: &'static LogFormat,
        stamp: Stamp,
        keep: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<RecordLog> {
        let image = backend
            .load()
            .map_err(|e| Error::Io(format!("{} load: {e}", format.what)))?;
        let found = format.stamp_of(&image);
        let adopting = matches!(stamp, Stamp::Adopt(_));
        let (stamp, intact) = match stamp {
            Stamp::Expect(want) => (want, found == Some(want)),
            Stamp::Adopt(accept) => {
                let adopted = found.filter(accept);
                (adopted.unwrap_or_default(), adopted.is_some())
            }
        };
        let mut log = RecordLog {
            backend,
            format,
            stamp,
            len: 0,
            stats: LogStats::default(),
            frame: Vec::new(),
        };
        if intact {
            let recovered = &mut log.stats.recovered;
            let pos = scan(&image, &mut |payload, _| {
                let kept = keep(payload);
                *recovered += u64::from(kept);
                kept
            });
            log.len = pos as u64;
            log.stats.dropped_bytes = (image.len() - pos) as u64;
            // Serving the recovered prefix is sound even if the damaged
            // tail is stuck on disk; appending after it is not.
            if pos < image.len() && log.backend.truncate(pos as u64).is_err() {
                log.degrade("recovery could not truncate the damaged tail");
            }
        } else if adopting {
            // Nothing to adopt: report it, and never stamp over a file
            // that was merely named by mistake.
            log.stats.reset = true;
            log.stats.read_only = true;
        } else {
            // Missing, damaged or foreign header: reset wholesale.
            log.stats.reset = !image.is_empty();
            log.stats.dropped_bytes = image.len() as u64;
            let fresh = if image.is_empty() {
                Ok(())
            } else {
                log.backend.truncate(0)
            }
            .and_then(|()| log.backend.append(&format.header(&log.stamp)));
            match fresh {
                Ok(()) => log.len = HEADER_LEN as u64,
                Err(_) => {
                    // Not even a header: a memory-only session rather than
                    // a failed caller.
                    log.stats.write_errors += 1;
                    log.degrade("header write failed");
                }
            }
        }
        Ok(log)
    }

    /// Appends one record; true when it landed and the owner should index
    /// it. A payload over [`MAX_RECORD`] is refused before any byte lands
    /// (recovery would read its length as corruption and drop it and every
    /// later record), and a failed append is rolled back; both count as
    /// write errors and leave the log a valid prefix.
    pub(crate) fn append(&mut self, payload: &[u8]) -> bool {
        if self.stats.read_only {
            return false;
        }
        if payload.len() > MAX_RECORD as usize {
            self.stats.write_errors += 1;
            return false;
        }
        self.frame.clear();
        self.frame
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(payload);
        self.frame
            .extend_from_slice(&fnv1a64(0, payload).to_le_bytes());
        if self.backend.append(&self.frame).is_ok() {
            self.len += self.frame.len() as u64;
            self.stats.appends += 1;
            return true;
        }
        self.stats.write_errors += 1;
        // Roll back a possible torn tail; if even that fails, stop writing
        // and leave the damage to the next open's recovery.
        if self.backend.truncate(self.len).is_err() {
            self.degrade("torn-write rollback failed");
        }
        false
    }

    /// Turns the session read-only with a one-time stderr notice: degrading
    /// never changes a campaign result, so without this line (and the
    /// `*.read_only` metric row) a dead disk would go unnoticed.
    fn degrade(&mut self, why: &str) {
        if self.stats.read_only {
            return;
        }
        self.stats.read_only = true;
        eprintln!(
            "telechat: {} degraded to read-only ({why}); results are unaffected, entries will recompute on the next run",
            self.format.what
        );
        #[cfg(test)]
        NOTICES.with(|n| n.set(n.get() + 1));
    }

    /// Counts a lookup the owner answered from its index.
    pub(crate) fn count_replay(&mut self) {
        self.stats.replayed += 1;
    }

    /// The header stamp: the expected one, or the adopted one.
    pub(crate) fn stamp(&self) -> [u8; STAMP_LEN] {
        self.stamp
    }

    pub(crate) fn stats(&self) -> LogStats {
        self.stats.clone()
    }

    /// The offsets at which `image` can be cleanly cut: after the header
    /// and after each valid record `keep` accepts.
    pub(crate) fn boundaries(image: &[u8], keep: &mut dyn FnMut(&[u8]) -> bool) -> Vec<usize> {
        if image.len() < HEADER_LEN {
            return Vec::new();
        }
        let mut bounds = vec![HEADER_LEN];
        scan(image, &mut |payload, end| {
            let kept = keep(payload);
            if kept {
                bounds.push(end);
            }
            kept
        });
        bounds
    }
}

/// Scans the records after the header, feeding each checksum-valid payload
/// and the offset just past its record to `keep`. The first record whose
/// length overruns the image or exceeds [`MAX_RECORD`], whose checksum
/// mismatches, or that `keep` rejects ends the valid prefix, whose length
/// is returned.
fn scan(image: &[u8], keep: &mut dyn FnMut(&[u8], usize) -> bool) -> usize {
    let mut pos = HEADER_LEN;
    while let Some(len_bytes) = image.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        let body = (len <= MAX_RECORD as usize)
            .then(|| image.get(pos + 4..end))
            .flatten();
        let Some(body) = body else { break };
        let (payload, ck) = body.split_at(len);
        if fnv1a64(0, payload) != u64::from_le_bytes(ck.try_into().unwrap()) || !keep(payload, end)
        {
            break;
        }
        pos = end;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_LOG: LogFormat = LogFormat {
        what: "test log",
        magic: b"TCHTEST!",
        version: 1,
    };
    const STAMP: Stamp = Stamp::Expect([7; STAMP_LEN]);

    /// Opens a session, returning it with every payload recovery kept.
    fn open(backend: impl StoreBackend + 'static, stamp: Stamp) -> (RecordLog, Vec<Vec<u8>>) {
        let mut kept = Vec::new();
        let log = RecordLog::open(Box::new(backend), &TEST_LOG, stamp, &mut |p| {
            kept.push(p.to_vec());
            true
        })
        .unwrap();
        (log, kept)
    }

    fn image(mem: &MemBackend) -> Vec<u8> {
        mem.bytes().lock().unwrap().clone()
    }

    fn with_image(bytes: &[u8]) -> MemBackend {
        let mem = MemBackend::new();
        mem.bytes().lock().unwrap().extend_from_slice(bytes);
        mem
    }

    fn notices() -> u32 {
        NOTICES.with(|n| n.get())
    }

    fn payloads() -> Vec<Vec<u8>> {
        (0..4u8).map(|i| vec![i; 3 + 5 * i as usize]).collect()
    }

    #[test]
    fn a_cut_at_every_byte_recovers_the_valid_prefix() {
        let mem = MemBackend::new();
        let (mut log, _) = open(mem.clone(), STAMP);
        for p in payloads() {
            assert!(log.append(&p));
        }
        let full = image(&mem);
        let bounds = RecordLog::boundaries(&full, &mut |_| true);
        assert_eq!(bounds.len(), 1 + payloads().len());
        assert_eq!(*bounds.last().unwrap(), full.len());

        for cut in 0..=full.len() {
            let mem = with_image(&full[..cut]);
            let (log, kept) = open(mem.clone(), STAMP);
            let stats = log.stats();
            assert!(!stats.read_only, "cut at {cut}");
            if cut < HEADER_LEN {
                // No intact header: a wholesale reset under a fresh one.
                assert_eq!(stats.reset, cut > 0, "cut at {cut}");
                assert_eq!(stats.dropped_bytes, cut as u64);
                assert!(kept.is_empty());
                assert_eq!(image(&mem), full[..HEADER_LEN], "cut at {cut}");
                continue;
            }
            let valid = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            let keep_to = bounds[valid];
            assert!(!stats.reset);
            assert_eq!(stats.recovered, valid as u64, "cut at {cut}");
            assert_eq!(stats.dropped_bytes, (cut - keep_to) as u64, "cut at {cut}");
            assert_eq!(kept, payloads()[..valid], "cut at {cut}");
            assert_eq!(
                image(&mem),
                full[..keep_to],
                "cut at {cut}: damaged tail truncated"
            );
        }
    }

    #[test]
    fn a_torn_append_is_rolled_back() {
        let mem = MemBackend::new();
        // Append #0 lays down the header; #1 lands 7 bytes and fails.
        let plan = FaultPlan {
            fail_append: Some(1),
            torn_bytes: Some(7),
            ..FaultPlan::default()
        };
        let (mut log, _) = open(FaultyBackend::new(mem.clone(), plan), STAMP);
        assert!(!log.append(b"torn"));
        assert_eq!(image(&mem).len(), HEADER_LEN, "the torn bytes are gone");
        assert!(log.append(b"whole"));
        let stats = log.stats();
        assert_eq!(
            (stats.appends, stats.write_errors, stats.read_only),
            (1, 1, false)
        );

        let (log, kept) = open(mem, STAMP);
        assert_eq!((log.stats().recovered, log.stats().dropped_bytes), (1, 0));
        assert_eq!(kept, [b"whole".to_vec()]);
    }

    #[test]
    fn a_failed_rollback_degrades_to_read_only_and_warns_once() {
        let mem = MemBackend::new();
        let plan = FaultPlan {
            fail_append: Some(1),
            torn_bytes: Some(5),
            fail_truncate: true,
            ..FaultPlan::default()
        };
        let before = notices();
        let (mut log, _) = open(FaultyBackend::new(mem.clone(), plan), STAMP);
        assert!(!log.append(b"torn"));
        assert!(log.stats().read_only);
        assert_eq!(notices(), before + 1);
        // Read-only: later appends touch nothing and warn no more.
        let len = image(&mem).len();
        assert!(!log.append(b"later"));
        assert!(!log.append(b"later still"));
        assert_eq!(image(&mem).len(), len);
        assert_eq!(notices(), before + 1);
        let stats = log.stats();
        assert_eq!((stats.appends, stats.write_errors), (0, 1));

        // The next open drops exactly the torn bytes.
        let (log, _) = open(mem, STAMP);
        assert_eq!((log.stats().recovered, log.stats().dropped_bytes), (0, 5));
    }

    #[test]
    fn a_failed_header_write_gives_a_memory_only_session() {
        let mem = MemBackend::new();
        let plan = FaultPlan {
            fail_append: Some(0),
            ..FaultPlan::default()
        };
        let before = notices();
        let (mut log, _) = open(FaultyBackend::new(mem.clone(), plan), STAMP);
        let stats = log.stats();
        assert_eq!(
            (stats.write_errors, stats.read_only, stats.reset),
            (1, true, false)
        );
        assert_eq!(notices(), before + 1);
        assert!(!log.append(b"x"));
        assert!(image(&mem).is_empty());
    }

    #[test]
    fn an_adopt_open_of_an_empty_or_garbage_image_writes_nothing() {
        let before = notices();
        for bytes in [Vec::new(), vec![0xab; 50], b"TCHTEST!".to_vec()] {
            let mem = with_image(&bytes);
            let (mut log, kept) = open(mem.clone(), Stamp::Adopt(|_| true));
            let stats = log.stats();
            assert!(stats.reset && stats.read_only, "{bytes:?}");
            assert!(kept.is_empty());
            assert!(!log.append(b"x"));
            assert_eq!(image(&mem), bytes, "the image is untouched");
        }
        assert_eq!(notices(), before, "adopting nothing is not a degrade");
    }

    #[test]
    fn an_adopt_open_takes_the_stamp_of_an_intact_header() {
        let mem = MemBackend::new();
        let (mut log, _) = open(mem.clone(), Stamp::Expect([9; STAMP_LEN]));
        assert!(log.append(b"rec"));
        let (log, kept) = open(mem.clone(), Stamp::Adopt(|_| true));
        assert_eq!(log.stamp(), [9; STAMP_LEN]);
        assert_eq!(kept, [b"rec".to_vec()]);
        // A predicate that refuses the stamp adopts nothing.
        let (log, _) = open(mem, Stamp::Adopt(|s| s[0] == 0));
        assert!(log.stats().reset);
    }

    #[test]
    fn an_oversized_payload_is_refused_and_the_limit_itself_round_trips() {
        let mem = MemBackend::new();
        let (mut log, _) = open(mem.clone(), STAMP);
        let at_limit = vec![1u8; MAX_RECORD as usize];
        assert!(!log.append(&[2u8; MAX_RECORD as usize + 1]));
        assert_eq!(
            image(&mem).len(),
            HEADER_LEN,
            "no byte of the refused record lands"
        );
        assert!(log.append(&at_limit));
        assert!(log.append(b"after"));
        let stats = log.stats();
        assert_eq!(
            (stats.appends, stats.write_errors, stats.read_only),
            (2, 1, false)
        );

        let (log, kept) = open(mem, STAMP);
        assert_eq!(log.stats().recovered, 2);
        assert_eq!(kept, [at_limit, b"after".to_vec()]);
    }

    #[test]
    fn seeded_plans_are_pinned() {
        // The splitmix64 streams behind the crash and chaos matrices: a
        // change here silently changes which faults those sweeps cover.
        let plan = |p: FaultPlan| format!("{p:?}");
        assert_eq!(
            plan(FaultPlan::seeded(1)),
            "FaultPlan { fail_append: Some(7), torn_bytes: Some(11), flip_read_at: None, \
             fail_truncate: false, fail_load: false }"
        );
        assert_eq!(
            plan(FaultPlan::seeded_chaos(94)),
            "FaultPlan { fail_append: Some(18), torn_bytes: Some(15), flip_read_at: Some(1964), \
             fail_truncate: true, fail_load: true }"
        );
    }
}
