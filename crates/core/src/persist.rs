//! Crash-safe persistent campaign store.
//!
//! An append-only, content-addressed record log that persists simulation
//! legs across processes, wired under [`crate::SimCache`] as a
//! write-through tier: a warm rerun of a campaign answers every leg from
//! disk and only simulates fingerprints it has never seen.
//!
//! # File format
//!
//! The store is a record log (`log.rs`: header, framing, recovery, degrade)
//! whose header stamp is `engine_revision(u64) models_fp(u64)` and whose
//! record payloads are:
//!
//! ```text
//! payload  := kind(u8) test(u128) model(u64) config(u64) value
//! value    := 0 StoredSim | 1 Error
//! ```
//!
//! # Versioning
//!
//! The header stamps [`telechat_exec::ENGINE_REVISION`] and the bundled
//! model corpus fingerprint ([`telechat_cat::bundled_fingerprint`]); a
//! mismatch on open resets the store wholesale, so an engine or model
//! change can never replay stale results. Individual records additionally
//! key on the *per-model* content fingerprint
//! ([`telechat_cat::CatModel::content_fingerprint`]), so two models never
//! alias. Ad-hoc models built from a raw [`telechat_cat::CatProgram`]
//! have no stable content fingerprint and are simply never persisted.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use telechat_common::{Error, Loc, Outcome, OutcomeSet, Reg, Result, StateKey, ThreadId, Val};
use telechat_exec::SimResult;

pub use crate::log::{FaultPlan, FaultyBackend, FileBackend, LogStats, MemBackend, StoreBackend};
use crate::log::{LogFormat, RecordLog, Stamp, STAMP_LEN};

/// On-disk format version (bump on layout changes). v2 added
/// `StoredSim::pruned_candidates`; v3 added the attribution fields (rule
/// tallies, prune sites, per-combo histogram). An older log is recovered
/// as a reset (the legs recompute — store contents never change results).
const FORMAT_VERSION: u32 = 3;
static FORMAT: LogFormat = LogFormat {
    what: "store",
    magic: b"TCHSTORE",
    version: FORMAT_VERSION,
};

// ---------------------------------------------------------------------------
// Keys and values.
// ---------------------------------------------------------------------------

/// Which simulation leg a record caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LegKind {
    /// The source-program leg (shared across compiler configurations).
    Source,
    /// The compiled-program leg.
    Target,
}

/// The content-addressed key of one persisted leg: everything that
/// determines the simulation result, nothing that does not (no test name,
/// no thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistKey {
    /// Source or target leg.
    pub kind: LegKind,
    /// Canonical litmus fingerprint (`LitmusTest::fingerprint`).
    pub test: u128,
    /// Model *content* fingerprint (`CatModel::content_fingerprint`).
    pub model: u64,
    /// `sim_config_fingerprint` of the semantic simulation knobs.
    pub config: u64,
}

/// The persistable subset of a [`SimResult`]: everything except kept
/// executions (render-only, bounded but bulky, and excluded by their own
/// config fingerprint anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSim {
    /// Outcomes of all allowed executions.
    pub outcomes: OutcomeSet,
    /// Candidate executions examined.
    pub candidates: u64,
    /// Allowed executions.
    pub allowed: u64,
    /// Flags that fired on at least one allowed execution.
    pub flags: std::collections::BTreeSet<String>,
    /// Const-write crash marker.
    pub crashed: bool,
    /// Full acyclicity traversals (pinned-zero accounting field).
    pub full_traversals: u64,
    /// Budget charge covered by pruned subtrees. Deterministic (a charge
    /// sum), unlike `SimResult::steal_tasks`, which is scheduling-class
    /// and deliberately *not* persisted — replays report 0.
    pub pruned_candidates: u64,
    /// Original wall-clock simulation time, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Forbidden-leaf tally per first-violated rule. Persisted so
    /// store-warm replays carry the original attribution and campaign
    /// totals stay byte-identical across store configurations.
    pub rule_leaves: std::collections::BTreeMap<String, u64>,
    /// Pruned charge per blamed rule (mid-DFS rejections).
    pub rule_prunes: std::collections::BTreeMap<String, u64>,
    /// Pruned charge per enumeration prune site.
    pub prune_sites: telechat_exec::PruneSites,
    /// Per-combo DFS-size histogram (sparse-encoded on disk).
    pub combo_candidates: telechat_obs::Histogram,
}

impl StoredSim {
    /// Captures a result for persistence. `None` when the result carries
    /// kept executions — those runs are never persisted.
    pub fn capture(r: &SimResult) -> Option<StoredSim> {
        if !r.executions.is_empty() {
            return None;
        }
        Some(StoredSim {
            outcomes: r.outcomes.clone(),
            candidates: r.candidates,
            allowed: r.allowed,
            flags: r.flags.clone(),
            crashed: r.crashed,
            full_traversals: r.full_traversals,
            pruned_candidates: r.pruned_candidates,
            elapsed_nanos: u64::try_from(r.elapsed.as_nanos()).unwrap_or(u64::MAX),
            rule_leaves: r.rule_leaves.clone(),
            rule_prunes: r.rule_prunes.clone(),
            prune_sites: r.prune_sites,
            combo_candidates: r.combo_candidates.clone(),
        })
    }

    /// Rebuilds the full result (with an empty execution list).
    pub fn into_result(self) -> SimResult {
        SimResult {
            outcomes: self.outcomes,
            candidates: self.candidates,
            allowed: self.allowed,
            flags: self.flags,
            crashed: self.crashed,
            executions: Vec::new(),
            full_traversals: self.full_traversals,
            pruned_candidates: self.pruned_candidates,
            steal_tasks: 0,
            rule_leaves: self.rule_leaves,
            rule_prunes: self.rule_prunes,
            prune_sites: self.prune_sites,
            combo_candidates: self.combo_candidates,
            elapsed: Duration::from_nanos(self.elapsed_nanos),
        }
    }
}

/// What a record stores: a completed simulation or the *deterministic*
/// error it produced (budget, timeout, ill-formed…). Faults
/// ([`Error::is_fault`]) are never persisted.
pub type StoredValue = Result<StoredSim>;

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_val(buf: &mut Vec<u8>, v: &Val) {
    match v {
        Val::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Val::Addr(l) => {
            buf.push(1);
            put_str(buf, l.as_str());
        }
    }
}

fn put_rule_map(buf: &mut Vec<u8>, map: &std::collections::BTreeMap<String, u64>) {
    put_u32(buf, map.len() as u32);
    for (rule, n) in map {
        put_str(buf, rule);
        put_u64(buf, *n);
    }
}

/// Sparse histogram encoding: the (index, count) pairs of the nonzero
/// buckets, then the scalar summary. Per-combo DFS sizes cluster in a
/// handful of buckets, so this beats the dense 65-slot array by an order
/// of magnitude on disk.
fn put_hist(buf: &mut Vec<u8>, h: &telechat_obs::Histogram) {
    let nonzero: Vec<(u8, u64)> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i as u8, c))
        .collect();
    put_u32(buf, nonzero.len() as u32);
    for (i, c) in nonzero {
        buf.push(i);
        put_u64(buf, c);
    }
    put_u64(buf, h.count());
    put_u64(buf, h.sum());
    put_u64(buf, h.min());
    put_u64(buf, h.max());
}

fn put_key(buf: &mut Vec<u8>, k: &StateKey) {
    match k {
        StateKey::Reg(t, r) => {
            buf.push(0);
            buf.push(t.0);
            put_str(buf, r.name());
        }
        StateKey::Loc(l) => {
            buf.push(1);
            put_str(buf, l.as_str());
        }
    }
}

/// Encodes a value; `false` when the value is unpersistable (a fault).
fn encode_value(buf: &mut Vec<u8>, v: &StoredValue) -> bool {
    match v {
        Ok(sim) => {
            buf.push(0);
            put_u32(buf, sim.outcomes.len() as u32);
            for o in sim.outcomes.iter() {
                put_u32(buf, o.len() as u32);
                for (k, val) in o.iter() {
                    put_key(buf, k);
                    put_val(buf, val);
                }
            }
            put_u64(buf, sim.candidates);
            put_u64(buf, sim.allowed);
            put_u32(buf, sim.flags.len() as u32);
            for f in &sim.flags {
                put_str(buf, f);
            }
            buf.push(u8::from(sim.crashed));
            put_u64(buf, sim.full_traversals);
            put_u64(buf, sim.pruned_candidates);
            put_u64(buf, sim.elapsed_nanos);
            put_rule_map(buf, &sim.rule_leaves);
            put_rule_map(buf, &sim.rule_prunes);
            for (_, n) in sim.prune_sites.rows() {
                put_u64(buf, n);
            }
            put_hist(buf, &sim.combo_candidates);
            true
        }
        Err(e) => {
            if e.is_fault() {
                return false;
            }
            // Faults are screened out above; journal errors never occur as
            // simulation-leg results.
            let (code, text, word) = match e {
                Error::Parse { msg, line } => {
                    (0, Some(msg), Some(line.map_or(u64::MAX, |l| l as u64)))
                }
                Error::Model(m) => (1, Some(m), None),
                Error::IllFormed(m) => (2, Some(m), None),
                Error::Budget { steps } => (3, None, Some(*steps)),
                Error::Timeout { limit_ms } => (4, None, Some(*limit_ms)),
                Error::Vacuous(m) => (5, Some(m), None),
                Error::Unsupported(m) => (6, Some(m), None),
                Error::InternalCompilerError(m) => (7, Some(m), None),
                Error::Panicked(_)
                | Error::Deadline { .. }
                | Error::Io(_)
                | Error::Journal(_)
                | Error::RetriesExhausted { .. } => unreachable!(),
            };
            buf.extend_from_slice(&[1, code]);
            if let Some(text) = text {
                put_str(buf, text);
            }
            if let Some(word) = word {
                put_u64(buf, word);
            }
            true
        }
    }
}

fn encode_record(key: &PersistKey, value: &StoredValue) -> Option<Vec<u8>> {
    let mut payload = Vec::with_capacity(128);
    payload.push(match key.kind {
        LegKind::Source => 0,
        LegKind::Target => 1,
    });
    payload.extend_from_slice(&key.test.to_le_bytes());
    put_u64(&mut payload, key.model);
    put_u64(&mut payload, key.config);
    encode_value(&mut payload, value).then_some(payload)
}

/// A bounds-checked little-endian reader; any overrun or bad tag reads as
/// `None`, which recovery treats as a damaged record.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|s| u128::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn val(&mut self) -> Option<Val> {
        match self.u8()? {
            0 => Some(Val::Int(self.i64()?)),
            1 => Some(Val::Addr(Loc::new(self.str()?))),
            _ => None,
        }
    }

    fn key(&mut self) -> Option<StateKey> {
        match self.u8()? {
            0 => {
                let t = ThreadId(self.u8()?);
                Some(StateKey::Reg(t, Reg::new(self.str()?)))
            }
            1 => Some(StateKey::Loc(Loc::new(self.str()?))),
            _ => None,
        }
    }

    fn rule_map(&mut self) -> Option<std::collections::BTreeMap<String, u64>> {
        let n = self.u32()?;
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..n {
            let rule = self.str()?;
            let count = self.u64()?;
            map.insert(rule, count);
        }
        Some(map)
    }

    fn prune_sites(&mut self) -> Option<telechat_exec::PruneSites> {
        Some(telechat_exec::PruneSites {
            rf_incremental: self.u64()?,
            rf_recheck: self.u64()?,
            co_incremental: self.u64()?,
            co_recheck: self.u64()?,
        })
    }

    fn hist(&mut self) -> Option<telechat_obs::Histogram> {
        let n = self.u32()?;
        let mut buckets = [0u64; 65];
        for _ in 0..n {
            let i = self.u8()? as usize;
            let c = self.u64()?;
            *buckets.get_mut(i)? = c;
        }
        let count = self.u64()?;
        let sum = self.u64()?;
        let min = self.u64()?;
        let max = self.u64()?;
        Some(telechat_obs::Histogram::from_parts(
            buckets, count, sum, min, max,
        ))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_record(payload: &[u8]) -> Option<(PersistKey, StoredValue)> {
    let mut d = Dec::new(payload);
    let kind = match d.u8()? {
        0 => LegKind::Source,
        1 => LegKind::Target,
        _ => return None,
    };
    let key = PersistKey {
        kind,
        test: d.u128()?,
        model: d.u64()?,
        config: d.u64()?,
    };
    let value = match d.u8()? {
        0 => {
            let n_outcomes = d.u32()?;
            let mut outcomes = OutcomeSet::new();
            for _ in 0..n_outcomes {
                let n_slots = d.u32()?;
                let mut o = Outcome::new();
                for _ in 0..n_slots {
                    let k = d.key()?;
                    let v = d.val()?;
                    o.set(k, v);
                }
                outcomes.insert(o);
            }
            let candidates = d.u64()?;
            let allowed = d.u64()?;
            let n_flags = d.u32()?;
            let mut flags = std::collections::BTreeSet::new();
            for _ in 0..n_flags {
                flags.insert(d.str()?);
            }
            let crashed = match d.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Ok(StoredSim {
                outcomes,
                candidates,
                allowed,
                flags,
                crashed,
                full_traversals: d.u64()?,
                pruned_candidates: d.u64()?,
                elapsed_nanos: d.u64()?,
                rule_leaves: d.rule_map()?,
                rule_prunes: d.rule_map()?,
                prune_sites: d.prune_sites()?,
                combo_candidates: d.hist()?,
            })
        }
        1 => Err(match d.u8()? {
            0 => {
                let msg = d.str()?;
                let line = d.u64()?;
                Error::Parse {
                    msg,
                    line: (line != u64::MAX).then_some(line as usize),
                }
            }
            1 => Error::Model(d.str()?),
            2 => Error::IllFormed(d.str()?),
            3 => Error::Budget { steps: d.u64()? },
            4 => Error::Timeout { limit_ms: d.u64()? },
            5 => Error::Vacuous(d.str()?),
            6 => Error::Unsupported(d.str()?),
            7 => Error::InternalCompilerError(d.str()?),
            _ => return None,
        }),
        _ => return None,
    };
    // Trailing bytes mean the length field and the content disagree:
    // treat the record as damaged rather than silently ignoring them.
    d.done().then_some((key, value))
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

struct StoreState {
    index: HashMap<PersistKey, StoredValue>,
    log: RecordLog,
}

/// The persistent content-addressed store. One instance per log file,
/// shared across campaign workers behind an `Arc`; see the module docs
/// for format and versioning.
pub struct PersistStore {
    state: Mutex<StoreState>,
}

impl fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state();
        f.debug_struct("PersistStore")
            .field("entries", &st.index.len())
            .field("log", &st.log.stats())
            .finish()
    }
}

impl PersistStore {
    fn state(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens (or creates) the store at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<PersistStore> {
        PersistStore::open_backend(Box::new(FileBackend::new(path)))
    }

    /// Opens a store over an arbitrary backend, stamped with the current
    /// engine revision and bundled-model fingerprint.
    pub fn open_backend(backend: Box<dyn StoreBackend>) -> Result<PersistStore> {
        PersistStore::open_versioned(
            backend,
            telechat_exec::ENGINE_REVISION,
            telechat_cat::bundled_fingerprint(),
        )
    }

    /// Opens with explicit version stamps. Production callers use
    /// [`PersistStore::open_backend`]; tests use this to prove that a
    /// revision or model-corpus bump invalidates cleanly.
    pub fn open_versioned(
        backend: Box<dyn StoreBackend>,
        engine_revision: u64,
        models_fp: u64,
    ) -> Result<PersistStore> {
        let mut stamp = [0; STAMP_LEN];
        stamp[..8].copy_from_slice(&engine_revision.to_le_bytes());
        stamp[8..].copy_from_slice(&models_fp.to_le_bytes());
        let mut index = HashMap::new();
        let log = RecordLog::open(backend, &FORMAT, Stamp::Expect(stamp), &mut |payload| {
            decode_record(payload)
                .map(|(key, value)| index.insert(key, value))
                .is_some()
        })?;
        Ok(PersistStore {
            state: Mutex::new(StoreState { index, log }),
        })
    }

    /// Looks up a persisted leg; a hit counts as a replay.
    pub fn get(&self, key: &PersistKey) -> Option<StoredValue> {
        let mut st = self.state();
        let hit = st.index.get(key).cloned();
        if hit.is_some() {
            st.log.count_replay();
        }
        hit
    }

    /// Persists a leg. Fault values and unpersistable results are skipped;
    /// I/O failures degrade (rolled back and counted, never surfaced).
    pub fn put(&self, key: PersistKey, value: &StoredValue) {
        let Some(payload) = encode_record(&key, value) else {
            return;
        };
        let mut st = self.state();
        if st.log.append(&payload) {
            st.index.insert(key, value.clone());
        }
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.state().index.len()
    }

    /// True if no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> LogStats {
        self.state().log.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::log::{HEADER_LEN, MAX_RECORD};

    fn sample_sim() -> StoredSim {
        let mut outcomes = OutcomeSet::new();
        let mut o = Outcome::new();
        o.set(StateKey::reg(ThreadId(0), "r0"), Val::Int(1));
        o.set(StateKey::loc("y"), Val::Int(2));
        outcomes.insert(o);
        let mut o2 = Outcome::new();
        o2.set(StateKey::reg(ThreadId(1), "r0"), Val::Addr(Loc::new("x")));
        outcomes.insert(o2);
        StoredSim {
            outcomes,
            candidates: 12,
            allowed: 3,
            flags: ["race".to_string()].into_iter().collect(),
            crashed: false,
            full_traversals: 0,
            pruned_candidates: 5,
            elapsed_nanos: 1234,
            rule_leaves: [("sc".to_string(), 4), ("rc11-hb".to_string(), 2)]
                .into_iter()
                .collect(),
            rule_prunes: [("sc".to_string(), 5)].into_iter().collect(),
            prune_sites: telechat_exec::PruneSites {
                rf_incremental: 3,
                rf_recheck: 0,
                co_incremental: 2,
                co_recheck: 0,
            },
            combo_candidates: {
                let mut h = telechat_obs::Histogram::new();
                h.record(4);
                h.record(8);
                h
            },
        }
    }

    fn k(test: u128) -> PersistKey {
        PersistKey {
            kind: LegKind::Source,
            test,
            model: 7,
            config: 9,
        }
    }

    #[test]
    fn codec_round_trips_results_and_errors() {
        for value in [
            Ok(sample_sim()),
            Err(Error::Budget { steps: 42 }),
            Err(Error::parse_at("bad token", 3)),
            Err(Error::Timeout { limit_ms: 5000 }),
        ] {
            let (key, decoded) = decode_record(&encode_record(&k(1), &value).unwrap()).unwrap();
            assert_eq!(key, k(1));
            assert_eq!(decoded, value);
        }
    }

    #[test]
    fn faults_are_never_encoded() {
        assert!(encode_record(&k(1), &Err(Error::Panicked("boom".into()))).is_none());
        assert!(encode_record(&k(1), &Err(Error::Deadline { limit_ms: 9 })).is_none());
        assert!(encode_record(&k(1), &Err(Error::Io("disk".into()))).is_none());
    }

    #[test]
    fn reopen_recovers_the_index() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Err(Error::Budget { steps: 8 }));
        drop(store);

        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        assert_eq!(store.get(&k(2)), Some(Err(Error::Budget { steps: 8 })));
    }

    #[test]
    fn truncated_tail_is_dropped_exactly() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Ok(sample_sim()));
        drop(store);

        // Chop bytes off the tail: the damaged record vanishes, the rest
        // survives — for every cut point inside the last record.
        let full = mem.bytes().lock().unwrap().clone();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);
        for cut in (HEADER_LEN as u64 + 1)..full.len() as u64 {
            let mem = MemBackend::new();
            mem.bytes()
                .lock()
                .unwrap()
                .extend_from_slice(&full[..cut as usize]);
            let store = PersistStore::open_backend(Box::new(mem)).unwrap();
            assert!(store.len() <= 2);
            let whole_records = store.stats().recovered == 2 && store.stats().dropped_bytes == 0;
            assert_eq!(whole_records, cut == full.len() as u64, "cut at {cut}");
            // Whatever survived is intact.
            if let Some(v) = store.get(&k(1)) {
                assert_eq!(v, Ok(sample_sim()));
            }
        }
    }

    #[test]
    fn bit_flip_drops_the_damaged_suffix() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Ok(sample_sim()));
        drop(store);

        let len = mem.bytes().lock().unwrap().len();
        for off in HEADER_LEN..len {
            let mem2 = MemBackend::new();
            {
                let src = mem.bytes();
                let src = src.lock().unwrap();
                mem2.bytes().lock().unwrap().extend_from_slice(&src);
                mem2.bytes().lock().unwrap()[off] ^= 0x01;
            }
            let store = PersistStore::open_backend(Box::new(mem2)).unwrap();
            // Never serve damaged data: any surviving entry decodes to
            // exactly what was written.
            assert!(store.len() < 2 || store.stats().dropped_bytes == 0 || store.len() == 2);
            if let Some(v) = store.get(&k(2)) {
                assert_eq!(v, Ok(sample_sim()), "flip at {off}");
            }
        }
    }

    #[test]
    fn header_flip_resets_the_store() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);

        mem.bytes().lock().unwrap()[3] ^= 0x80;
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.len(), 0);
        // The reset store is immediately usable again.
        store.put(k(3), &Ok(sample_sim()));
        drop(store);
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.get(&k(3)), Some(Ok(sample_sim())));
    }

    #[test]
    fn revision_bump_invalidates_cleanly() {
        let mem = MemBackend::new();
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 99).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);

        // Same stamps: warm.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 99).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);

        // Engine revision bump: cold, no stale hits.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 2, 99).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.get(&k(1)), None);
        drop(store);

        // Model-corpus bump likewise.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 2, 100).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.get(&k(1)), None);
    }

    #[test]
    fn torn_append_is_rolled_back_and_degrades() {
        let mem = MemBackend::new();
        // Append #0 is the header (fresh store); fail append #2 torn.
        let plan = FaultPlan {
            fail_append: Some(2),
            torn_bytes: Some(7),
            ..FaultPlan::default()
        };
        let store =
            PersistStore::open_backend(Box::new(FaultyBackend::new(mem.clone(), plan))).unwrap();
        store.put(k(1), &Ok(sample_sim())); // append #1: lands
        store.put(k(2), &Ok(sample_sim())); // append #2: torn, rolled back
        store.put(k(3), &Ok(sample_sim())); // append #3: lands again
        let stats = store.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.write_errors, 1);
        assert_eq!(store.get(&k(2)), None);
        drop(store);

        // The log on disk is a clean prefix: full recovery, nothing dropped.
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.stats().dropped_bytes, 0);
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        assert_eq!(store.get(&k(3)), Some(Ok(sample_sim())));
    }

    #[test]
    fn torn_append_without_rollback_is_dropped_on_reopen() {
        let mem = MemBackend::new();
        let plan = FaultPlan {
            fail_append: Some(1),
            torn_bytes: Some(5),
            fail_truncate: true,
            ..FaultPlan::default()
        };
        let store =
            PersistStore::open_backend(Box::new(FaultyBackend::new(mem.clone(), plan))).unwrap();
        store.put(k(1), &Ok(sample_sim())); // torn, rollback also fails
        store.put(k(2), &Ok(sample_sim())); // store is read-only now
        assert_eq!(store.stats().write_errors, 1);
        assert_eq!(store.stats().appends, 0);
        drop(store);

        // Recovery drops exactly the 5 torn bytes.
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.stats().recovered, 0);
        assert_eq!(store.stats().dropped_bytes, 5);
        store.put(k(4), &Ok(sample_sim()));
        assert_eq!(store.stats().appends, 1);
    }

    #[test]
    fn oversized_record_is_refused_and_later_records_survive() {
        // Recovery reads a length over `MAX_RECORD` as corruption, so a
        // writer that let one through would hide every later record.
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        let huge = Err(Error::Model("x".repeat(MAX_RECORD as usize + 1)));
        store.put(k(1), &huge);
        store.put(k(2), &Ok(sample_sim()));
        let stats = store.stats();
        assert_eq!(
            (stats.appends, stats.write_errors, stats.read_only),
            (1, 1, false)
        );
        drop(store);

        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        let stats = store.stats();
        assert_eq!((stats.recovered, stats.dropped_bytes), (1, 0));
        assert_eq!(store.get(&k(1)), None);
        assert_eq!(store.get(&k(2)), Some(Ok(sample_sim())));
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("telechat-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.store");
        let _ = std::fs::remove_file(&path);

        let store = PersistStore::open(&path).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);
        let store = PersistStore::open(&path).unwrap();
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        drop(store);

        // Truncate the file mid-record; reopen recovers.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let store = PersistStore::open(&path).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.stats().dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Lowercase hex of an image, for comparing against a golden literal.
    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Decodes a golden hex literal back into an image.
    pub(crate) fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The on-disk store format, pinned byte for byte: stamps (1, 2), one
    /// `Ok(sample_sim())` record under `k(1)` and one `Budget` error under
    /// `k(2)`. A change here is a format change and needs a
    /// `FORMAT_VERSION` bump.
    const GOLDEN_STORE: &str =
        "54434853544f52450300000001000000000000000200000000000000f9872e9b9d52b33b\
        1e0100000001000000000000000000000000000000070000000000000009000000000000\
        000002000000020000000000020000007230000100000000000000010100000079000200\
        0000000000000100000000010200000072300101000000780c0000000000000003000000\
        000000000100000004000000726163650000000000000000000500000000000000d20400\
        00000000000200000007000000726331312d686202000000000000000200000073630400\
        000000000000010000000200000073630500000000000000030000000000000000000000\
        000000000200000000000000000000000000000002000000030100000000000000040100\
        00000000000002000000000000000c000000000000000400000000000000080000000000\
        0000fb7cafd4865dd8cb2b00000000020000000000000000000000000000000700000000\
        000000090000000000000001030800000000000000a75561b214fe31af";

    #[test]
    fn golden_store_image_is_byte_stable_and_reopens_warm() {
        let mem = MemBackend::new();
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 2).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Err(Error::Budget { steps: 8 }));
        drop(store);
        assert_eq!(hex(&mem.bytes().lock().unwrap()), GOLDEN_STORE);

        let golden = MemBackend::new();
        *golden.bytes().lock().unwrap() = unhex(GOLDEN_STORE);
        let store = PersistStore::open_versioned(Box::new(golden.clone()), 1, 2).unwrap();
        let stats = store.stats();
        assert_eq!(
            (stats.recovered, stats.dropped_bytes, stats.reset),
            (2, 0, false)
        );
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        assert_eq!(store.get(&k(2)), Some(Err(Error::Budget { steps: 8 })));
        drop(store);
        assert_eq!(
            hex(&golden.bytes().lock().unwrap()),
            GOLDEN_STORE,
            "a warm open writes nothing"
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(11);
        let b = FaultPlan::seeded(11);
        assert_eq!(a.fail_append, b.fail_append);
        assert_eq!(a.torn_bytes, b.torn_bytes);
        assert!(a.fail_append.unwrap() < 16);
    }
}
