//! The campaign-scale sharing layer: a content-addressed simulation cache.
//!
//! A campaign runs `tests × profiles` pipeline work items (paper Table IV:
//! ~9,300 × ~50), but most of the expensive work in an item is *not*
//! profile-specific:
//!
//! * the **source leg** — `l2c::prepare` + `herd(S, M_S)` — depends only on
//!   the test, the source model and the simulation budget, so a naive
//!   driver re-simulates it once per profile (~50× redundant work);
//! * the **target leg** — `herd(comp(S), M_C)` — depends only on the
//!   *extracted* target test and the architecture model, and tiny litmus
//!   tests frequently compile to byte-identical code across optimisation
//!   levels (and across compilers), so even distinct profiles often share
//!   one target simulation.
//!
//! [`SimCache`] memoizes all three stages (prepare, source simulation,
//! target simulation) in sharded lock-striped maps keyed by the canonical
//! content fingerprints of `telechat_litmus::fingerprint` plus the model
//! identity and the budget-relevant [`SimConfig`] fields. Values are
//! `Arc`-shared; a per-key in-flight gate guarantees each distinct key is
//! computed **exactly once** even when many campaign workers race for it,
//! which is what makes [`CacheStats`] deterministic across worker counts.
//!
//! Every lookup is a non-blocking *claim* with three answers: the entry is
//! ready (a hit), this caller computes it (a miss), or another claimant has
//! it in flight. On the last answer a caller has two choices. The public
//! blocking lookups ([`SimCache::prepared`], [`SimCache::source_leg`],
//! [`SimCache::target_leg`]) *wait* on the entry's gate inside a
//! `gate-wait` span, then claim again and count the hit. Campaign workers
//! instead *park* the work item on the gate and pull other work. The gate
//! hands every parked item back exactly once, when it publishes or when its
//! computer panics, and the item's next claim counts the hit. Either way
//! each distinct key is one miss and every other claim one hit.
//!
//! Model identity is the model *name*: the pipeline only ever loads bundled
//! models (through the process-wide `telechat_cat::ModelRegistry`), whose
//! names are unique. Callers constructing ad-hoc models that alias a
//! bundled name must not share a cache across them.
//!
//! Caching is semantically invisible: simulations are deterministic
//! functions of `(test, model, budget)` — including their errors (budget
//! exhaustion) — so a campaign with the cache on is byte-identical in
//! cells, positive list and accounting to the uncached driver (pinned by
//! `tests/campaign_cache.rs`). Only wall-clock fields (`SimResult::elapsed`)
//! reflect the original computation rather than the replay. A leg cut
//! short by its work item's deadline is never cached: the next claimant
//! recomputes it.

use crate::fault::FaultLeg;
use crate::l2c::{self, PreparedSource};
use crate::mcompare::SourceObservables;
use crate::persist::{LegKind, PersistKey, PersistStore, StoredSim, StoredValue};
use crate::pipeline::LegRun;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use telechat_cat::CatModel;
use telechat_common::{Error, Result};
use telechat_exec::{SimConfig, SimResult};
use telechat_litmus::{fingerprint::fnv1a64, LitmusTest};

/// Locks a mutex, tolerating poison. Every guarded region in this module
/// leaves its map or gate value-consistent (single-call inserts/removes),
/// so poison carries no information here — honouring it would let one
/// panicking worker cascade into killing every unrelated campaign worker
/// that later touches the same shard.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of lock stripes per map: contention is per-shard, so campaign
/// workers touching different tests almost never serialise on a lock.
const SHARDS: usize = 16;

/// One entry slot: either the finished value, or the gate of the
/// computation in flight.
enum Slot<V> {
    Ready(V),
    Pending(Arc<Gate>),
}

/// A parked item's way back to whoever parked it: a callback run exactly
/// once — when the gate it is parked on publishes or poisons, or at once
/// when parked on a gate that already resolved. Dropping a waker runs it
/// (that *is* the hand-back), so a waker lost to an unwinding panic still
/// returns its item instead of stranding it.
pub(crate) struct Waker(Option<Box<dyn FnOnce() + Send>>);

impl Waker {
    /// A waker running `hand_back` once.
    pub(crate) fn new(hand_back: impl FnOnce() + Send + 'static) -> Waker {
        Waker(Some(Box::new(hand_back)))
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        if let Some(hand_back) = self.0.take() {
            hand_back();
        }
    }
}

/// The in-flight gate of one cache entry. Callers that cannot make
/// progress without the value either **park** a [`Waker`] on it (campaign
/// workers — the worker moves on to other work) or **wait** on it
/// (blocking callers — a `gate-wait` span shows where). The gate resolves
/// once, when its computation publishes or panics; either way every waiter
/// wakes and every parked waker is handed back, exactly once, and all of
/// them claim the entry again: a published entry is then a hit, and a
/// poisoned one (its slot removed) makes the first of them the new
/// computer.
pub(crate) struct Gate {
    /// The wakers parked on the gate; `None` once it resolved.
    parked: Mutex<Option<Vec<Waker>>>,
    resolved: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            parked: Mutex::new(Some(Vec::new())),
            resolved: Condvar::new(),
        }
    }

    /// Parks `waker` until the gate resolves; on a gate that already
    /// resolved it is handed back at once.
    pub(crate) fn park(&self, waker: Waker) {
        let mut parked = lock_unpoisoned(&self.parked);
        if let Some(parked) = parked.as_mut() {
            parked.push(waker);
            return;
        }
        // Hand back outside the gate lock.
        drop(parked);
        drop(waker);
    }

    /// Blocks the calling thread until the gate resolves; the caller then
    /// claims again.
    pub(crate) fn wait(&self) {
        telechat_obs::add(telechat_obs::Counter::CacheGateWaits, 1);
        let _span = telechat_obs::span("gate-wait");
        let mut parked = lock_unpoisoned(&self.parked);
        while parked.is_some() {
            parked = self.resolved.wait(parked).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Resolves the gate: wakes every waiter, then hands back every parked
    /// waker outside the gate lock.
    fn resolve(&self) {
        let parked = lock_unpoisoned(&self.parked).take();
        self.resolved.notify_all();
        drop(parked);
    }
}

/// The computing claimant's obligation to resolve its gate: publishing
/// consumes it, and dropping it unpublished — the compute panicked —
/// removes the slot and poisons the gate, so a crash stays a crash instead
/// of becoming a deadlock or a stranded parked item.
struct Lease<'a, K: Hash + Eq + Clone, V: Clone> {
    shard: &'a Mutex<HashMap<K, Slot<V>>>,
    key: K,
    gate: Arc<Gate>,
    published: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> Lease<'_, K, V> {
    fn publish(mut self, v: V) -> V {
        lock_unpoisoned(self.shard).insert(self.key.clone(), Slot::Ready(v.clone()));
        self.gate.resolve();
        self.published = true;
        v
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Lease<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            lock_unpoisoned(self.shard).remove(&self.key);
            self.gate.resolve();
        }
    }
}

/// Whether a computed leg may be cached: not a fault-class error (a leg cut
/// short by its item's deadline). The gate of an uncached leg resolves as
/// if the compute had panicked, and every waiter claims again.
fn durable<T>(leg: &Result<T>) -> bool {
    !leg.as_ref().is_err_and(Error::is_fault)
}

/// A sharded lock-striped map with exactly-once in-flight computation.
struct Striped<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>>>>,
    /// Whether a computed value may be published (see [`durable`]).
    keep: fn(&V) -> bool,
}

impl<K: Hash + Eq + Clone, V: Clone> Striped<K, V> {
    fn new(keep: fn(&V) -> bool) -> Striped<K, V> {
        Striped {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            keep,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The non-blocking claim. There are three answers:
    ///
    /// * **ready** — a finished entry: `Ok((value, true))`, a hit;
    /// * **you compute** — no entry yet: this caller runs `compute`
    ///   (outside the shard lock, so unrelated keys never serialise behind
    ///   a long simulation) and publishes it: `Ok((value, false))`, a miss.
    ///   A value `keep` rejects is returned the same way but frees the key
    ///   instead;
    /// * **in flight** — another claimant is computing it: `Err(gate)`, to
    ///   park on or wait for. `compute` is not run.
    ///
    /// `park`, when given, is parked on the entry's gate in the last two
    /// cases — before `compute` runs in the second, so it comes back when
    /// this very computation publishes (or poisons) — and handed back at
    /// once on a ready entry.
    fn claim(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        park: Option<Waker>,
    ) -> std::result::Result<(V, bool), Arc<Gate>> {
        let shard = self.shard(&key);
        let mut map = lock_unpoisoned(shard);
        let gate = match map.get(&key) {
            Some(Slot::Ready(v)) => {
                let v = v.clone();
                drop(map);
                drop(park);
                return Ok((v, true));
            }
            Some(Slot::Pending(gate)) => {
                let gate = gate.clone();
                drop(map);
                if let Some(waker) = park {
                    gate.park(waker);
                }
                return Err(gate);
            }
            None => Arc::new(Gate::new()),
        };
        if let Some(waker) = park {
            gate.park(waker);
        }
        map.insert(key.clone(), Slot::Pending(gate.clone()));
        drop(map);
        let lease = Lease {
            shard,
            key,
            gate,
            published: false,
        };
        let v = compute();
        if (self.keep)(&v) {
            Ok((lease.publish(v), false))
        } else {
            drop(lease);
            Ok((v, false))
        }
    }

    /// The blocking lookup: claim, and while another claimant has the key
    /// in flight, wait on its gate and claim again. The boolean is `true`
    /// on a hit (including one served after waiting — the work was shared
    /// either way). If the computer panics, its waiters wake and claim
    /// again, and one of them becomes the new computer.
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut compute = Some(compute);
        loop {
            let claimed = self.claim(
                key.clone(),
                || (compute.take().expect("computed at most once"))(),
                None,
            );
            match claimed {
                Ok(v) => return v,
                Err(gate) => gate.wait(),
            }
        }
    }
}

/// Cache key for a simulation leg: content fingerprint of the test, model
/// identity, and the budget-relevant simulation configuration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct LegKey {
    test: u128,
    model: u64,
    config: u64,
}

/// Fingerprint of the [`SimConfig`] fields that can influence a simulation
/// *result*. `threads` is deliberately excluded: outcome sets are
/// deterministically merged across enumeration workers, so thread count
/// never changes a result — and the campaign driver varies it. Public so
/// other result memos (e.g. the fuzz minimizer's oracle cache) can key on
/// the same budget identity.
pub fn sim_config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut h = 0u64;
    for word in [
        cfg.unroll as u64,
        cfg.max_pool_iters as u64,
        cfg.max_steps,
        cfg.max_candidates,
        cfg.timeout.map_or(u64::MAX, |t| t.as_millis() as u64),
        u64::from(cfg.excl_fail_paths),
        u64::from(cfg.keep_executions),
        cfg.max_kept as u64,
    ] {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    h
}

fn model_fingerprint(model: &CatModel) -> u64 {
    fnv1a64(0, model.model_name().as_bytes())
}

/// The cached source leg of a test: the simulation result plus the
/// profile-invariant half of `mcompare` (the source outcomes restricted to
/// their own observables), shared by every profile's comparison.
#[derive(Debug, Clone)]
pub struct SourceLeg {
    /// The source simulation result.
    pub result: Arc<SimResult>,
    /// The restricted source outcome set + comparison keys (see
    /// [`SourceObservables`]).
    pub observables: SourceObservables,
}

impl SourceLeg {
    /// A source simulation result with its comparison half.
    pub(crate) fn of(result: SimResult) -> SourceLeg {
        SourceLeg {
            observables: SourceObservables::of(&result.outcomes),
            result: Arc::new(result),
        }
    }
}


/// Counters of one campaign's cache traffic. A **miss** is a computation
/// actually performed; a **hit** is a computation avoided (served from a
/// finished entry, or by waiting on another worker's in-flight one). The
/// per-key in-flight gate makes every counter a pure function of the work
/// list — independent of worker count and scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `l2c::prepare` calls served from cache.
    pub prepare_hits: u64,
    /// `l2c::prepare` calls computed — one per distinct (test, augment).
    pub prepare_misses: u64,
    /// Source simulations avoided.
    pub source_hits: u64,
    /// Source simulations performed — one per distinct (prepared test,
    /// source model, budget): with a fixed campaign spec, **one per test**.
    pub source_misses: u64,
    /// Target simulations avoided (identical extracted code across
    /// profiles collapses here).
    pub target_hits: u64,
    /// Target simulations performed — one per distinct (extracted test,
    /// architecture model, budget).
    pub target_misses: u64,
    /// Simulations answered by the persistent store instead of computing.
    /// Only the computing lead of a key ever probes the store, so this is
    /// as scheduling-independent as the hit/miss counters.
    pub disk_hits: u64,
    /// Computed legs offered to the persistent store (write-through).
    pub disk_writes: u64,
}

impl CacheStats {
    /// Simulations the sharing layer avoided outright.
    pub fn deduped_simulations(&self) -> u64 {
        self.source_hits + self.target_hits
    }

    /// Any traffic at all? (`false` for an uncached campaign.)
    pub fn any(&self) -> bool {
        *self != CacheStats::default()
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "source {} sims + {} hits, target {} sims + {} hits, prepare {} + {} hits; {} simulations shared",
            self.source_misses,
            self.source_hits,
            self.target_misses,
            self.target_hits,
            self.prepare_misses,
            self.prepare_hits,
            self.deduped_simulations()
        )?;
        if self.disk_hits > 0 || self.disk_writes > 0 {
            write!(
                f,
                "; disk {} hits + {} writes",
                self.disk_hits, self.disk_writes
            )?;
        }
        Ok(())
    }
}

/// The content-addressed simulation cache (see the module docs).
///
/// Shared across campaign workers as an `Arc<SimCache>`; attach one to a
/// pipeline with [`crate::Telechat::with_cache`]. One cache per campaign is
/// the intended scope — entries are never evicted.
pub struct SimCache {
    prepared: Striped<(u128, bool), Arc<PreparedSource>>,
    source: Striped<LegKey, Result<SourceLeg>>,
    target: Striped<LegKey, Result<Arc<SimResult>>>,
    /// Optional write-through persistence tier (see [`crate::persist`]):
    /// probed on every in-memory miss, written after every compute.
    store: Option<Arc<PersistStore>>,
    prepare_hits: AtomicU64,
    prepare_misses: AtomicU64,
    source_hits: AtomicU64,
    source_misses: AtomicU64,
    target_hits: AtomicU64,
    target_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new()
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> SimCache {
        SimCache {
            prepared: Striped::new(|_| true),
            source: Striped::new(durable),
            target: Striped::new(durable),
            store: None,
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
            source_hits: AtomicU64::new(0),
            source_misses: AtomicU64::new(0),
            target_hits: AtomicU64::new(0),
            target_misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
        }
    }

    /// A fresh shareable cache.
    pub fn shared() -> Arc<SimCache> {
        Arc::new(SimCache::new())
    }

    /// Attaches a persistent store as a write-through tier under the
    /// in-memory maps: a leg missing in memory is looked up on disk before
    /// being simulated, and every computed leg is written back. Legs keyed
    /// on models without a stable content fingerprint (ad-hoc
    /// `CatProgram`s) bypass the store; fault errors and kept-execution
    /// runs are never persisted.
    #[must_use]
    pub fn with_store(mut self, store: Arc<PersistStore>) -> SimCache {
        self.store = Some(store);
        self
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            prepare_hits: self.prepare_hits.load(Ordering::Relaxed),
            prepare_misses: self.prepare_misses.load(Ordering::Relaxed),
            source_hits: self.source_hits.load(Ordering::Relaxed),
            source_misses: self.source_misses.load(Ordering::Relaxed),
            target_hits: self.target_hits.load(Ordering::Relaxed),
            target_misses: self.target_misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
        }
    }

    /// The persistence key for a leg, when the store tier applies: there
    /// must be a store attached and the model must carry a stable content
    /// fingerprint.
    fn store_key(
        &self,
        kind: LegKind,
        test: u128,
        model: &CatModel,
        config: u64,
    ) -> Option<(Arc<PersistStore>, PersistKey)> {
        let store = self.store.as_ref()?;
        let model = model.content_fingerprint()?;
        Some((
            store.clone(),
            PersistKey {
                kind,
                test,
                model,
                config,
            },
        ))
    }

    /// Write-through after a compute. Fault errors and kept-execution
    /// results are skipped; store-level I/O failures degrade inside
    /// [`PersistStore::put`].
    fn persist(&self, store: &PersistStore, key: PersistKey, computed: &Result<SimResult>) {
        let value: StoredValue = match computed {
            Ok(r) => match StoredSim::capture(r) {
                Some(s) => Ok(s),
                None => return,
            },
            Err(e) if e.is_fault() => return,
            Err(e) => Err(e.clone()),
        };
        self.disk_writes.fetch_add(1, Ordering::Relaxed);
        store.put(key, &value);
    }

    fn count(&self, hits: &AtomicU64, misses: &AtomicU64, hit: bool) {
        if hit {
            hits.fetch_add(1, Ordering::Relaxed);
        } else {
            misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `l2c::prepare(test, augment)`, once per distinct test content.
    pub fn prepared(&self, test: &LitmusTest, augment: bool) -> Arc<PreparedSource> {
        let key = (test.fingerprint(), augment);
        let (v, hit) = self
            .prepared
            .get_or_compute(key, || Arc::new(l2c::prepare(test, augment)));
        self.count(&self.prepare_hits, &self.prepare_misses, hit);
        v
    }

    fn source_key(
        &self,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
    ) -> LegKey {
        LegKey {
            test: prepared.test_fingerprint(),
            model: model_fingerprint(model),
            config: sim_config_fingerprint(config),
        }
    }

    /// The source leg: `herd(prepared, model)` plus the profile-invariant
    /// comparison half, once per distinct (prepared test, model, budget).
    ///
    /// # Errors
    ///
    /// Replays the original simulation error (budget/timeout exhaustion)
    /// for every requester, exactly as the uncached driver would fail each
    /// profile.
    pub fn source_leg(
        &self,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
    ) -> Result<SourceLeg> {
        self.source_leg_in(prepared, model, config, LegRun::default())
    }

    /// [`SimCache::source_leg`] for a work item's [`LegRun`].
    pub(crate) fn source_leg_in(
        &self,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
        legs: LegRun<'_>,
    ) -> Result<SourceLeg> {
        let key = self.source_key(prepared, model, config);
        let (v, hit) = self.source.get_or_compute(key.clone(), || {
            self.compute_source(&key, prepared, model, config, legs)
        });
        self.count(&self.source_hits, &self.source_misses, hit);
        v
    }

    /// The campaign warm-up: claims the source leg without blocking and
    /// parks `waker` on it. The waker comes back once the leg is ready —
    /// at once on a finished entry, after this call's own computation, or
    /// when another claimant's in-flight computation publishes. The claim
    /// counts as one hit or miss either way: a warm-up never claims again.
    pub(crate) fn park_on_source_leg(
        &self,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
        waker: Waker,
        legs: LegRun<'_>,
    ) {
        let key = self.source_key(prepared, model, config);
        let hit = self
            .source
            .claim(
                key.clone(),
                || self.compute_source(&key, prepared, model, config, legs),
                Some(waker),
            )
            .map_or(true, |(_, hit)| hit);
        self.count(&self.source_hits, &self.source_misses, hit);
    }

    fn compute_source(
        &self,
        key: &LegKey,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
        legs: LegRun<'_>,
    ) -> Result<SourceLeg> {
        let store = self.store_key(LegKind::Source, key.test, model, key.config);
        if let Some((store, pkey)) = &store {
            if let Some(stored) = store.get(pkey) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return stored.map(|sim| SourceLeg::of(sim.into_result()));
            }
        }
        let computed = legs.simulate(FaultLeg::Source, &prepared.test, model, config);
        if let Some((store, pkey)) = store {
            self.persist(&store, pkey, &computed);
        }
        computed.map(SourceLeg::of)
    }

    fn target_key(&self, target: &LitmusTest, model: &CatModel, config: &SimConfig) -> LegKey {
        LegKey {
            test: target.fingerprint(),
            model: model_fingerprint(model),
            config: sim_config_fingerprint(config),
        }
    }

    /// The target leg: `herd(extracted, model)`, once per distinct
    /// (extracted test content, model, budget) — the extracted test's
    /// profile-carrying *name* is excluded from the key, so identical code
    /// reached through different profiles shares one simulation.
    ///
    /// # Errors
    ///
    /// Replays the original simulation error for every requester.
    pub fn target_leg(
        &self,
        target: &LitmusTest,
        model: &CatModel,
        config: &SimConfig,
    ) -> Result<Arc<SimResult>> {
        let key = self.target_key(target, model, config);
        let (v, hit) = self.target.get_or_compute(key.clone(), || {
            self.compute_target(&key, target, model, config, LegRun::default())
        });
        self.count(&self.target_hits, &self.target_misses, hit);
        v
    }

    /// [`SimCache::target_leg`] without blocking: the leg when it is ready
    /// or this call computed it, or `Err(gate)` while another claimant
    /// computes it. An in-flight answer counts nothing — the caller parks
    /// on the gate and claims again once it is handed back, and that claim
    /// counts the hit.
    pub(crate) fn try_target_leg(
        &self,
        target: &LitmusTest,
        model: &CatModel,
        config: &SimConfig,
        legs: LegRun<'_>,
    ) -> std::result::Result<Result<Arc<SimResult>>, Arc<Gate>> {
        let key = self.target_key(target, model, config);
        let (v, hit) = self.target.claim(
            key.clone(),
            || self.compute_target(&key, target, model, config, legs),
            None,
        )?;
        self.count(&self.target_hits, &self.target_misses, hit);
        Ok(v)
    }

    fn compute_target(
        &self,
        key: &LegKey,
        target: &LitmusTest,
        model: &CatModel,
        config: &SimConfig,
        legs: LegRun<'_>,
    ) -> Result<Arc<SimResult>> {
        let store = self.store_key(LegKind::Target, key.test, model, key.config);
        if let Some((store, pkey)) = &store {
            if let Some(stored) = store.get(pkey) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return stored.map(|sim| Arc::new(sim.into_result()));
            }
        }
        let computed = legs.simulate(FaultLeg::Target, target, model, config);
        if let Some((store, pkey)) = store {
            self.persist(&store, pkey, &computed);
        }
        computed.map(Arc::new)
    }
}

/// Convenience: `Error` must stay cloneable for cached error replay; this
/// is a compile-time assertion that it does.
const _: fn() = || {
    fn assert_clone<T: Clone>() {}
    assert_clone::<Error>();
    assert_clone::<Result<SourceLeg>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use telechat_cat::ModelRegistry;
    use telechat_litmus::parse_c11;

    const SB: &str = r#"
C11 "SB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn striped_computes_each_key_once() {
        let map: Striped<u64, u64> = Striped::new(|_| true);
        let computes = AtomicUsize::new(0);
        let compute = |k: u64| {
            computes.fetch_add(1, Ordering::SeqCst);
            k * 10
        };
        assert_eq!(map.get_or_compute(3, || compute(3)), (30, false));
        assert_eq!(map.get_or_compute(3, || compute(3)), (30, true));
        assert_eq!(map.get_or_compute(4, || compute(4)), (40, false));
        assert_eq!(computes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn striped_concurrent_requesters_share_one_compute() {
        let map: Arc<Striped<u64, u64>> = Arc::new(Striped::new(|_| true));
        let computes = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let map = map.clone();
                let computes = computes.clone();
                std::thread::spawn(move || {
                    map.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really gate.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        77
                    })
                    .0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 77);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn striped_panicking_compute_poisons_and_retries() {
        let map: Arc<Striped<u64, u64>> = Arc::new(Striped::new(|_| true));
        // First computer panics after a waiter has latched onto its gate.
        let computer = {
            let map = map.clone();
            std::thread::spawn(move || {
                let _ = map.get_or_compute(1, || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("compute died");
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        // The waiter must not hang: it retries and becomes the computer.
        let (v, hit) = map.get_or_compute(1, || 11);
        assert_eq!(v, 11);
        assert!(!hit, "the retry recomputed");
        assert!(computer.join().is_err(), "the panic still propagated");
        // The slot now holds the retry's value.
        assert_eq!(map.get_or_compute(1, || 99), (11, true));
    }

    /// A waker that counts its hand-backs.
    fn counting_waker(handed_back: &Arc<AtomicUsize>) -> Waker {
        let handed_back = handed_back.clone();
        Waker::new(move || {
            handed_back.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn claim_parks_on_an_in_flight_key_until_it_publishes() {
        let map: Striped<u64, u64> = Striped::new(|_| true);
        let handed_back = Arc::new(AtomicUsize::new(0));
        // A claim made while the key computes finds it in flight (the
        // compute closure itself is "another worker" here, so the
        // interleaving is fixed) and parks without running its compute.
        let claimed = map.claim(
            5,
            || {
                let gate = map
                    .claim(5, || unreachable!("in flight"), None)
                    .unwrap_err();
                gate.park(counting_waker(&handed_back));
                assert_eq!(handed_back.load(Ordering::SeqCst), 0, "still parked");
                50
            },
            None,
        );
        assert_eq!(claimed.ok(), Some((50, false)));
        assert_eq!(handed_back.load(Ordering::SeqCst), 1, "publish hands back");
        // A ready key is a hit, and a waker offered with it comes back at once.
        let claimed = map.claim(5, || unreachable!("ready"), Some(counting_waker(&handed_back)));
        assert_eq!(claimed.ok(), Some((50, true)));
        assert_eq!(handed_back.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_waker_parked_by_the_computing_claim_returns_exactly_once() {
        let map: Striped<u64, u64> = Striped::new(|_| true);
        let handed_back = Arc::new(AtomicUsize::new(0));
        let claimed = map.claim(
            8,
            || {
                assert_eq!(handed_back.load(Ordering::SeqCst), 0, "parked while computing");
                80
            },
            Some(counting_waker(&handed_back)),
        );
        assert_eq!(claimed.ok(), Some((80, false)));
        assert_eq!(handed_back.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_poisoned_gate_hands_back_its_parked_wakers_and_frees_the_key() {
        let map: Striped<u64, u64> = Striped::new(|_| true);
        let handed_back = Arc::new(AtomicUsize::new(0));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.claim(
                3,
                || {
                    let gate = map.claim(3, || unreachable!("in flight"), None).unwrap_err();
                    gate.park(counting_waker(&handed_back));
                    panic!("compute died")
                },
                Some(counting_waker(&handed_back)),
            )
        }));
        assert!(died.is_err(), "the panic propagates to the computer");
        assert_eq!(handed_back.load(Ordering::SeqCst), 2, "both parked wakers came back");
        // The poisoned slot is gone: the next claimant computes.
        assert_eq!(map.claim(3, || 33, None).ok(), Some((33, false)));
    }

    #[test]
    fn a_fault_class_value_answers_its_computer_but_is_never_published() {
        let map: Striped<u64, Result<u64>> = Striped::new(durable);
        let handed_back = Arc::new(AtomicUsize::new(0));
        let cut = Error::Deadline { limit_ms: 300 };
        let claimed = map.claim(
            4,
            || {
                let gate = map.claim(4, || unreachable!("in flight"), None).unwrap_err();
                gate.park(counting_waker(&handed_back));
                Err(cut.clone())
            },
            None,
        );
        assert_eq!(claimed.ok(), Some((Err(cut), false)));
        assert_eq!(handed_back.load(Ordering::SeqCst), 1, "the waiter is handed back");
        // Nothing was cached: the next claimant computes the real value.
        assert_eq!(map.claim(4, || Ok(44), None).ok(), Some((Ok(44), false)));
        assert_eq!(map.claim(4, || Ok(0), None).ok(), Some((Ok(44), true)));
        // A deterministic error is a value like any other.
        let starved = Error::Budget { steps: 1 };
        assert_eq!(map.get_or_compute(5, || Err(starved.clone())), (Err(starved.clone()), false));
        assert_eq!(map.get_or_compute(5, || Ok(0)), (Err(starved), true));
    }

    #[test]
    fn source_leg_runs_once_per_content() {
        let cache = SimCache::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let cfg = SimConfig::default();
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &cfg).unwrap();

        // A renamed copy of the same test shares everything.
        let mut renamed = test.clone();
        renamed.name = "SB-again".into();
        let prepared2 = cache.prepared(&renamed, true);
        let b = cache.source_leg(&prepared2, &model, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a.result, &b.result));

        let s = cache.stats();
        assert_eq!(s.prepare_misses, 1);
        assert_eq!(s.prepare_hits, 1);
        assert_eq!(s.source_misses, 1);
        assert_eq!(s.source_hits, 1);
        assert_eq!(s.deduped_simulations(), 1);
        assert!(s.any());
    }

    #[test]
    fn distinct_budgets_and_models_do_not_alias() {
        let cache = SimCache::new();
        let cfg = SimConfig::default();
        let fast = SimConfig::fast();
        assert_ne!(sim_config_fingerprint(&cfg), sim_config_fingerprint(&fast));
        let mut threaded = cfg.clone();
        threaded.threads = 8;
        assert_eq!(
            sim_config_fingerprint(&cfg),
            sim_config_fingerprint(&threaded),
            "thread count never changes results, so it must share the entry"
        );

        let rc11 = ModelRegistry::global().bundled("rc11").unwrap();
        let sc = ModelRegistry::global().bundled("sc").unwrap();
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &rc11, &cfg).unwrap();
        let b = cache.source_leg(&prepared, &sc, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a.result, &b.result));
        // SC forbids the SB weak outcome, rc11 allows it.
        assert_ne!(a.result.outcomes, b.result.outcomes);
        assert_eq!(cache.stats().source_misses, 2);
    }

    #[test]
    fn cached_errors_replay() {
        let cache = SimCache::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let starved = SimConfig {
            max_candidates: 1,
            timeout: None,
            ..SimConfig::default()
        };
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &starved).unwrap_err();
        let b = cache.source_leg(&prepared, &model, &starved).unwrap_err();
        assert_eq!(a, b);
        assert!(a.is_exhaustion());
        let s = cache.stats();
        assert_eq!((s.source_misses, s.source_hits), (1, 1));
    }

    #[test]
    fn stats_display_is_compact() {
        let s = CacheStats {
            source_misses: 2,
            source_hits: 8,
            target_misses: 3,
            target_hits: 7,
            prepare_misses: 2,
            prepare_hits: 8,
            disk_hits: 0,
            disk_writes: 0,
        };
        let line = s.to_string();
        assert!(line.contains("source 2 sims + 8 hits"), "{line}");
        assert!(line.contains("15 simulations shared"), "{line}");
        assert!(!line.contains("disk"), "storeless stats stay short: {line}");
        let with_disk = CacheStats {
            disk_hits: 5,
            disk_writes: 1,
            ..s
        };
        assert!(with_disk.to_string().contains("disk 5 hits + 1 writes"));
    }

    #[test]
    fn store_tier_round_trips_through_the_cache() {
        use crate::persist::{MemBackend, PersistStore};
        let mem = MemBackend::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let cfg = SimConfig::default();
        let test = parse_c11(SB).unwrap();

        // Cold: computes and writes through.
        let store = Arc::new(PersistStore::open_backend(Box::new(mem.clone())).unwrap());
        let cache = SimCache::new().with_store(store);
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!((s.disk_hits, s.disk_writes), (0, 1));

        // Warm, fresh process: answers from disk, no new simulation state.
        let store = Arc::new(PersistStore::open_backend(Box::new(mem)).unwrap());
        let cache = SimCache::new().with_store(store);
        let prepared = cache.prepared(&test, true);
        let b = cache.source_leg(&prepared, &model, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!((s.disk_hits, s.disk_writes), (1, 0));
        assert_eq!(
            s.source_misses, 1,
            "a disk hit still counts as the lead compute"
        );
        assert_eq!(a.result.outcomes, b.result.outcomes);
        assert_eq!(a.result.candidates, b.result.candidates);
        assert_eq!(a.observables, b.observables);
    }
}
