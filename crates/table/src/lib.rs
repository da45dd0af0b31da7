//! # ace-table — the one shared answer store
//!
//! A sharded, concurrent map from canonicalized call terms
//! ([`ace_logic::CanonKey`], variables numbered by first occurrence, so
//! renamed calls share one entry) to *complete* answer sets stored as
//! relocatable heap arenas ([`ace_logic::TermArena`]). Any worker —
//! and-parallel, or-parallel, or the sequential machine — replays a
//! published answer set with a block copy instead of re-running the goal.
//!
//! Both answer-reuse behaviours of the machine go through it, because a
//! memoized answer is a table that is complete at first publication:
//!
//! * **Memoization** of determinate calls: [`AnswerStore::lookup`], and on
//!   a miss the watched call's single answer is installed with
//!   [`AnswerStore::publish_as`] — no registration, the entry is born
//!   complete.
//! * **Tabling** of declared `:- table(p/n).` predicates: the first
//!   machine to call a variant registers it ([`RegisterOutcome::Fresh`])
//!   and becomes its generator. Later machines see
//!   [`RegisterOutcome::InProgress`] and evaluate the subgoal privately (a
//!   *shadow* evaluation) — there is no cross-machine suspension, so a
//!   worker death can never strand a remote consumer. Confluence makes the
//!   shadow's answer set equal to the original's; whichever reaches the
//!   fixpoint first publishes, and from then on every call anywhere is a
//!   pure lookup. Suspension, resumption and leader-based completion live
//!   in `ace-machine`.
//!
//! Design points:
//!
//! * **Entry state machine `Pending → Complete`**: a slot is pending from
//!   registration until its answer set is published, and complete — and
//!   immutable — afterwards. Lookups never return partial answer sets.
//!   First publisher wins; later publications of the same key are dropped
//!   (both sets are complete for the same call, so answers are never lost
//!   or duplicated). A generator that stops before its fixpoint gives its
//!   slot back with [`AnswerStore::abandon`].
//! * **Evictable iff complete**: per-shard LRU eviction at a configurable
//!   capacity, and an optional per-tenant quota, only ever victimize
//!   complete entries. A pending slot is pinned: a machine that registered
//!   it still expects to publish, so it survives any amount of churn and
//!   the shard may transiently exceed its capacity.
//! * **Epochs**: every publication gets a globally monotone epoch, carried
//!   on `MemoHit`/`MemoStore` trace events — the handle the `TraceChecker`
//!   uses to assert "no hit before the store of the same key epoch".
//! * **Poison tolerance**: shard locks are `std::sync::Mutex` acquired
//!   with `unwrap_or_else(PoisonError::into_inner)`, consistent with the
//!   fault model — a worker death mid-operation must not take the store
//!   (or the run) down with it. Entries only ever move Pending → Complete,
//!   so a poisoned shard is never structurally torn.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ace_logic::{CanonKey, TermArena};

/// Store sizing, threaded through `EngineConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of independent shards (lock granularity).
    pub shards: usize,
    /// Maximum entries per shard; LRU eviction beyond — but only complete
    /// entries are eviction victims, so the live set of in-progress
    /// subgoals can exceed this bound.
    pub capacity_per_shard: usize,
    /// Per-tenant cap on complete entries per shard on a store shared
    /// across queries (the serving layer's fairness knob). A tenant at its
    /// cap recycles its *own* least-recently-used entries, and under
    /// capacity pressure the inserting tenant's entries are preferred as
    /// victims — so one flooding tenant can never evict another tenant's
    /// warm entries. Pending slots never count and are never evicted.
    /// `None` = single-tenant behaviour.
    pub tenant_quota: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            capacity_per_shard: 256,
            tenant_quota: None,
        }
    }
}

impl StoreConfig {
    /// Benchmark-pinned spelling of [`StoreConfig::default`] (`benchmark/`
    /// builds its stores from `enabled()` configs).
    pub fn enabled() -> Self {
        StoreConfig::default()
    }

    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    pub fn with_capacity_per_shard(mut self, capacity: usize) -> Self {
        self.capacity_per_shard = capacity.max(1);
        self
    }

    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota.max(1));
        self
    }
}

/// One complete, immutable answer set for a canonicalized call.
#[derive(Debug)]
pub struct AnswerEntry {
    /// Globally monotone publication epoch (trace correlation).
    pub epoch: u64,
    /// Hash of the producing key (trace correlation).
    pub key_hash: u64,
    /// Globally monotone subgoal id, assigned at registration or, for an
    /// entry published without one, at publication (trace correlation:
    /// `table-*` events carry it).
    pub subgoal_id: u64,
    /// The answers: each arena holds one fully-instantiated copy of the
    /// call term, replayed by thawing and unifying with the live call.
    /// Duplicate-free by the generator's insertion-time dedup.
    pub answers: Vec<TermArena>,
}

/// Outcome of [`AnswerStore::register`].
#[derive(Debug, Clone)]
pub enum RegisterOutcome {
    /// First registration anywhere: the caller is the subgoal's
    /// generator and owes the store a publication (or an
    /// [`AnswerStore::abandon`]).
    Fresh { subgoal_id: u64 },
    /// Another machine registered this subgoal and has not completed it:
    /// the caller evaluates it privately (shadow evaluation) and races
    /// to publish.
    InProgress { subgoal_id: u64 },
    /// Already complete: drain the answers, no evaluation at all.
    Complete(Arc<AnswerEntry>),
}

/// Outcome of [`AnswerStore::publish_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The answer set was installed under a fresh epoch; `evicted`
    /// complete entries were dropped to make room.
    Stored { epoch: u64, evicted: u64 },
    /// A complete entry for this key already existed (kept; first writer
    /// wins, so replayed answers are unique) and the new answers were
    /// dropped.
    Present { epoch: u64 },
}

enum SlotState {
    Pending { subgoal_id: u64 },
    Complete(Arc<AnswerEntry>),
}

struct SlotEnt {
    state: SlotState,
    last_used: u64,
    /// Tenant whose run published (or registered) the entry; quota
    /// accounting only — lookups stay cross-tenant, a warm answer is
    /// shared with everyone.
    tenant: u32,
}

impl SlotEnt {
    fn is_complete(&self) -> bool {
        matches!(self.state, SlotState::Complete(_))
    }
}

struct Shard {
    entries: HashMap<Vec<u8>, SlotEnt>,
    /// Per-shard LRU clock (bumped on every touch).
    clock: u64,
}

/// Aggregate store-lifetime counters (session-wide, across runs — the
/// per-run engine `Stats` carry their own memo and table counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups and registrations that found a complete entry.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Registrations of subgoals new to the store.
    pub registered: u64,
    /// Answer sets installed (first publisher per key).
    pub stores: u64,
    /// Complete entries evicted by quota or capacity pressure.
    pub evictions: u64,
}

/// The concurrent, sharded answer store. Cheaply shareable via `Arc`;
/// engines attach one handle per machine.
pub struct AnswerStore {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    tenant_quota: Option<usize>,
    /// Publication epochs (trace correlation).
    epoch: AtomicU64,
    /// Subgoal ids (trace correlation; also handed to shadow
    /// registrations so all machines name the subgoal consistently).
    next_subgoal: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    registered: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for AnswerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerStore")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("len", &self.len())
            .field("counters", &self.counters())
            .finish()
    }
}

impl AnswerStore {
    pub fn new(cfg: &StoreConfig) -> AnswerStore {
        let shards = cfg.shards.max(1);
        AnswerStore {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            capacity_per_shard: cfg.capacity_per_shard.max(1),
            tenant_quota: cfg.tenant_quota.map(|q| q.max(1)),
            epoch: AtomicU64::new(0),
            next_subgoal: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Poison-tolerant shard lock: entries only move Pending → Complete
    /// and LRU metadata is self-healing, so a panic elsewhere never
    /// leaves a shard in a state worth refusing.
    fn shard_for(&self, key: &CanonKey) -> MutexGuard<'_, Shard> {
        let idx = (key.hash as usize) % self.shards.len();
        self.shards[idx]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Every shard in turn, for the whole-store counts.
    fn sum_shards(&self, count: impl Fn(&Shard) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| count(&s.lock().unwrap_or_else(|p| p.into_inner())))
            .sum()
    }

    /// Register a tabled subgoal as `tenant`. The first caller anywhere
    /// becomes the generator ([`RegisterOutcome::Fresh`]); callers that
    /// arrive while it is pending shadow-evaluate
    /// ([`RegisterOutcome::InProgress`], same subgoal id); callers after
    /// completion get the finished entry.
    pub fn register(&self, tenant: u32, key: &CanonKey) -> RegisterOutcome {
        let mut shard = self.shard_for(key);
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(slot) = shard.entries.get_mut(&key.bytes) {
            slot.last_used = clock;
            return match &slot.state {
                SlotState::Pending { subgoal_id } => RegisterOutcome::InProgress {
                    subgoal_id: *subgoal_id,
                },
                SlotState::Complete(entry) => {
                    let entry = entry.clone();
                    drop(shard);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    RegisterOutcome::Complete(entry)
                }
            };
        }
        let subgoal_id = self.next_subgoal.fetch_add(1, Ordering::Relaxed) + 1;
        shard.entries.insert(
            key.bytes.clone(),
            SlotEnt {
                state: SlotState::Pending { subgoal_id },
                last_used: clock,
                tenant,
            },
        );
        drop(shard);
        self.registered.fetch_add(1, Ordering::Relaxed);
        RegisterOutcome::Fresh { subgoal_id }
    }

    /// Give back a registration whose generator stopped before its
    /// fixpoint (first-solution bound, deadline, cancel, cut over the
    /// generator, worker death): the slot is removed iff it is still
    /// pending, so the next caller registers [`RegisterOutcome::Fresh`]
    /// instead of shadowing a generator that no longer exists — and the
    /// slot does not stay pinned in a long-lived store. A shadow still
    /// running publishes without a registration. Returns whether a slot
    /// was removed.
    pub fn abandon(&self, key: &CanonKey) -> bool {
        let mut shard = self.shard_for(key);
        let pending = shard
            .entries
            .get(&key.bytes)
            .is_some_and(|s| !s.is_complete());
        if pending {
            shard.entries.remove(&key.bytes);
        }
        pending
    }

    /// Is the answer set of `key` already complete? (The or-engine's
    /// claim short-circuit: no LRU bump, no counter noise.)
    pub fn is_complete(&self, key: &CanonKey) -> bool {
        let shard = self.shard_for(key);
        shard
            .entries
            .get(&key.bytes)
            .is_some_and(|s| s.is_complete())
    }

    /// The complete answer set for `key`, if any, bumping its LRU slot
    /// and counting the hit or the miss.
    pub fn lookup(&self, key: &CanonKey) -> Option<Arc<AnswerEntry>> {
        let mut shard = self.shard_for(key);
        shard.clock += 1;
        let clock = shard.clock;
        let entry = shard.entries.get_mut(&key.bytes).and_then(|slot| {
            slot.last_used = clock;
            match &slot.state {
                SlotState::Complete(entry) => Some(entry.clone()),
                SlotState::Pending { .. } => None,
            }
        });
        drop(shard);
        let counter = if entry.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Benchmark-pinned name of [`AnswerStore::lookup`] (`benchmark/`
    /// probes it under this name).
    pub fn lookup_complete(&self, key: &CanonKey) -> Option<Arc<AnswerEntry>> {
        self.lookup(key)
    }

    /// [`AnswerStore::publish_as`] as tenant 0 (the single-tenant
    /// default).
    pub fn publish(&self, key: &CanonKey, answers: Vec<TermArena>) -> PublishOutcome {
        self.publish_as(0, key, answers)
    }

    /// Publish the complete, duplicate-free answer set of `key`, charging
    /// the entry to `tenant`. Installs a new complete entry or upgrades a
    /// pending slot regardless of which machine registered it — under
    /// faults the registering generator may be dead, and any shadow that
    /// reached the fixpoint may complete on its behalf. First publisher
    /// wins; racing publications (equal sets by confluence) are dropped.
    ///
    /// When the store carries a [`StoreConfig::tenant_quota`], a tenant at
    /// its per-shard cap recycles its own LRU entries, and capacity
    /// eviction prefers the inserting tenant's entries — other tenants'
    /// warm entries are untouchable by this tenant's churn.
    pub fn publish_as(
        &self,
        tenant: u32,
        key: &CanonKey,
        answers: Vec<TermArena>,
    ) -> PublishOutcome {
        let mut shard = self.shard_for(key);
        if let Some(slot) = shard.entries.get(&key.bytes) {
            if let SlotState::Complete(entry) = &slot.state {
                return PublishOutcome::Present { epoch: entry.epoch };
            }
        }
        let mut evicted = 0u64;
        // Quota: self-evict complete entries down to one-below-cap.
        if let Some(quota) = self.tenant_quota {
            while shard
                .entries
                .values()
                .filter(|s| s.tenant == tenant && s.is_complete())
                .count()
                >= quota
            {
                match evict_lru_complete(&mut shard, Some(tenant)) {
                    true => evicted += 1,
                    false => break,
                }
            }
        }
        // Capacity: complete entries of the inserting tenant are the
        // preferred victims; global complete LRU only as a last resort.
        // Pending slots are pinned, so the shard may transiently exceed
        // capacity when the live in-progress set is large. Upgrading a
        // pending slot in place does not grow the shard, so it only
        // triggers eviction when the shard is already over capacity.
        let net_growth = usize::from(!shard.entries.contains_key(&key.bytes));
        while shard.entries.len() + net_growth > self.capacity_per_shard {
            if !evict_lru_complete(&mut shard, Some(tenant))
                && !evict_lru_complete(&mut shard, None)
            {
                break;
            }
            evicted += 1;
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        shard.clock += 1;
        let clock = shard.clock;
        // Keep the registration-time subgoal id when upgrading a pending
        // slot; a publish with no registration (a memoized answer, or a
        // shadow outliving an abandoned generator) mints a fresh id.
        let subgoal_id = match shard.entries.get(&key.bytes) {
            Some(SlotEnt {
                state: SlotState::Pending { subgoal_id },
                ..
            }) => *subgoal_id,
            _ => self.next_subgoal.fetch_add(1, Ordering::Relaxed) + 1,
        };
        shard.entries.insert(
            key.bytes.clone(),
            SlotEnt {
                state: SlotState::Complete(Arc::new(AnswerEntry {
                    epoch,
                    key_hash: key.hash,
                    subgoal_id,
                    answers,
                })),
                last_used: clock,
                tenant,
            },
        );
        drop(shard);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        PublishOutcome::Stored { epoch, evicted }
    }

    /// Complete entries held by `tenant` across all shards.
    pub fn tenant_len(&self, tenant: u32) -> usize {
        self.sum_shards(|s| {
            s.entries
                .values()
                .filter(|e| e.tenant == tenant && e.is_complete())
                .count()
        })
    }

    /// Total entries (pending + complete) across all shards.
    pub fn len(&self) -> usize {
        self.sum_shards(|s| s.entries.len())
    }

    /// Complete entries across all shards.
    pub fn complete_len(&self) -> usize {
        self.sum_shards(|s| s.entries.values().filter(|e| e.is_complete()).count())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of independent shards (lock granularity). Fresh per-run
    /// stores are sized to the fleet by `EngineConfig::resolve_store`, so
    /// big-worker runs can verify their store matches the machine.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Store-lifetime counters (REPL `:store-stats`, diagnostics).
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            registered: self.registered.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Remove the least-recently-used **complete** entry in `shard`,
/// restricted to `tenant`'s entries when given. Pending entries are
/// pinned — a generator or suspended consumer still depends on them —
/// so they are never candidates. Returns whether a victim was found.
fn evict_lru_complete(shard: &mut Shard, tenant: Option<u32>) -> bool {
    let victim = shard
        .entries
        .iter()
        .filter(|(_, s)| s.is_complete() && tenant.is_none_or(|t| s.tenant == t))
        .min_by_key(|(_, s)| s.last_used)
        .map(|(k, _)| k.clone());
    match victim {
        Some(k) => {
            shard.entries.remove(&k);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_logic::{parse_term, CanonKey, Heap};

    fn key(src: &str) -> (Heap, CanonKey, ace_logic::Cell) {
        let mut h = Heap::new();
        let (t, _) = parse_term(&mut h, src).unwrap();
        let k = CanonKey::of(&h, t);
        (h, k, t)
    }

    fn answers(h: &Heap, roots: &[ace_logic::Cell]) -> Vec<TermArena> {
        roots.iter().map(|&r| TermArena::freeze(h, r)).collect()
    }

    #[test]
    fn register_then_complete_round_trips() {
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("path(a, X)");
        let RegisterOutcome::Fresh { subgoal_id } = store.register(0, &k) else {
            panic!("first registration must be fresh");
        };
        assert_eq!(subgoal_id, 1);
        assert!(!store.is_complete(&k));
        assert!(store.lookup(&k).is_none());
        // a variant registration while pending shadows, same id
        let (_, k2, _) = key("path(a, Y)");
        let RegisterOutcome::InProgress { subgoal_id: id2 } = store.register(0, &k2) else {
            panic!("pending registration must be in-progress");
        };
        assert_eq!(id2, subgoal_id);
        let out = store.publish_as(0, &k, answers(&h, &[t]));
        let PublishOutcome::Stored { epoch, evicted } = out else {
            panic!("first completion must store: {out:?}");
        };
        assert_eq!((epoch, evicted), (1, 0));
        assert!(store.is_complete(&k));
        let RegisterOutcome::Complete(entry) = store.register(0, &k2) else {
            panic!("registration after completion must be a lookup");
        };
        assert_eq!(entry.subgoal_id, subgoal_id);
        assert_eq!(entry.answers.len(), 1);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.registered, c.stores), (1, 1, 1, 1));
    }

    #[test]
    fn store_then_lookup_round_trips() {
        // the memoization path: no registration, born complete
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("p(1, X)");
        assert!(store.lookup(&k).is_none());
        let out = store.publish(&k, answers(&h, &[t]));
        let PublishOutcome::Stored { epoch, evicted } = out else {
            panic!("first publish must store: {out:?}");
        };
        assert_eq!((epoch, evicted), (1, 0));
        let entry = store.lookup(&k).expect("stored entry must be found");
        assert_eq!(entry.epoch, 1);
        assert_eq!(entry.key_hash, k.hash);
        assert_eq!(entry.answers.len(), 1);
        // variant of the call hits the same entry
        let (_, k2, _) = key("p(1, Y)");
        assert!(store.lookup(&k2).is_some());
        assert_eq!(store.lookup_complete(&k2).unwrap().epoch, 1);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores, c.registered), (3, 1, 1, 0));
    }

    #[test]
    fn racing_completions_first_writer_wins() {
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("sg(a, X)");
        store.register(0, &k);
        let PublishOutcome::Stored { epoch, .. } = store.publish_as(0, &k, answers(&h, &[t]))
        else {
            panic!()
        };
        // a shadow evaluation completing later is dropped
        let again = store.publish_as(1, &k, answers(&h, &[t, t]));
        assert_eq!(again, PublishOutcome::Present { epoch });
        assert_eq!(store.lookup(&k).unwrap().answers.len(), 1);
        assert_eq!(store.counters().stores, 1);
    }

    #[test]
    fn publish_without_registration_is_fault_safe() {
        // a shadow may outlive a dead generator whose registration was
        // lost; completion must still install
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("orphan(X)");
        assert!(matches!(
            store.publish_as(0, &k, answers(&h, &[t])),
            PublishOutcome::Stored { .. }
        ));
        assert!(store.is_complete(&k));
    }

    #[test]
    fn abandon_removes_only_pending_slots() {
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("gone(X)");
        assert!(!store.abandon(&k), "nothing registered yet");
        store.register(0, &k);
        assert_eq!((store.len(), store.complete_len()), (1, 0));
        assert!(store.abandon(&k));
        assert!(store.is_empty());
        // the next caller generates instead of shadowing a dead generator
        assert!(matches!(
            store.register(0, &k),
            RegisterOutcome::Fresh { .. }
        ));
        store.publish_as(0, &k, answers(&h, &[t]));
        assert!(!store.abandon(&k), "a complete entry is never abandoned");
        assert!(store.is_complete(&k));
    }

    #[test]
    fn incomplete_tables_are_never_eviction_victims() {
        // single shard, capacity 2: two pending registrations pin the
        // shard over capacity and completions churn past them
        let cfg = StoreConfig::default()
            .with_shards(1)
            .with_capacity_per_shard(2);
        let store = AnswerStore::new(&cfg);
        let (_, k_gen, _) = key("gen(a, X)");
        let (_, k_gen2, _) = key("gen2(a, X)");
        store.register(0, &k_gen);
        store.register(0, &k_gen2);
        for i in 0..6 {
            let (h, k, t) = key(&format!("done({i}, X)"));
            store.register(0, &k);
            store.publish_as(0, &k, answers(&h, &[t]));
        }
        // both pending slots survived arbitrary completion churn
        assert!(matches!(
            store.register(0, &k_gen),
            RegisterOutcome::InProgress { .. }
        ));
        assert!(matches!(
            store.register(0, &k_gen2),
            RegisterOutcome::InProgress { .. }
        ));
        assert!(store.counters().evictions > 0, "completed tables churned");
        // pending slots never complete-count
        assert_eq!(store.tenant_len(0), store.complete_len());
    }

    #[test]
    fn lru_eviction_at_capacity_prefers_stale_entries() {
        // single shard, capacity 2, so eviction order is fully observable
        let cfg = StoreConfig::default()
            .with_shards(1)
            .with_capacity_per_shard(2);
        let store = AnswerStore::new(&cfg);
        let (ha, ka, ta) = key("e(a)");
        let (hb, kb, tb) = key("e(b)");
        let (hc, kc, tc) = key("e(c)");
        store.publish(&ka, answers(&ha, &[ta]));
        store.publish(&kb, answers(&hb, &[tb]));
        // touch `a` so `b` becomes the LRU victim
        assert!(store.lookup(&ka).is_some());
        let PublishOutcome::Stored { evicted, .. } = store.publish(&kc, answers(&hc, &[tc])) else {
            panic!()
        };
        assert_eq!(evicted, 1);
        assert_eq!(store.len(), 2);
        assert!(store.lookup(&ka).is_some(), "recently used entry survives");
        assert!(store.lookup(&kb).is_none(), "LRU entry was evicted");
        assert!(store.lookup(&kc).is_some());
        assert_eq!(store.counters().evictions, 1);
    }

    #[test]
    fn epochs_are_globally_monotone_across_shards() {
        let store = AnswerStore::new(&StoreConfig::default().with_shards(4));
        let mut epochs = Vec::new();
        for i in 0..16 {
            let (h, k, t) = key(&format!("m({i})"));
            let PublishOutcome::Stored { epoch, .. } = store.publish(&k, answers(&h, &[t])) else {
                panic!()
            };
            epochs.push(epoch);
        }
        for w in epochs.windows(2) {
            assert!(
                w[1] > w[0],
                "epochs must be strictly increasing: {epochs:?}"
            );
        }
    }

    #[test]
    fn is_complete_reflects_published_entries_without_counter_noise() {
        let store = AnswerStore::new(&StoreConfig::default());
        let (h, k, t) = key("c(1)");
        assert!(!store.is_complete(&k));
        store.publish(&k, answers(&h, &[t]));
        assert!(store.is_complete(&k));
        assert_eq!(store.counters().hits + store.counters().misses, 0);
    }

    #[test]
    fn tenant_quota_self_evicts_only_completed_tables() {
        let cfg = StoreConfig::default()
            .with_shards(1)
            .with_capacity_per_shard(64)
            .with_tenant_quota(2);
        let store = AnswerStore::new(&cfg);
        // tenant 1 keeps one subgoal in progress the whole time
        let (_, k_pin, _) = key("pinned(X)");
        store.register(1, &k_pin);
        for i in 0..5 {
            let (h, k, t) = key(&format!("t1({i}, X)"));
            store.register(1, &k);
            store.publish_as(1, &k, answers(&h, &[t]));
        }
        // the flooding tenant holds at most its quota of completed tables
        assert_eq!(store.tenant_len(1), 2);
        assert_eq!(store.counters().evictions, 3);
        // ... and the pinned in-progress subgoal was untouched
        assert!(matches!(
            store.register(1, &k_pin),
            RegisterOutcome::InProgress { .. }
        ));
        // newest entries survive, oldest were self-evicted
        let (_, k4, _) = key("t1(4, X)");
        let (_, k0, _) = key("t1(0, X)");
        assert!(store.lookup(&k4).is_some());
        assert!(store.lookup(&k0).is_none());
    }

    #[test]
    fn tenant_flood_cannot_evict_another_tenants_completed_tables() {
        let cfg = StoreConfig::default()
            .with_shards(1)
            .with_capacity_per_shard(4)
            .with_tenant_quota(2);
        let store = AnswerStore::new(&cfg);
        // tenant 1 warms two entries first (its full quota), one tabled
        // and one memoized
        let (h_a, k_a, t_a) = key("warm(a, X)");
        let (h_b, k_b, t_b) = key("warm(b, X)");
        store.register(1, &k_a);
        store.publish_as(1, &k_a, answers(&h_a, &[t_a]));
        store.publish_as(1, &k_b, answers(&h_b, &[t_b]));
        // tenant 2 floods far past the shard capacity
        for i in 0..16 {
            let (h, k, t) = key(&format!("flood({i}, X)"));
            store.register(2, &k);
            store.publish_as(2, &k, answers(&h, &[t]));
        }
        // tenant 1's warm entries are untouched; tenant 2 churned itself
        assert!(store.lookup(&k_a).is_some(), "warm table a evicted");
        assert!(store.lookup(&k_b).is_some(), "warm table b evicted");
        assert_eq!(store.tenant_len(1), 2);
        assert_eq!(store.tenant_len(2), 2);
        // ...and the warm answers are still shared across tenants: a
        // variant lookup (as any tenant) hits tenant 1's entry
        let (_, k_var, _) = key("warm(a, Y)");
        assert!(store.is_complete(&k_var));
    }

    #[test]
    fn capacity_pressure_without_quota_prefers_inserting_tenants_entries() {
        let cfg = StoreConfig::default()
            .with_shards(1)
            .with_capacity_per_shard(3);
        let store = AnswerStore::new(&cfg);
        let (h_x, k_x, t_x) = key("other(x)");
        store.publish_as(7, &k_x, answers(&h_x, &[t_x]));
        for i in 0..8 {
            let (h, k, t) = key(&format!("own({i})"));
            store.publish_as(8, &k, answers(&h, &[t]));
        }
        // even with no quota set, capacity eviction victimized the
        // churning tenant, not the bystander
        assert!(store.lookup(&k_x).is_some());
        assert_eq!(store.tenant_len(8), 2);
    }

    #[test]
    fn subgoal_ids_are_globally_monotone() {
        let store = AnswerStore::new(&StoreConfig::default().with_shards(4));
        let mut ids = Vec::new();
        for i in 0..16 {
            let (_, k, _) = key(&format!("m({i}, X)"));
            let RegisterOutcome::Fresh { subgoal_id } = store.register(0, &k) else {
                panic!()
            };
            ids.push(subgoal_id);
        }
        for w in ids.windows(2) {
            assert!(w[1] > w[0], "ids must be strictly increasing: {ids:?}");
        }
    }

    #[test]
    fn store_survives_a_poisoned_shard_lock() {
        let cfg = StoreConfig::default().with_shards(1);
        let store = Arc::new(AnswerStore::new(&cfg));
        let (h, k, t) = key("pois(1, X)");
        store.register(0, &k);
        store.publish_as(0, &k, answers(&h, &[t]));
        let s2 = store.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.shards[0].lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(
            store.lookup(&k).is_some(),
            "poisoned lock must be tolerated"
        );
        let (h2, k2, t2) = key("pois(2, X)");
        assert!(matches!(
            store.register(0, &k2),
            RegisterOutcome::Fresh { .. }
        ));
        assert!(matches!(
            store.publish(&k2, answers(&h2, &[t2])),
            PublishOutcome::Stored { .. }
        ));
    }

    #[test]
    fn concurrent_racing_registrations_name_one_generator() {
        let store = Arc::new(AnswerStore::new(&StoreConfig::default()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut h = Heap::new();
                let (c, _) = parse_term(&mut h, "race(X)").unwrap();
                let k = CanonKey::of(&h, c);
                let registered = s.register(0, &k);
                (registered, s.publish(&k, vec![TermArena::freeze(&h, c)]))
            }));
        }
        let outcomes: Vec<(RegisterOutcome, PublishOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let fresh = outcomes
            .iter()
            .filter(|(r, _)| matches!(r, RegisterOutcome::Fresh { .. }))
            .count();
        assert_eq!(fresh, 1, "exactly one racer generates: {outcomes:?}");
        let stored = outcomes
            .iter()
            .filter(|(_, p)| matches!(p, PublishOutcome::Stored { .. }))
            .count();
        assert_eq!(stored, 1, "exactly one racer stores: {outcomes:?}");
        assert_eq!(store.len(), 1);
    }
}
