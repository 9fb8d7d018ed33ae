//! The antibody distribution network: a deterministic, unreliable,
//! adversarial message layer for the §6 community model.
//!
//! The paper's §6 community assumes antibody sharing is free and
//! perfect: the first producer contact starts a clock and at `T0 + γ`
//! the whole community is immune. This module replaces that idealized
//! clock with a simulated P2P dissemination problem, making γ an
//! *emergent* property:
//!
//! * producers broadcast **certified antibody bundles**
//!   ([`antibody::CertifiedBundle`]: antibody + minimized exploit
//!   evidence, serialized via the PR-4 wire codecs);
//! * the wire is lossy and hostile — per-transmission loss, duplication
//!   and delay are seed-derived, and a configurable fraction of
//!   producers is **Byzantine**, emitting forged/corrupt/mismatched
//!   bundles;
//! * consumers run **verify-before-deploy**: a received bundle deploys
//!   only if [`antibody::CertifiedBundle::verify`] accepts it (keyed
//!   tag, fail-closed payload decode, evidence consistency); rejection
//!   quarantines the sender. Each producer's bundle is fixed for the
//!   run and the wire only loses, duplicates or delays it, never alters
//!   its bytes, so the network verifies each producer's bundle once and
//!   every delivery from that producer applies the stored verdict. A
//!   consumer deploys protection *only* via a successful verification —
//!   chaos invariant **I8** asserts the
//!   [`DistNet::deployed_unverified`] counter stays zero;
//! * unacknowledged sends are retried with capped exponential backoff
//!   plus deterministic jitter from the in-tree counter PRNG
//!   ([`backoff_ticks`]);
//! * while unprotected after a forged bundle, a consumer **degrades
//!   gracefully**: it throttles inbound contacts (probabilistic
//!   blocking) instead of being fully immune.
//!
//! ## Determinism and shard-count invariance
//!
//! Every wire roll (Byzantine assignment, loss, delay, duplication,
//! jitter) is a counter-based draw keyed on `(seed, host, attempt)` —
//! no evolving RNG state — and the whole distribution step runs in the
//! community coordinator between the barrier-separated generate/apply
//! phases. Per-delivery counters are attributed to the *receiving*
//! host's shard ([`DistShardStats`]) and folded in shard order by
//! [`crate::community::CommunityOutcome::metrics`], so simulation
//! counters are bit-identical at any shard count.
//!
//! ## The zero-fault differential anchor
//!
//! With `loss = dup = delay = byzantine = 0`, attempt 0 of every
//! consumer is sent and verified in the same tick the antibody becomes
//! ready (`T0 + γ`), so the community is fully protected at exactly the
//! legacy immunity instant — the engine reproduces the instantaneous-γ
//! results bit-identically (enforced by `tests/distnet_parity.rs` and
//! the chaos differential leg).
//!
//! ## Index-based state
//!
//! All per-consumer state is a few bytes, indexed by the consumer's
//! offset `host - producers`:
//!
//! * the `protected` / `degraded` / `gave-up` flags are three
//!   [`crate::soa::HostBits`] bitsets (3 bits per consumer);
//! * the producers a consumer quarantined form a linked list of
//!   `(src, next)` nodes in one arena shared by every consumer, headed
//!   by one `u32` per consumer. A node is allocated only when a
//!   rejection quarantines a new producer, and a membership test walks
//!   the list, as short as the consumer's rejections;
//! * the send and arrival schedules are fixed-size **tick rings**
//!   instead of `BTreeMap<tick, …>`. Every scheduled entry lands
//!   strictly in the future and at most `cap + base − 1` (retries) or
//!   `max_delay + 1` (duplicated arrivals) ticks ahead, and the engine
//!   steps the network on every consecutive tick, so a ring of
//!   `cap + base + max_delay + 2` buckets indexed by `tick % horizon`
//!   can never collide.
//!
//! A consumer has at most one outstanding send: the initial broadcast
//! schedules one per consumer, and popping a send schedules at most one
//! successor. So a send bucket is an intrusive FIFO list, a
//! `head`/`tail` pair per bucket plus a `u32` link and a `u16` attempt
//! number per consumer, and the initial broadcast is the list
//! `0 → 1 → … → n−1`, built as the links are allocated. An arrival
//! bucket holds 8-byte `(consumer, src)` entries and keeps its capacity
//! across ticks. Every bucket is processed in push order, as the
//! map-based schedule kept it, so delivery order, and therefore every
//! outcome, is bit-identical to it (pinned by
//! `community::tests::pinned_outcomes_are_unchanged_by_the_rework` and
//! `tests/pinned_outputs.rs`). After [`DistNet::new`] the send schedule
//! allocates nothing, and the arrival buckets and the quarantine arena
//! only grow to their high-water marks; [`DistNet::heap_bytes`] sums
//! every structure.

use antibody::bundle::{Antibody, AntibodyItem};
use antibody::signature::Signature;
use antibody::vsef::VsefSpec;
use antibody::CertifiedBundle;

use crate::community::shard_of;
use crate::rng::{draw, to_unit};
use crate::soa::HostBits;

/// Domain separator: is producer `p` Byzantine?
pub const DOMAIN_BYZANTINE: u64 = 0x627a_6e74; // "bznt"
/// Domain separator: which forgery mode does a Byzantine producer use?
pub const DOMAIN_FORGE: u64 = 0x666f_7267; // "forg"
/// Domain separator: per-transmission loss roll.
pub const DOMAIN_LOSS: u64 = 0x6c6f_7373; // "loss"
/// Domain separator: per-transmission extra delay.
pub const DOMAIN_DELAY: u64 = 0x646c_6179; // "dlay"
/// Domain separator: per-transmission duplication roll.
pub const DOMAIN_DUP: u64 = 0x6475_706c; // "dupl"
/// Domain separator: backoff jitter.
pub const DOMAIN_JITTER: u64 = 0x6a74_7472; // "jttr"
/// Domain separator: contact-throttling roll while degraded.
pub const DOMAIN_THROTTLE: u64 = 0x7468_726f; // "thro"
/// Domain separator: the community certification key.
pub const DOMAIN_KEY: u64 = 0x636b_6579; // "ckey"

/// Attempt slots reserved per host in draw counters (bounds
/// [`DistNetParams::max_attempts`]).
const ATTEMPT_SLOTS: u64 = 1 << 16;

/// Parameters of the antibody distribution network.
///
/// `enabled = false` (the [`Default`]) selects the legacy
/// instantaneous-γ clock: the community run is bit-identical to the
/// pre-distnet engine. [`DistNetParams::ideal`] enables the network
/// with a perfect wire — the zero-fault differential anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistNetParams {
    /// Route antibodies through the simulated network instead of the
    /// instantaneous clock.
    pub enabled: bool,
    /// Per-transmission loss probability in `[0, 1)`.
    pub loss: f64,
    /// Per-transmission duplication probability in `[0, 1)`.
    pub dup: f64,
    /// Maximum extra delivery delay in ticks (uniform in
    /// `[0, max_delay_ticks]`; `0` = same-tick delivery).
    pub max_delay_ticks: u64,
    /// Fraction of producers that are Byzantine (forged bundles).
    pub byzantine: f64,
    /// Backoff base in ticks (first retry waits about this long).
    pub retry_base_ticks: u64,
    /// Backoff cap in ticks (exponential growth stops here).
    pub retry_cap_ticks: u64,
    /// Maximum delivery attempts per consumer before giving up
    /// (a gave-up consumer stays degraded, never immune).
    pub max_attempts: u32,
    /// Probability that a *degraded* (forged-bundle-bitten, still
    /// unprotected) consumer blocks an inbound infection contact.
    pub throttle: f64,
}

impl Default for DistNetParams {
    fn default() -> DistNetParams {
        DistNetParams::disabled()
    }
}

impl DistNetParams {
    /// The legacy instantaneous-γ clock (distribution network off).
    pub fn disabled() -> DistNetParams {
        DistNetParams {
            enabled: false,
            ..DistNetParams::ideal()
        }
    }

    /// A perfect wire: no loss, no duplication, no delay, no Byzantine
    /// producers. Reproduces the legacy results bit-identically.
    pub fn ideal() -> DistNetParams {
        DistNetParams {
            enabled: true,
            loss: 0.0,
            dup: 0.0,
            max_delay_ticks: 0,
            byzantine: 0.0,
            retry_base_ticks: 1,
            retry_cap_ticks: 16,
            max_attempts: 48,
            throttle: 0.5,
        }
    }

    /// A lossy/adversarial wire with the given loss probability and
    /// Byzantine producer fraction (the `fig9dist` sweep axes).
    pub fn lossy(loss: f64, byzantine: f64) -> DistNetParams {
        DistNetParams {
            loss,
            byzantine,
            dup: 0.05,
            max_delay_ticks: 2,
            ..DistNetParams::ideal()
        }
    }

    /// Backoff base clamped to at least one tick.
    fn base(&self) -> u64 {
        self.retry_base_ticks.max(1)
    }

    /// Backoff cap clamped to at least the base.
    fn cap(&self) -> u64 {
        self.retry_cap_ticks.max(self.base())
    }
}

/// The deterministic (jitter-free) part of the backoff before attempt
/// `attempt` (≥ 1): `min(base · 2^(attempt-1), cap)`.
pub fn backoff_base_ticks(p: &DistNetParams, attempt: u32) -> u64 {
    let exp = u32::min(attempt.saturating_sub(1), 63);
    p.base().saturating_mul(1u64 << exp.min(62)).min(p.cap())
}

/// Ticks a consumer waits between attempt `attempt - 1` and attempt
/// `attempt` (≥ 1): capped exponential backoff plus deterministic
/// jitter in `[0, base)` drawn from the counter PRNG.
///
/// A pure function of `(p, seed, host, attempt)` — the schedule is
/// identical no matter when, where, or in which order it is evaluated.
/// While the exponential part is below the cap, the schedule is
/// strictly monotone non-decreasing even across jitter, because the
/// base doubles by at least `base` while jitter varies by less than
/// `base` (pinned by `tests/distnet_props.rs`).
pub fn backoff_ticks(p: &DistNetParams, seed: u64, host: u64, attempt: u32) -> u64 {
    let det = backoff_base_ticks(p, attempt);
    let span = p.base();
    let j = if span > 1 {
        draw(
            seed,
            DOMAIN_JITTER,
            host.wrapping_mul(ATTEMPT_SLOTS)
                .wrapping_add(u64::from(attempt)),
        ) % span
    } else {
        0
    };
    det + j
}

/// Per-shard distribution-network counters, attributed to the
/// *receiving* host's shard and folded in shard order by the community
/// metrics merge (so they are shard-count-invariant by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistShardStats {
    /// Bundle transmissions attempted (attempt 0 and retries).
    pub sends: u64,
    /// Transmissions that were retries (attempt ≥ 1).
    pub retries: u64,
    /// Transmissions lost in transit.
    pub drops: u64,
    /// Transmissions duplicated in transit.
    pub dups: u64,
    /// Deliveries that arrived with extra delay.
    pub delayed: u64,
    /// Bundles that passed verify-before-deploy (deployments).
    pub verified: u64,
    /// Bundles rejected by verification (forged/corrupt/mismatched).
    pub rejected: u64,
    /// `(consumer, producer)` quarantine events after rejections.
    pub quarantines: u64,
    /// Sends skipped because the selected producer was quarantined.
    pub skipped_quarantined: u64,
    /// Deliveries that arrived after the host was already protected.
    pub late: u64,
    /// Consumers that exhausted `max_attempts` without protection.
    pub gave_up: u64,
}

impl DistShardStats {
    /// Fold these counters into a metrics registry under `distnet.*`.
    pub fn export(&self, reg: &mut obs::MetricsRegistry) {
        reg.inc("distnet.sends", self.sends);
        reg.inc("distnet.retries", self.retries);
        reg.inc("distnet.drops", self.drops);
        reg.inc("distnet.dups", self.dups);
        reg.inc("distnet.delayed", self.delayed);
        reg.inc("distnet.verified", self.verified);
        reg.inc("distnet.rejected", self.rejected);
        reg.inc("distnet.quarantines", self.quarantines);
        reg.inc("distnet.skipped_quarantined", self.skipped_quarantined);
        reg.inc("distnet.late", self.late);
        reg.inc("distnet.gave_up", self.gave_up);
    }
}

/// End of a quarantine or send list (and an empty list head).
const NIL: u32 = u32::MAX;

/// The send link of a consumer that is in no send bucket: given up, or
/// protected at its last pop. Distinct from [`NIL`], which marks the
/// last consumer *in* a bucket.
const UNLINKED: u32 = u32::MAX - 1;

/// A bundle in flight, due at a known tick.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Receiving consumer, `host - producers`.
    idx: u32,
    /// Sending producer.
    src: u32,
}

/// One send bucket: a FIFO list of consumers threaded through
/// [`DistNet::send_next`].
#[derive(Debug, Clone, Copy)]
struct SendList {
    head: u32,
    tail: u32,
}

impl SendList {
    const EMPTY: SendList = SendList {
        head: NIL,
        tail: NIL,
    };
}

/// The distribution network state for one community run.
///
/// Created and activated by the community engine when antibody
/// production completes (`T0 + γ`); stepped once per tick *before* the
/// generate phase. All mutation happens in the coordinator; the apply
/// phase only reads [`DistNet::protected`] / [`DistNet::throttled`]
/// through a shared reference, so worker shards never race on it.
pub struct DistNet {
    p: DistNetParams,
    seed: u64,
    producers: u64,
    consumers: std::ops::Range<u64>,
    /// Shard bounds, for counter attribution.
    bounds: Vec<(u64, u64)>,
    /// Whether the bundle each producer transmits passes
    /// [`CertifiedBundle::verify`] under the community key. Index =
    /// producer id. `false` for a forgery, and for a bundle that could
    /// not be sealed because the antibody carried no evidence.
    verdicts: Vec<bool>,
    /// Byzantine flag per producer.
    byz: Vec<bool>,
    /// Per-consumer verified-deployment flags, indexed `host - producers`.
    protected_set: HostBits,
    /// Per-consumer degraded flags (forged-bundle-bitten, throttling
    /// inbound contacts until protected).
    degraded_set: HostBits,
    /// Per-consumer exhausted-attempt-budget flags.
    gave_up_set: HostBits,
    /// Per consumer, the first node of its quarantine list in
    /// `quarantine_nodes` ([`NIL`] when it quarantined nobody).
    quarantine_head: Vec<u32>,
    /// Every consumer's quarantine list nodes: `(producer, next node)`.
    quarantine_nodes: Vec<(u32, u32)>,
    /// Send schedule: ring bucket `due % horizon` lists the consumers
    /// whose outstanding send is due at tick `due`.
    send_ring: Vec<SendList>,
    /// Per consumer, the next consumer in its send bucket ([`NIL`] at
    /// the bucket's tail, [`UNLINKED`] outside every bucket).
    send_next: Vec<u32>,
    /// Per consumer, the attempt number of its outstanding send.
    send_attempt: Vec<u16>,
    /// In-flight bundles: ring bucket `due % horizon`.
    arrival_ring: Vec<Vec<Arrival>>,
    /// Ring size: strictly greater than the farthest-future schedule
    /// offset (`cap + base − 1` for retries, `max_delay + 1` for
    /// duplicated arrivals), so same-bucket collisions cannot happen
    /// while the engine steps every consecutive tick.
    horizon: u64,
    /// Per-shard counters.
    stats: Vec<DistShardStats>,
    /// Tick the initial broadcast happened.
    activated_tick: u64,
    /// Tick the last consumer became protected, if that happened.
    protection_complete_tick: Option<u64>,
    /// Consumers currently protected.
    protected_count: u64,
    /// I8 counter: deployments that did not come from a successful
    /// verification (or forgeries that passed one). Always zero unless
    /// the certification layer is broken.
    deployed_unverified: u64,
}

impl std::fmt::Debug for DistNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistNet")
            .field("producers", &self.producers)
            .field("consumers", &self.consumers)
            .field("activated_tick", &self.activated_tick)
            .field("protected_count", &self.protected_count)
            .finish_non_exhaustive()
    }
}

/// Build the model antibody every honest producer distributes: a small
/// but *real* bundle (VSEF + exact signature + exploit evidence) that
/// round-trips the PR-4 wire codecs on every simulated delivery.
fn model_antibody(seed: u64) -> Antibody {
    let evidence: Vec<u8> = draw(seed, DOMAIN_KEY, 1).to_le_bytes().to_vec();
    let mut ab = Antibody::new();
    ab.push(
        AntibodyItem::Vsef(VsefSpec::StoreSmashGuard {
            store_pc: (draw(seed, DOMAIN_KEY, 2) & 0xffff) as u32,
        }),
        40.0,
    );
    ab.push(
        AntibodyItem::Signature(Signature::Exact(evidence.clone())),
        9000.0,
    );
    ab.push(AntibodyItem::ExploitInput(evidence), 9500.0);
    ab
}

impl DistNet {
    /// Build the network: assign Byzantine producers, seal each
    /// producer's bundle (forging the Byzantine ones) and verify it once,
    /// and record the initial broadcast tick. `bounds` is the community's
    /// contiguous shard partition (for counter attribution).
    ///
    /// # Panics
    ///
    /// Before allocating anything, if `p.max_attempts` exceeds the
    /// attempt slots the draw counters reserve per host (a larger
    /// budget would alias the wire rolls of `(host, 2¹⁶)` with those
    /// of `(host + 1, 0)`), or if the producer or consumer ids do not
    /// fit the network's 32-bit entries.
    pub fn new(
        p: &DistNetParams,
        seed: u64,
        hosts: u64,
        producers: u64,
        bounds: &[(u64, u64)],
        activated_tick: u64,
    ) -> DistNet {
        assert!(
            u64::from(p.max_attempts) <= ATTEMPT_SLOTS,
            "max_attempts {} exceeds the {ATTEMPT_SLOTS} attempt slots per host",
            p.max_attempts
        );
        assert!(
            producers <= hosts && producers <= u64::from(u32::MAX),
            "{producers} producers of {hosts} hosts do not fit 32-bit producer ids"
        );
        let n_consumers = hosts - producers;
        assert!(
            n_consumers <= u64::from(UNLINKED),
            "{n_consumers} consumers do not fit 32-bit consumer indices"
        );
        let key = draw(seed, DOMAIN_KEY, 0);
        let honest_ab = model_antibody(seed);
        let mut byz = Vec::with_capacity(producers as usize);
        let mut verdicts = Vec::with_capacity(producers as usize);
        for prod in 0..producers {
            let is_byz =
                p.byzantine > 0.0 && to_unit(draw(seed, DOMAIN_BYZANTINE, prod)) < p.byzantine;
            byz.push(is_byz);
            let honest = CertifiedBundle::seal(prod as u32, 0, &honest_ab, key);
            let bundle = honest.map(|honest| {
                if !is_byz {
                    return honest;
                }
                match draw(seed, DOMAIN_FORGE, prod) % 3 {
                    // Forged tag: an outsider-grade forgery.
                    0 => honest.forged_bad_tag(),
                    // Corrupt payload, re-tagged with the key: flipping
                    // byte 0 breaks the inner SWAB magic, so the
                    // fail-closed payload decoder rejects it.
                    1 => honest.forged_corrupt_payload(key, 0),
                    // Valid-looking bundle whose evidence is benign.
                    _ => honest.forged_mismatched_evidence(key, b"benign".to_vec()),
                }
            });
            verdicts.push(bundle.is_some_and(|b| b.verify(key).is_ok()));
        }
        let n = n_consumers as u32;
        let horizon = p.cap() + p.base() + p.max_delay_ticks + 2;
        let mut send_ring = vec![SendList::EMPTY; horizon as usize];
        // Initial broadcast: attempt 0 for every consumer, this tick,
        // in consumer order.
        if n > 0 {
            send_ring[(activated_tick % horizon) as usize] = SendList {
                head: 0,
                tail: n - 1,
            };
        }
        DistNet {
            p: *p,
            seed,
            producers,
            consumers: producers..hosts,
            bounds: bounds.to_vec(),
            verdicts,
            byz,
            protected_set: HostBits::new(n_consumers),
            degraded_set: HostBits::new(n_consumers),
            gave_up_set: HostBits::new(n_consumers),
            quarantine_head: vec![NIL; n as usize],
            quarantine_nodes: Vec::new(),
            send_ring,
            send_next: (1..=n).map(|i| if i == n { NIL } else { i }).collect(),
            send_attempt: vec![0; n as usize],
            arrival_ring: vec![Vec::new(); horizon as usize],
            horizon,
            stats: vec![DistShardStats::default(); bounds.len()],
            activated_tick,
            protection_complete_tick: None,
            protected_count: 0,
            deployed_unverified: 0,
        }
    }

    /// Whether `host` has deployed a verified antibody.
    pub fn protected(&self, host: u64) -> bool {
        self.consumers.contains(&host) && self.protected_set.contains(host - self.producers)
    }

    /// Whether `host` is degraded (forged-bundle-bitten, unprotected)
    /// and therefore throttling inbound contacts.
    pub fn throttled(&self, host: u64) -> bool {
        if !self.consumers.contains(&host) {
            return false;
        }
        let idx = host - self.producers;
        self.degraded_set.contains(idx) && !self.protected_set.contains(idx)
    }

    /// Bytes of heap the network holds: capacity × element size, summed
    /// over every structure.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.bounds)
            + cap(&self.verdicts)
            + cap(&self.byz)
            + self.protected_set.heap_bytes()
            + self.degraded_set.heap_bytes()
            + self.gave_up_set.heap_bytes()
            + cap(&self.quarantine_head)
            + cap(&self.quarantine_nodes)
            + cap(&self.send_ring)
            + cap(&self.send_next)
            + cap(&self.send_attempt)
            + cap(&self.arrival_ring)
            + self.arrival_ring.iter().map(cap).sum::<usize>()
            + cap(&self.stats)
    }

    /// Counter key for `(host, attempt)` wire rolls.
    fn wire_key(host: u64, attempt: u32) -> u64 {
        host.wrapping_mul(ATTEMPT_SLOTS)
            .wrapping_add(u64::from(attempt))
    }

    /// Whether consumer `idx` quarantined producer `src`.
    fn quarantined(&self, idx: u32, src: u32) -> bool {
        let mut node = self.quarantine_head[idx as usize];
        while node != NIL {
            let (q, next) = self.quarantine_nodes[node as usize];
            if q == src {
                return true;
            }
            node = next;
        }
        false
    }

    /// Deliver one bundle to consumer `idx`, verify-before-deploy.
    /// Returns 1 if the host became protected *and* is not already
    /// infected (i.e. it newly resolved), else 0.
    fn deliver(&mut self, idx: u32, src: u32, tick: u64, infected: &dyn Fn(u64) -> bool) -> u64 {
        let host = u64::from(idx) + self.producers;
        let shard = shard_of(host, &self.bounds);
        if self.protected_set.contains(u64::from(idx)) {
            self.stats[shard].late += 1;
            return 0;
        }
        // Verify-before-deploy: the producer's bundle verdict (decode +
        // keyed tag + fail-closed payload + evidence consistency, taken
        // once in `new`). The *only* path into `protected_set`.
        if !self.verdicts[src as usize] {
            self.stats[shard].rejected += 1;
            if !self.quarantined(idx, src) {
                assert!(
                    self.quarantine_nodes.len() < NIL as usize,
                    "quarantine arena exceeds 32-bit node ids"
                );
                let node = self.quarantine_nodes.len() as u32;
                let head = &mut self.quarantine_head[idx as usize];
                self.quarantine_nodes.push((src, *head));
                *head = node;
                self.stats[shard].quarantines += 1;
            }
            self.degraded_set.insert(u64::from(idx));
            return 0;
        }
        if self.byz[src as usize] {
            // A forgery passed verification: certification is broken.
            // Deploying now would be an unverified deployment in I8
            // terms.
            self.deployed_unverified += 1;
        }
        self.protected_set.insert(u64::from(idx));
        self.stats[shard].verified += 1;
        self.protected_count += 1;
        if self.protected_count == self.consumers.end - self.consumers.start {
            self.protection_complete_tick = Some(tick);
        }
        u64::from(!infected(host))
    }

    /// Schedule attempt `attempt` for consumer `idx` after the backoff,
    /// at the tail of its due bucket. `idx` must be in no send bucket.
    fn schedule_retry(&mut self, idx: u32, attempt: u32, tick: u64) {
        debug_assert_eq!(
            self.send_next[idx as usize], UNLINKED,
            "consumer {idx} would be linked into two send buckets"
        );
        let host = u64::from(idx) + self.producers;
        if attempt >= self.p.max_attempts {
            if !self.gave_up_set.contains(u64::from(idx))
                && !self.protected_set.contains(u64::from(idx))
            {
                self.gave_up_set.insert(u64::from(idx));
                let shard = shard_of(host, &self.bounds);
                self.stats[shard].gave_up += 1;
            }
            return;
        }
        let due = tick + backoff_ticks(&self.p, self.seed, host, attempt);
        debug_assert!(
            due > tick && due - tick < self.horizon,
            "retry offset {} outside ring horizon {}",
            due - tick,
            self.horizon
        );
        // `attempt < max_attempts <= ATTEMPT_SLOTS`, so it fits a u16.
        self.send_attempt[idx as usize] = attempt as u16;
        self.send_next[idx as usize] = NIL;
        let list = &mut self.send_ring[(due % self.horizon) as usize];
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.send_next[list.tail as usize] = idx;
        }
        list.tail = idx;
    }

    /// One distribution tick: process due arrivals, then due sends.
    /// Runs in the coordinator between the community's barrier phases.
    /// Returns the number of consumers that newly became resolved
    /// (protected while not infected).
    pub fn step(&mut self, tick: u64, infected: &dyn Fn(u64) -> bool) -> u64 {
        let mut newly_resolved = 0;
        let slot = (tick % self.horizon) as usize;
        // Everything scheduled during this step lands strictly in the
        // future and within the horizon, so it can never hit `slot`;
        // the drained arrival bucket is swapped back below to keep its
        // capacity.
        let mut arrivals = std::mem::take(&mut self.arrival_ring[slot]);
        for a in arrivals.drain(..) {
            newly_resolved += self.deliver(a.idx, a.src, tick, infected);
        }
        self.arrival_ring[slot] = arrivals;
        let mut idx = std::mem::replace(&mut self.send_ring[slot], SendList::EMPTY).head;
        while idx != NIL {
            // Unlink before anything can re-link `idx` into a later
            // bucket.
            let next = std::mem::replace(&mut self.send_next[idx as usize], UNLINKED);
            newly_resolved += self.send_one(idx, tick, infected);
            idx = next;
        }
        newly_resolved
    }

    /// Pop consumer `idx`'s send due at `tick`: skip it if the consumer
    /// is protected, else transmit and schedule the next attempt. Returns
    /// 1 if a same-tick delivery newly resolved the consumer, else 0.
    fn send_one(&mut self, idx: u32, tick: u64, infected: &dyn Fn(u64) -> bool) -> u64 {
        if self.protected_set.contains(u64::from(idx)) {
            return 0; // Acknowledged: the producer stops retrying.
        }
        let host = u64::from(idx) + self.producers;
        let attempt = u32::from(self.send_attempt[idx as usize]);
        // `producers` fits a u32 (asserted in `new`), so `src` does too.
        let src = ((host + u64::from(attempt)) % self.producers) as u32;
        let shard = shard_of(host, &self.bounds);
        if self.quarantined(idx, src) {
            self.stats[shard].skipped_quarantined += 1;
            self.schedule_retry(idx, attempt + 1, tick);
            return 0;
        }
        self.stats[shard].sends += 1;
        if attempt > 0 {
            self.stats[shard].retries += 1;
        }
        let key = Self::wire_key(host, attempt);
        // The send is unacknowledged until a delivery verifies, so
        // the retry is scheduled unconditionally; a later verified
        // delivery suppresses it at pop time.
        self.schedule_retry(idx, attempt + 1, tick);
        if self.p.loss > 0.0 && to_unit(draw(self.seed, DOMAIN_LOSS, key)) < self.p.loss {
            self.stats[shard].drops += 1;
            return 0;
        }
        let delay = if self.p.max_delay_ticks > 0 {
            draw(self.seed, DOMAIN_DELAY, key) % (self.p.max_delay_ticks + 1)
        } else {
            0
        };
        if self.p.dup > 0.0 && to_unit(draw(self.seed, DOMAIN_DUP, key)) < self.p.dup {
            self.stats[shard].dups += 1;
            let at = ((tick + delay + 1) % self.horizon) as usize;
            self.arrival_ring[at].push(Arrival { idx, src });
        }
        if delay == 0 {
            return self.deliver(idx, src, tick, infected);
        }
        self.stats[shard].delayed += 1;
        let at = ((tick + delay) % self.horizon) as usize;
        self.arrival_ring[at].push(Arrival { idx, src });
        0
    }

    /// Per-shard counters (index = shard).
    pub fn shard_stats(&self) -> &[DistShardStats] {
        &self.stats
    }

    /// Number of Byzantine producers in this run.
    pub fn byzantine_producers(&self) -> u64 {
        self.byz.iter().filter(|b| **b).count() as u64
    }

    /// Tick of the initial broadcast.
    pub fn activated_tick(&self) -> u64 {
        self.activated_tick
    }

    /// Tick the last consumer became protected, if protection completed.
    pub fn protection_complete_tick(&self) -> Option<u64> {
        self.protection_complete_tick
    }

    /// Consumers currently protected.
    pub fn protected_count(&self) -> u64 {
        self.protected_count
    }

    /// I8 counter: deployments without a successful verification
    /// (always zero unless the certification layer is broken).
    pub fn deployed_unverified(&self) -> u64 {
        self.deployed_unverified
    }
}

/// Distribution-network portion of a community run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DistOutcome {
    /// Tick of the initial broadcast (`T0 + γ_production`).
    pub activated_tick: u64,
    /// Tick the last consumer became protected, if protection completed.
    pub protection_complete_tick: Option<u64>,
    /// Consumers protected when the run ended.
    pub protected: u64,
    /// Byzantine producers in this run.
    pub byzantine_producers: u64,
    /// I8 counter: unverified deployments (must be zero).
    pub deployed_unverified: u64,
    /// Per-shard wire counters, index = shard.
    pub shard_stats: Vec<DistShardStats>,
}

impl DistOutcome {
    /// Emergent γ: ticks from the first producer contact to full
    /// community protection (`None` if protection never completed).
    pub fn gamma_effective(&self, t0_tick: u64) -> Option<u64> {
        self.protection_complete_tick
            .map(|t| t.saturating_sub(t0_tick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds1(hosts: u64) -> Vec<(u64, u64)> {
        vec![(0, hosts)]
    }

    /// More hosts than any allocation could hold: `new` must refuse
    /// each unrepresentable parameter before it reserves a byte, so
    /// these panic with the assert's message, not an allocation failure.
    const UNALLOCATABLE: u64 = u64::MAX;

    #[test]
    #[should_panic(expected = "attempt slots per host")]
    fn an_attempt_budget_past_the_draw_slots_is_refused() {
        let p = DistNetParams {
            max_attempts: ATTEMPT_SLOTS as u32 + 1,
            ..DistNetParams::ideal()
        };
        DistNet::new(&p, 7, UNALLOCATABLE, 1, &bounds1(UNALLOCATABLE), 0);
    }

    #[test]
    #[should_panic(expected = "32-bit producer ids")]
    fn producer_ids_past_u32_are_refused() {
        let p = DistNetParams::ideal();
        let producers = u64::from(u32::MAX) + 1;
        DistNet::new(&p, 7, UNALLOCATABLE, producers, &bounds1(UNALLOCATABLE), 0);
    }

    #[test]
    #[should_panic(expected = "32-bit consumer indices")]
    fn consumer_indices_past_u32_are_refused() {
        let p = DistNetParams::ideal();
        DistNet::new(&p, 7, UNALLOCATABLE, 1, &bounds1(UNALLOCATABLE), 0);
    }

    #[test]
    fn the_full_attempt_budget_is_accepted() {
        let p = DistNetParams {
            max_attempts: ATTEMPT_SLOTS as u32,
            ..DistNetParams::ideal()
        };
        let mut net = DistNet::new(&p, 7, 10, 2, &bounds1(10), 0);
        assert_eq!(net.step(0, &|_| false), 8);
    }

    #[test]
    fn ideal_wire_protects_everyone_in_the_activation_tick() {
        let p = DistNetParams::ideal();
        let mut net = DistNet::new(&p, 7, 100, 4, &bounds1(100), 10);
        let resolved = net.step(10, &|_| false);
        assert_eq!(resolved, 96);
        assert_eq!(net.protected_count(), 96);
        assert_eq!(net.protection_complete_tick(), Some(10));
        assert_eq!(net.deployed_unverified(), 0);
        let s = net.shard_stats()[0];
        assert_eq!(s.sends, 96);
        assert_eq!(s.verified, 96);
        assert_eq!(s.retries + s.drops + s.dups + s.rejected + s.quarantines, 0);
    }

    #[test]
    fn lossy_wire_retries_until_protected() {
        let p = DistNetParams {
            loss: 0.5,
            ..DistNetParams::ideal()
        };
        let mut net = DistNet::new(&p, 11, 60, 3, &bounds1(60), 0);
        let mut resolved = 0;
        for tick in 0..4_000 {
            resolved += net.step(tick, &|_| false);
            if net.protected_count() == 57 {
                break;
            }
        }
        assert_eq!(resolved, 57, "every consumer eventually protected");
        let s = net.shard_stats()[0];
        assert!(s.drops > 0, "losses must occur at 50%");
        assert!(s.retries > 0, "drops must trigger retries");
        assert_eq!(net.deployed_unverified(), 0);
    }

    #[test]
    fn byzantine_producers_are_quarantined_not_deployed() {
        let p = DistNetParams {
            byzantine: 0.5,
            ..DistNetParams::ideal()
        };
        let mut net = DistNet::new(&p, 13, 200, 20, &bounds1(200), 0);
        assert!(
            net.byzantine_producers() > 0,
            "seed must pick Byzantine producers"
        );
        assert_eq!(
            net.verdicts,
            net.byz.iter().map(|b| !b).collect::<Vec<_>>(),
            "only honest producers' bundles verify"
        );
        let mut resolved = 0;
        for tick in 0..4_000 {
            resolved += net.step(tick, &|_| false);
            if net.protected_count() == 180 {
                break;
            }
        }
        let s = net.shard_stats()[0];
        assert!(s.rejected > 0, "forged bundles must be rejected");
        assert!(s.quarantines > 0, "rejections must quarantine senders");
        assert_eq!(net.deployed_unverified(), 0, "I8: forgeries never deploy");
        assert_eq!(resolved, 180, "honest producers still cover everyone");
    }

    #[test]
    fn all_byzantine_means_graceful_degradation_not_panic() {
        let p = DistNetParams {
            byzantine: 1.0,
            max_attempts: 8,
            ..DistNetParams::ideal()
        };
        let mut net = DistNet::new(&p, 17, 30, 2, &bounds1(30), 0);
        for tick in 0..2_000 {
            net.step(tick, &|_| false);
        }
        assert_eq!(net.protected_count(), 0, "nothing verifiable was sent");
        assert_eq!(
            net.deployed_unverified(),
            0,
            "I8 holds even at 100% Byzantine"
        );
        // Every consumer received forged bundles: all degraded/throttled.
        for h in 2..30 {
            assert!(net.throttled(h), "host {h} must be throttling");
        }
        let s = net.shard_stats()[0];
        assert!(s.gave_up > 0, "attempt budgets must exhaust");
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = DistNetParams {
            retry_base_ticks: 2,
            retry_cap_ticks: 32,
            ..DistNetParams::ideal()
        };
        for host in [0u64, 5, 99] {
            let mut prev = 0;
            let mut capped = false;
            for attempt in 1..20u32 {
                let a = backoff_ticks(&p, 42, host, attempt);
                let b = backoff_ticks(&p, 42, host, attempt);
                assert_eq!(a, b, "pure function of (seed, host, attempt)");
                let det = backoff_base_ticks(&p, attempt);
                assert!(det <= 32, "deterministic part capped");
                assert!(a >= det && a < det + 2, "jitter bounded by base");
                if !capped {
                    assert!(a >= prev, "monotone until the cap");
                }
                capped = capped || det == 32;
                prev = a;
            }
        }
    }

    #[test]
    fn counters_are_attributed_to_the_receiving_shard() {
        let p = DistNetParams::ideal();
        let bounds = vec![(0u64, 50), (50, 100)];
        let mut net = DistNet::new(&p, 3, 100, 4, &bounds, 0);
        net.step(0, &|_| false);
        let s = net.shard_stats();
        // Consumers are hosts 4..100: 46 in shard 0, 50 in shard 1.
        assert_eq!(s[0].verified, 46);
        assert_eq!(s[1].verified, 50);
        assert_eq!(s[0].sends + s[1].sends, 96);
    }
}
