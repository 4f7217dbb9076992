//! Replicas and the anti-entropy replica set.
//!
//! A [`Replica`] is one scheduler-facing serving node: its own
//! [`TuningModelRepository`], a replication *log* (the latest winning
//! [`ReplicatedModel`] per application — bounded by the application
//! count, never LRU-evicted, so sync survives repository eviction
//! pressure) whose entry stamps are the highest stamp observed per
//! application, and one sync link per peer. Publications made locally
//! are stamped `(next version, own id)`; entries applied off the wire
//! are admitted only when their stamp wins — so every replica converges
//! to the same winner per application no matter the delivery order.
//!
//! [`ReplicaSet`] wires N replicas over one [`SimTransport`] and drives
//! the whole exchange in virtual time. Sync is *dirty-flag gossip*: a
//! replica that publishes or applies anything marks every peer link
//! dirty; a dirty link sends a [`Message::DigestOffer`] and stays dirty
//! until an **empty** [`Message::DigestReply`] confirms parity *for the
//! log revision the offer described* (an empty reply to a stale offer
//! must not clear the flag — entries published since would never
//! propagate). An offer unanswered for `OFFER_TIMEOUT_TICKS` (8) ticks
//! is sent again; that is the protocol's one retry mechanism. There is
//! no connection state: the responder answers whatever frame arrives,
//! and the frame header's version word is the whole version agreement.
//! Re-offers are new messages with new transport ids, so a seeded drop
//! plan can delay sync but never livelock it.
//!
//! One [`ReplicaSet::gossip_round`] is one transport tick: an outbound
//! sweep per live replica, then delivery. The in-loop service runs
//! rounds on a virtual-time cadence; [`ReplicaSet::converge`] runs them
//! back to back. Both stop once the set is [`ReplicaSet::quiesced`]:
//! the transport is quiet and every live link is clean with no offer
//! outstanding — so every replica holds an identical model map. A later
//! publication dirties the links again and gossips at once.

use std::collections::BTreeMap;

use kernels::BenchmarkSpec;
use obskit::{Recorder, Track};
use ptf::TuningModel;
use simnode::SystemConfig;

use crate::error::RuntimeError;
use crate::inject::FaultInjector;
use crate::repository::{
    ModelKey, ModelSource, RepositoryHandle, RepositoryStats, ServedModel, TuningModelRepository,
};

use super::frame::{decode, encode, ConvergeCulprit, Message, NetError};
use super::reconcile::{ModelDigest, ReplicatedModel, Stamp};
use super::transport::{SimTransport, TransportStats};

/// Virtual ticks (gossip rounds) an outstanding digest offer waits for
/// its reply before it is sent again.
const OFFER_TIMEOUT_TICKS: u64 = 8;

/// Construction parameters for every replica of a set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaConfig {
    /// Repository capacity, per replica: one LRU bound over every
    /// application the replica stores (0 = unbounded).
    pub capacity: usize,
    /// Calibration fallback served on repository misses.
    pub fallback: Option<SystemConfig>,
    /// Gossip-round budget (one round is one virtual tick) for one
    /// [`ReplicaSet::converge`] call or one
    /// [`ClusterScheduler::run_service_replicated`](crate::ClusterScheduler::run_service_replicated)
    /// run. A set still not quiesced when it runs out errors with
    /// [`NetError::ConvergeTimeout`].
    pub max_ticks: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            capacity: 0,
            fallback: None,
            max_ticks: 100_000,
        }
    }
}

/// One peer link: the dirty-flag sync state toward one peer.
#[derive(Debug)]
struct PeerLink {
    /// This peer may be missing something we hold.
    dirty: bool,
    /// An offer is outstanding: `(re-offer deadline, log revision the
    /// offer described)`.
    offer: Option<(u64, u64)>,
    /// Offers sent again because the previous one went unanswered past
    /// its deadline, over the link's lifetime.
    reoffers: u64,
}

impl PeerLink {
    /// Clean and with no offer outstanding: nothing left to sync over
    /// this link.
    fn settled(&self) -> bool {
        !self.dirty && self.offer.is_none()
    }
}

/// Replication counters for one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Remote entries applied (their stamp won).
    pub applied: u64,
    /// Remote entries ignored as stale (their stamp lost).
    pub superseded: u64,
}

/// One serving node of a replicated repository.
#[derive(Debug)]
pub struct Replica {
    id: u32,
    repo: TuningModelRepository,
    /// Latest winning entry per application — the sync source of truth;
    /// its stamp is the highest this replica has observed for the
    /// application.
    log: BTreeMap<String, ReplicatedModel>,
    /// Bumped on every log change; offers snapshot it so a stale empty
    /// reply cannot clear a dirty flag raised since.
    log_rev: u64,
    links: BTreeMap<u32, PeerLink>,
    /// Every stamp this replica assigned locally, in publication order —
    /// independent bookkeeping the invariant suite checks winners
    /// against. Survives a crash (it belongs to the test harness, not
    /// the replica).
    published: Vec<(String, Stamp)>,
    stats: ReplicaStats,
    /// Construction parameters, kept so a restart can rebuild the
    /// repository from scratch.
    config: ReplicaConfig,
    /// Crashed: not pumping, not serving; inbound frames are discarded.
    down: bool,
    /// Highest version this replica itself assigned per application —
    /// the one piece of durable state a restart keeps (a real node
    /// persists its own publication counter precisely so an amnesiac
    /// restart can never re-issue a stamp it already used; the model
    /// payloads are the expensive in-memory state that is lost).
    own_versions: BTreeMap<String, u32>,
}

impl Replica {
    fn new(id: u32, peers: impl Iterator<Item = u32>, config: &ReplicaConfig) -> Self {
        Self {
            id,
            repo: Self::empty_repository(config),
            log: BTreeMap::new(),
            log_rev: 0,
            links: peers
                .filter(|p| *p != id)
                .map(|p| {
                    (
                        p,
                        PeerLink {
                            // Dirty from birth: every pair exchanges at
                            // least one offer, so pre-seeded entries
                            // propagate without an explicit kick.
                            dirty: true,
                            offer: None,
                            reoffers: 0,
                        },
                    )
                })
                .collect(),
            published: Vec::new(),
            stats: ReplicaStats::default(),
            config: *config,
            down: false,
            own_versions: BTreeMap::new(),
        }
    }

    /// A fresh repository built from the replica's construction
    /// parameters.
    fn empty_repository(config: &ReplicaConfig) -> TuningModelRepository {
        let repo = TuningModelRepository::new().with_capacity(config.capacity);
        match config.fallback {
            Some(fallback) => repo.with_fallback(fallback),
            None => repo,
        }
    }

    /// Whether this replica is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Restart after a crash: a fresh empty repository and log; every
    /// link born dirty again so the first gossip rounds
    /// replay the fleet's winners back in. Only the durable own-version
    /// counter (and the harness-side publication history) survives.
    fn rebuild(&mut self) {
        self.repo = Self::empty_repository(&self.config);
        self.log.clear();
        self.log_rev = 0;
        for link in self.links.values_mut() {
            link.dirty = true;
            link.offer = None;
        }
        self.down = false;
    }

    /// This replica's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The replica-local repository (read-only view).
    pub fn repository(&self) -> &TuningModelRepository {
        &self.repo
    }

    /// Every stamp this replica assigned to a local publication, in
    /// publication order.
    pub fn published(&self) -> &[(String, Stamp)] {
        &self.published
    }

    /// The replica's converged view: `application → digest` of the
    /// winning entry. Two replicas are in sync iff these maps are equal.
    pub fn model_map(&self) -> BTreeMap<String, ModelDigest> {
        self.log
            .iter()
            .map(|(app, entry)| (app.clone(), entry.digest()))
            .collect()
    }

    /// Publish a model on *this* replica: stamps it past everything the
    /// replica has observed for the application, installs it locally
    /// (as [`ModelSource::Online`] — it is a local publication) and
    /// marks every peer link dirty. Returns the assigned stamp.
    pub fn publish_model(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> Stamp {
        // Past everything observed *and* past every version this replica
        // ever assigned itself — after an amnesiac restart the log is
        // empty, but re-issuing an old stamp with new content
        // would make two replicas disagree forever on that stamp's entry.
        let version = self
            .stamp_of(&bench.name)
            .map_or(1, |s| s.version + 1)
            .max(self.own_versions.get(&bench.name).copied().unwrap_or(0) + 1);
        self.own_versions.insert(bench.name.clone(), version);
        let stamp = Stamp {
            version,
            publisher: self.id,
        };
        let entry = ReplicatedModel {
            application: bench.name.clone(),
            fingerprint: bench.fingerprint(),
            model_json: model.to_json(),
            expected,
            stamp,
        };
        self.published.push((bench.name.clone(), stamp));
        self.install(entry, ModelSource::Online);
        stamp
    }

    /// The highest stamp this replica has observed for `application`:
    /// the stamp of its log entry, since every stamp that wins is
    /// installed with the entry carrying it.
    fn stamp_of(&self, application: &str) -> Option<&Stamp> {
        self.log.get(application).map(|e| &e.stamp)
    }

    /// Apply a remote entry if its stamp wins; returns whether it did.
    fn apply_remote(&mut self, entry: ReplicatedModel) -> bool {
        if !entry.stamp.wins_over(self.stamp_of(&entry.application)) {
            self.stats.superseded += 1;
            return false;
        }
        self.stats.applied += 1;
        self.install(entry, ModelSource::Replicated);
        true
    }

    /// Install a winning entry: repository and log; dirty gossip.
    fn install(&mut self, entry: ReplicatedModel, source: ModelSource) {
        let key = ModelKey {
            application: entry.application.clone(),
            fingerprint: entry.fingerprint,
        };
        self.repo.store_replicated(
            key,
            entry.model_json.clone(),
            source,
            entry.expected.clone(),
            entry.stamp.version,
        );
        self.log.insert(entry.application.clone(), entry);
        self.log_rev += 1;
        for link in self.links.values_mut() {
            link.dirty = true;
        }
    }

    /// Answer one message from peer `from`. `None` means the message
    /// needs no reply (an applied push, a parity confirmation).
    fn respond(&mut self, from: u32, message: Message) -> Option<Message> {
        match message {
            Message::DigestOffer { digests } => {
                let offered: BTreeMap<&str, Stamp> = digests
                    .iter()
                    .map(|d| (d.application.as_str(), d.stamp))
                    .collect();
                let want: Vec<String> = digests
                    .iter()
                    .filter(|d| d.stamp.wins_over(self.stamp_of(&d.application)))
                    .map(|d| d.application.clone())
                    .collect();
                let entries: Vec<ReplicatedModel> = self
                    .log
                    .values()
                    .filter(|e| e.stamp.wins_over(offered.get(e.application.as_str())))
                    .cloned()
                    .collect();
                Some(Message::DigestReply { want, entries })
            }
            Message::PushModels { entries } => {
                for entry in entries {
                    self.apply_remote(entry);
                }
                None
            }
            Message::PullModels { applications } => {
                // Read-repair: ship whatever subset of the requested
                // applications this replica holds. The requester installs
                // them through the ordinary `PushModels` path, so the
                // stamp discipline (and dirty-flag gossip onwards) is
                // identical to anti-entropy sync.
                let entries: Vec<ReplicatedModel> = applications
                    .iter()
                    .filter_map(|app| self.log.get(app).cloned())
                    .collect();
                (!entries.is_empty()).then_some(Message::PushModels { entries })
            }
            Message::DigestReply { want, entries } => self.handle_reply(from, want, entries),
        }
    }

    /// Handle a `DigestReply` from `from`: apply what the peer was
    /// ahead on, build the push for what it asked for, and clear the
    /// dirty flag only on rev-matched confirmed parity.
    fn handle_reply(
        &mut self,
        from: u32,
        want: Vec<String>,
        entries: Vec<ReplicatedModel>,
    ) -> Option<Message> {
        let offered_rev = self
            .links
            .get_mut(&from)
            .and_then(|l| l.offer.take())
            .map(|(_, rev)| rev);
        let parity = want.is_empty() && entries.is_empty();
        for entry in entries {
            self.apply_remote(entry);
        }
        if parity && offered_rev == Some(self.log_rev) {
            if let Some(link) = self.links.get_mut(&from) {
                link.dirty = false;
            }
        }
        if want.is_empty() {
            return None;
        }
        let entries: Vec<ReplicatedModel> = want
            .iter()
            .filter_map(|app| self.log.get(app).cloned())
            .collect();
        (!entries.is_empty()).then_some(Message::PushModels { entries })
    }
}

impl RepositoryHandle for Replica {
    fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.repo.serve(bench)
    }

    fn serve_stored(&mut self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        self.repo.serve_stored(bench)
    }

    fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.repo.serve_fallback(bench)
    }

    fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        self.publish_model(bench, model, expected).version
    }

    fn stats(&self) -> RepositoryStats {
        self.repo.stats()
    }
}

/// What one [`ReplicaSet::converge`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergeReport {
    /// Virtual ticks (gossip rounds) the call took.
    pub ticks: u64,
    /// Transport counters accumulated over the set's lifetime.
    pub transport: TransportStats,
    /// Remote entries applied, summed over replicas.
    pub applied: u64,
    /// Stale remote entries ignored, summed over replicas.
    pub superseded: u64,
    /// Offers sent again after going unanswered past their deadline,
    /// summed over all links.
    pub reoffers: u64,
}

/// N replicas over one simulated transport.
pub struct ReplicaSet<'a> {
    replicas: Vec<Replica>,
    transport: SimTransport<'a>,
    recorder: Option<&'a dyn Recorder>,
    /// [`ReplicaConfig::max_ticks`]; the service loop reads it too.
    pub(crate) max_ticks: u64,
}

impl std::fmt::Debug for ReplicaSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("replicas", &self.replicas.len())
            .field("transport", &self.transport)
            .finish()
    }
}

impl<'a> ReplicaSet<'a> {
    /// A set of `replicas` replicas (clamped to ≥ 1) over a healthy
    /// transport.
    pub fn new(replicas: u32, config: ReplicaConfig) -> Self {
        let count = replicas.max(1);
        Self {
            replicas: (0..count)
                .map(|id| Replica::new(id, 0..count, &config))
                .collect(),
            transport: SimTransport::new(count),
            recorder: None,
            max_ticks: config.max_ticks,
        }
    }

    /// Thread a fault injector's network hooks into the transport
    /// (builder form).
    #[must_use]
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.transport =
            std::mem::replace(&mut self.transport, SimTransport::new(1)).with_faults(faults);
        self
    }

    /// Attach a telemetry recorder (builder form): the transport mirrors
    /// its counters as `net.*` series, crashes and restarts bump
    /// `net.replica_crashes/<replica>` and `net.replica_restarts/<replica>`,
    /// and each [`ReplicaSet::converge`] call emits a `converge.sync` span
    /// on the net track (timestamps are virtual transport ticks).
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self.transport =
            std::mem::replace(&mut self.transport, SimTransport::new(1)).with_recorder(recorder);
        self
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false — a set holds at least one replica.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica with this id.
    pub fn replica(&self, id: u32) -> Result<&Replica, NetError> {
        self.replicas
            .get(id as usize)
            .ok_or(NetError::UnknownReplica {
                replica: id,
                replicas: self.replicas.len(),
            })
    }

    /// Mutable access to the replica with this id — the handle
    /// [`ClusterScheduler::run`](crate::ClusterScheduler::run) serves
    /// through.
    pub fn replica_mut(&mut self, id: u32) -> Result<&mut Replica, NetError> {
        let replicas = self.replicas.len();
        self.replicas
            .get_mut(id as usize)
            .ok_or(NetError::UnknownReplica {
                replica: id,
                replicas,
            })
    }

    /// Whether every replica holds an identical model map.
    pub fn converged(&self) -> bool {
        let mut maps = self.replicas.iter().map(Replica::model_map);
        let Some(first) = maps.next() else {
            return true;
        };
        maps.all(|m| m == first)
    }

    /// Run gossip rounds until the set is [`ReplicaSet::quiesced`]; an
    /// already quiesced set sends nothing. Errors with
    /// [`NetError::ConvergeTimeout`] if the set is still not quiet after
    /// [`ReplicaConfig::max_ticks`] rounds (a symptom, e.g., of a
    /// partition that never heals).
    pub fn converge(&mut self) -> Result<ConvergeReport, NetError> {
        let start = self.transport.now();
        while !self.quiesced() {
            if self.transport.now() - start >= self.max_ticks {
                return Err(NetError::ConvergeTimeout {
                    ticks: self.transport.now() - start,
                    culprit: self.blame(),
                });
            }
            self.gossip_round()?;
        }
        let ticks = self.transport.now() - start;
        if let Some(recorder) = self.recorder {
            recorder.span(Track::net(), "converge.sync", start, ticks);
        }
        let totals = self.replication_totals();
        Ok(ConvergeReport {
            ticks,
            transport: self.transport.stats(),
            applied: totals.applied,
            superseded: totals.superseded,
            reoffers: self
                .replicas
                .iter()
                .flat_map(|r| r.links.values())
                .map(|link| link.reoffers)
                .sum(),
        })
    }

    /// One outbound sweep over every live replica.
    fn pump(&mut self) -> Result<(), NetError> {
        for id in 0..self.replicas.len() as u32 {
            self.pump_replica(id)?;
        }
        Ok(())
    }

    /// Drain every inbox, sending each message's reply back.
    fn deliver(&mut self) -> Result<(), NetError> {
        let Self {
            replicas,
            transport,
            ..
        } = self;
        for replica in replicas.iter_mut() {
            if replica.down {
                // A crashed replica's inbox drains into the void.
                while transport.recv(replica.id).is_some() {}
                continue;
            }
            while let Some(delivery) = transport.recv(replica.id) {
                let (message, _) = decode(&delivery.payload)?;
                if let Some(reply) = replica.respond(delivery.from, message) {
                    transport.send(replica.id, delivery.from, encode(&reply))?;
                }
            }
        }
        Ok(())
    }

    /// The anti-entropy fixpoint: nothing in flight, nothing queued,
    /// every alive↔alive link clean with no offer pending. Links touching
    /// a crashed replica are exempt until it restarts. This is also the
    /// in-loop gossip parking condition: when it holds, a service run
    /// stops scheduling rounds until a publication, read-repair request
    /// or replica restart re-arms the cadence.
    pub fn quiesced(&self) -> bool {
        self.transport.quiet()
            && self.replicas.iter().filter(|r| !r.down).all(|r| {
                r.links
                    .iter()
                    .all(|(peer, l)| self.replicas[*peer as usize].down || l.settled())
            })
    }

    /// Name the link most to blame for a stall: among unsettled
    /// alive↔alive links, the one that re-sent the most unanswered offers
    /// (ties resolve to the lowest `(replica, peer)` pair via
    /// deterministic iteration order). `None` only when every link is
    /// settled — i.e. the stall is in-flight transport traffic. Both
    /// [`ReplicaSet::converge`] and the in-loop service name their
    /// [`NetError::ConvergeTimeout`] culprit with it.
    pub(crate) fn blame(&self) -> Option<ConvergeCulprit> {
        let mut worst: Option<ConvergeCulprit> = None;
        for r in self.replicas.iter().filter(|r| !r.down) {
            for (peer, link) in &r.links {
                if self.replicas[*peer as usize].down || link.settled() {
                    continue;
                }
                if worst.as_ref().is_none_or(|w| link.reoffers > w.reoffers) {
                    worst = Some(ConvergeCulprit {
                        replica: r.id,
                        peer: *peer,
                        reoffers: link.reoffers,
                    });
                }
            }
        }
        worst
    }

    /// One gossip round: an outbound sweep for every alive replica
    /// (digest offers and re-offers), one transport tick, one delivery
    /// sweep. [`ReplicaSet::converge`] repeats it until the set quiesces;
    /// [`ClusterScheduler`](crate::ClusterScheduler) service runs
    /// schedule it on a virtual-time cadence — offer timeouts are
    /// therefore measured in *rounds*, not in service microseconds.
    pub fn gossip_round(&mut self) -> Result<(), NetError> {
        self.pump()?;
        self.deliver_round()
    }

    /// One replica's outbound gossip sweep — digest offers and
    /// re-offers; the per-replica half of a
    /// [`ReplicaSet::gossip_round`], exposed so the in-loop service can
    /// drive one gossip process event per replica on the kernel. A
    /// crashed (or unknown) replica pumps nothing.
    pub(crate) fn pump_replica(&mut self, id: u32) -> Result<(), NetError> {
        if self.replicas.get(id as usize).is_none_or(|r| r.down) {
            return Ok(());
        }
        let now = self.transport.now();
        let down: Vec<bool> = self.replicas.iter().map(|r| r.down).collect();
        let Self {
            replicas,
            transport,
            ..
        } = self;
        let replica = &mut replicas[id as usize];
        let log_rev = replica.log_rev;
        // Hashing every entry is the sweep's main cost, so it waits until
        // some link is due an offer; an idle sweep hashes nothing.
        let mut digests: Option<Vec<ModelDigest>> = None;
        for (peer, link) in replica.links.iter_mut() {
            // A crashed peer's inbox drains into the void: offering to it
            // before it restarts would only count re-offers.
            if down[*peer as usize] {
                continue;
            }
            // Offer when dirty, re-offer when the last one timed out.
            let due = match link.offer {
                Some((deadline, _)) => now >= deadline,
                None => link.dirty,
            };
            if !due {
                continue;
            }
            if link.offer.is_some() {
                link.reoffers += 1;
            }
            link.offer = Some((now + OFFER_TIMEOUT_TICKS, log_rev));
            let digests = digests
                .get_or_insert_with(|| replica.log.values().map(ReplicatedModel::digest).collect());
            let offer = Message::DigestOffer {
                digests: digests.clone(),
            };
            transport.send(id, *peer, encode(&offer))?;
        }
        Ok(())
    }

    /// The delivery half of a gossip round: advance the transport one
    /// tick and drain every inbox. Pairs with [`ReplicaSet::pump_replica`]
    /// sweeps to make one full round.
    pub(crate) fn deliver_round(&mut self) -> Result<(), NetError> {
        self.transport.step();
        self.deliver()
    }

    /// Crash replica `id`: its repository and log are as good as lost
    /// (they are rebuilt empty on restart), every offer outstanding on a
    /// link touching it — both directions — dies with it, and frames
    /// already in flight toward it will drain into the void.
    pub fn crash(&mut self, id: u32) -> Result<(), NetError> {
        let replicas = self.replicas.len();
        if id as usize >= replicas {
            return Err(NetError::UnknownReplica {
                replica: id,
                replicas,
            });
        }
        for replica in self.replicas.iter_mut() {
            let own = replica.id == id;
            replica.down |= own;
            for (peer, link) in replica.links.iter_mut() {
                if own || *peer == id {
                    link.offer = None;
                }
            }
        }
        while self.transport.recv(id).is_some() {}
        if let Some(recorder) = self.recorder {
            recorder.counter_add_at("net.replica_crashes", id, 1);
        }
        Ok(())
    }

    /// Restart a crashed replica: it rejoins with an empty repository
    /// and log, every link born dirty, and catches up
    /// from its peers over the next gossip rounds (its empty offers make
    /// peers push everything back, and every peer's link to it turns
    /// dirty so they re-offer their side too). Only the durable
    /// own-version counter survives, so it can never re-issue a stamp.
    pub fn restart(&mut self, id: u32) -> Result<(), NetError> {
        let replicas = self.replicas.len();
        let Some(replica) = self.replicas.get_mut(id as usize) else {
            return Err(NetError::UnknownReplica {
                replica: id,
                replicas,
            });
        };
        replica.rebuild();
        // Parity a peer confirmed before the crash describes state the
        // replica lost, and an empty reply answering its new empty offer
        // may be a stale one sent before the crash: every peer re-offers.
        for peer in self.replicas.iter_mut() {
            if let Some(link) = peer.links.get_mut(&id) {
                link.dirty = true;
            }
        }
        while self.transport.recv(id).is_some() {}
        if let Some(recorder) = self.recorder {
            recorder.counter_add_at("net.replica_restarts", id, 1);
        }
        Ok(())
    }

    /// Whether replica `id` is currently crashed (unknown ids read as
    /// down).
    pub fn is_down(&self, id: u32) -> bool {
        self.replicas.get(id as usize).is_none_or(|r| r.down)
    }

    /// Whether replica `id` currently holds a replicated entry for the
    /// application.
    pub(crate) fn holds(&self, id: u32, application: &str) -> bool {
        self.replicas
            .get(id as usize)
            .is_some_and(|r| r.log.contains_key(application))
    }

    /// Read-repair candidates for a miss on replica `from`: alive peers
    /// whose log holds the application, in deterministic id order.
    pub(crate) fn repair_candidates(&self, from: u32, application: &str) -> Vec<u32> {
        let Some(requester) = self.replicas.get(from as usize) else {
            return Vec::new();
        };
        if requester.down {
            return Vec::new();
        }
        requester
            .links
            .keys()
            .filter(|peer| {
                let peer = &self.replicas[**peer as usize];
                !peer.down && peer.log.contains_key(application)
            })
            .copied()
            .collect()
    }

    /// Send a targeted read-repair [`Message::PullModels`] from `from`
    /// to `target`. The reply is an ordinary `PushModels` installed on
    /// delivery, so repaired entries then gossip onward like any other
    /// install.
    pub(crate) fn send_pull(
        &mut self,
        from: u32,
        target: u32,
        applications: Vec<String>,
    ) -> Result<(), NetError> {
        let replicas = self.replicas.len();
        for id in [from, target] {
            if id as usize >= replicas {
                return Err(NetError::UnknownReplica {
                    replica: id,
                    replicas,
                });
            }
        }
        self.transport
            .send(from, target, encode(&Message::PullModels { applications }))?;
        Ok(())
    }

    /// Replication counters summed over every replica's lifetime
    /// (crash/restart does not reset them).
    pub fn replication_totals(&self) -> ReplicaStats {
        let mut totals = ReplicaStats::default();
        for r in &self.replicas {
            totals.applied += r.stats.applied;
            totals.superseded += r.stats.superseded;
        }
        totals
    }

    /// Transport counters accumulated over the set's lifetime.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// The current virtual transport tick.
    pub(crate) fn ticks(&self) -> u64 {
        self.transport.now()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    fn bench(name: &str) -> BenchmarkSpec {
        kernels::benchmark(name).expect("catalog benchmark")
    }

    fn model(name: &str, mhz: u32) -> TuningModel {
        TuningModel::new(
            name,
            &[(
                "compute_force".into(),
                simnode::SystemConfig::new(24, mhz, 1500),
            )],
            simnode::SystemConfig::new(24, mhz, 1500),
        )
    }

    fn set(replicas: u32) -> ReplicaSet<'static> {
        ReplicaSet::new(replicas, ReplicaConfig::default())
    }

    #[test]
    fn healthy_pair_converges_a_publication() {
        let mut set = set(2);
        let b = bench("miniMD");
        let stamp = set.replica_mut(0).unwrap().publish_model(
            &b,
            &model("miniMD", 2500),
            vec![("t".into(), 1.0)],
        );
        assert_eq!(
            stamp,
            Stamp {
                version: 1,
                publisher: 0
            }
        );

        let report = set.converge().expect("healthy pair converges");
        assert!(set.converged());
        assert_eq!(report.applied, 1, "replica 1 applied the entry");
        // Both birth-dirty links describe the entry (reply entries one
        // way, offer→want→push the other); the second copy is a
        // superseded no-op, never a double-apply.
        assert!(report.superseded <= 1, "{}", report.superseded);
        assert_eq!(report.reoffers, 0);
        // Offers both ways, their replies, the push, then one parity
        // probe each way and its empty reply: no handshake frames.
        assert_eq!(report.ticks, 4);
        assert_eq!(report.transport.sent, 9);

        // The entry is servable on the *other* replica, marked as
        // replication-applied.
        let served = set
            .replica_mut(1)
            .unwrap()
            .serve(&b)
            .expect("replicated hit");
        assert_eq!(served.source, ModelSource::Replicated);
        assert_eq!(served.model, model("miniMD", 2500));
        let prov = served
            .provenance
            .expect("replicated entries carry provenance");
        assert_eq!(prov.version, 1);

        // A quiesced set has nothing left to do: a second converge sends
        // no frame.
        let sent = set.transport_stats().sent;
        assert_eq!(set.converge().unwrap().ticks, 0);
        assert_eq!(set.transport_stats().sent, sent);
    }

    #[test]
    fn concurrent_first_publishes_resolve_by_publisher_tie_break() {
        let mut set = set(3);
        let b = bench("Lulesh");
        let s0 = set
            .replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("Lulesh", 2500), vec![]);
        let s1 = set
            .replica_mut(1)
            .unwrap()
            .publish_model(&b, &model("Lulesh", 2200), vec![]);
        assert_eq!(
            s0,
            Stamp {
                version: 1,
                publisher: 0
            }
        );
        assert_eq!(
            s1,
            Stamp {
                version: 1,
                publisher: 1
            }
        );

        let report = set.converge().expect("converges despite the conflict");
        assert!(set.converged());
        assert!(
            report.superseded >= 1,
            "the losing entry was offered somewhere"
        );

        // Same version, higher publisher id wins — everywhere, including
        // on the replica that published the loser.
        for id in 0..3 {
            let map = set.replica(id).unwrap().model_map();
            assert_eq!(map["Lulesh"].stamp, s1, "replica {id}");
        }
        let served = set.replica_mut(0).unwrap().serve(&b).unwrap();
        assert_eq!(served.model, model("Lulesh", 2200));
    }

    #[test]
    fn drift_republish_beats_the_previous_winner_everywhere() {
        let mut set = set(3);
        let b = bench("Lulesh");
        set.replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("Lulesh", 2500), vec![]);
        set.replica_mut(1)
            .unwrap()
            .publish_model(&b, &model("Lulesh", 2200), vec![]);
        set.converge().unwrap();

        // Replica 0 re-publishes after drift: it has observed version 1,
        // so the new stamp is (2, 0) — beating (1, 1) by version alone.
        let restamp = set
            .replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("Lulesh", 2700), vec![]);
        assert_eq!(
            restamp,
            Stamp {
                version: 2,
                publisher: 0
            }
        );

        set.converge().expect("second converge");
        assert!(set.converged());
        for id in 0..3 {
            let map = set.replica(id).unwrap().model_map();
            assert_eq!(map["Lulesh"].stamp, restamp, "replica {id}");
        }
        // The publication history kept both stamps, in order.
        assert_eq!(
            set.replica(0).unwrap().published(),
            &[
                (
                    "Lulesh".to_string(),
                    Stamp {
                        version: 1,
                        publisher: 0
                    }
                ),
                (
                    "Lulesh".to_string(),
                    Stamp {
                        version: 2,
                        publisher: 0
                    }
                ),
            ]
        );
    }

    /// Drop, duplicate, delay *and* a healing partition, all at once.
    struct Rough;

    impl crate::inject::FaultInjector for Rough {
        fn delay_ticks(&self, msg_id: u64) -> u64 {
            msg_id % 3
        }
        fn drop_message(&self, msg_id: u64) -> bool {
            msg_id % 7 == 3
        }
        fn duplicate_message(&self, msg_id: u64) -> bool {
            msg_id % 5 == 1
        }
        fn partitioned(&self, tick: u64, from: u32, to: u32) -> bool {
            tick < 6 && (from.min(to), from.max(to)) == (0, 1)
        }
    }

    fn faulted_maps() -> (Vec<BTreeMap<String, ModelDigest>>, ConvergeReport) {
        let mut set = ReplicaSet::new(4, ReplicaConfig::default()).with_faults(&Rough);
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        set.replica_mut(2)
            .unwrap()
            .publish_model(&bench("Lulesh"), &model("Lulesh", 2300), vec![]);
        let report = set.converge().expect("faults delay but cannot stop sync");
        assert!(set.converged());
        (
            (0..4)
                .map(|id| set.replica(id).unwrap().model_map())
                .collect(),
            report,
        )
    }

    #[test]
    fn faulted_convergence_is_deterministic_across_reruns() {
        let (maps_a, report_a) = faulted_maps();
        let (maps_b, report_b) = faulted_maps();
        assert_eq!(maps_a, maps_b, "same faults, same outcome, bit for bit");
        assert_eq!(report_a, report_b, "even the tick-level accounting");
        assert!(maps_a.iter().all(|m| m.len() == 2));
        let stats = report_a.transport;
        assert!(stats.dropped > 0 || stats.partitioned > 0, "faults fired");
        assert!(stats.duplicated > 0);
    }

    #[test]
    fn unknown_replica_is_an_error() {
        let mut s = set(2);
        assert!(matches!(
            s.replica(9),
            Err(NetError::UnknownReplica {
                replica: 9,
                replicas: 2
            })
        ));
        assert!(s.replica_mut(2).is_err());
        assert!(s.crash(9).is_err());
        assert!(s.restart(9).is_err());
        assert!(s.send_pull(0, 9, vec![]).is_err());
        assert!(s.is_down(9), "unknown ids read as down");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    /// A partition that never heals: convergence must fail loudly.
    struct Wall;

    impl crate::inject::FaultInjector for Wall {
        fn partitioned(&self, _tick: u64, from: u32, to: u32) -> bool {
            (from.min(to), from.max(to)) == (0, 1)
        }
    }

    #[test]
    fn permanent_partition_times_out_instead_of_hanging() {
        let config = ReplicaConfig {
            max_ticks: 256,
            ..ReplicaConfig::default()
        };
        let mut set = ReplicaSet::new(2, config).with_faults(&Wall);
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        let err = set.converge().expect_err("no path between the replicas");
        assert!(matches!(
            err,
            NetError::ConvergeTimeout {
                ticks: 256,
                culprit: Some(_)
            }
        ));
    }

    /// Every frame is dropped — the hostile plan that would burn the
    /// whole tick budget in silent re-offers without a named culprit.
    struct DropEverything;

    impl crate::inject::FaultInjector for DropEverything {
        fn drop_message(&self, _msg_id: u64) -> bool {
            true
        }
    }

    #[test]
    fn unanswered_offers_name_the_culprit_link() {
        let config = ReplicaConfig {
            max_ticks: 200,
            ..ReplicaConfig::default()
        };
        let mut set = ReplicaSet::new(2, config).with_faults(&DropEverything);
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        let err = set.converge().expect_err("every frame is dropped");
        let NetError::ConvergeTimeout { ticks, culprit } = err else {
            panic!("expected a converge timeout, got {err:?}");
        };
        assert_eq!(ticks, 200);
        let culprit = culprit.expect("a stalled link is named, not a silent spin");
        assert_eq!(
            (culprit.replica, culprit.peer),
            (0, 1),
            "ties resolve to the lowest link deterministically"
        );
        assert!(
            culprit.reoffers >= 1,
            "the link demonstrably re-sent unanswered offers: {culprit}"
        );
    }

    #[test]
    fn install_between_offer_snapshot_and_reply_keeps_the_link_dirty() {
        let mut set = set(2);
        let budget = 1_000;
        // Reach the synced fixpoint so the next offer is a pure parity
        // probe (empty digests, empty reply).
        while !set.quiesced() {
            assert!(set.transport.now() < budget, "setup sync stalled");
            set.pump().unwrap();
            set.transport.step();
            set.deliver().unwrap();
        }
        // Force a parity probe on 0 → 1; its offer snapshots the current
        // log revision and departs.
        set.replicas[0].links.get_mut(&1).unwrap().dirty = true;
        set.pump().unwrap();
        let offered_rev = set.replicas[0].links[&1]
            .offer
            .expect("offer outstanding")
            .1;
        assert_eq!(offered_rev, set.replicas[0].log_rev);
        // An install lands *between* the snapshot and the reply — the
        // interleaving in-loop gossip produces whenever a job publishes
        // at the same virtual instant a round is in flight.
        set.replicas[0].publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        assert!(set.replicas[0].log_rev > offered_rev);
        // Deliver the stale (empty, rev-matched-to-the-old-revision)
        // reply without pumping anything new out.
        while set.replicas[0].links[&1].offer.is_some() {
            assert!(set.transport.now() < budget, "reply never arrived");
            set.transport.step();
            set.deliver().unwrap();
        }
        assert!(
            set.replicas[0].links[&1].dirty,
            "a stale parity confirmation must not clear the dirty flag"
        );
        // And the raced entry still propagates on the next rounds.
        while !set.quiesced() {
            assert!(set.transport.now() < budget, "post-race sync stalled");
            set.pump().unwrap();
            set.transport.step();
            set.deliver().unwrap();
        }
        assert!(set.converged());
        assert!(set.holds(1, "miniMD"), "the entry was not stranded");
    }

    /// Aggressive duplication and per-message delay: digest offers and
    /// replies get redelivered long after their exchange completed.
    struct DupDelay;

    impl crate::inject::FaultInjector for DupDelay {
        fn delay_ticks(&self, msg_id: u64) -> u64 {
            msg_id % 5
        }
        fn duplicate_message(&self, msg_id: u64) -> bool {
            msg_id.is_multiple_of(2)
        }
    }

    /// A crash mid-sync forgets every offer touching the replica while
    /// frames of the old exchanges are still in flight; their duplicated,
    /// delayed answers arrive after the restart and must not stop the
    /// set from converging.
    #[test]
    fn duplicated_delayed_frames_across_a_crash_cannot_corrupt_sessions() {
        let run = || {
            let mut set = ReplicaSet::new(3, ReplicaConfig::default()).with_faults(&DupDelay);
            set.replica_mut(0).unwrap().publish_model(
                &bench("miniMD"),
                &model("miniMD", 2500),
                vec![],
            );
            for _ in 0..3 {
                set.gossip_round().unwrap();
            }
            assert!(!set.transport.quiet(), "pre-crash frames in flight");
            set.crash(1).unwrap();
            set.gossip_round().unwrap();
            set.restart(1).unwrap();
            let report = set.converge().expect("stale frames cannot stop sync");
            assert!(set.quiesced(), "every live link settled");
            assert!(set.converged());
            assert!(set.holds(1, "miniMD"), "the restarted replica caught up");
            report
        };
        let report = run();
        assert_eq!(report, run(), "bit-identical across reruns");
        assert!(report.transport.duplicated > 0, "duplicates fired");
    }

    /// Delays one message and drops another, each picked by id once the
    /// test knows which ids its exchange uses (`u64::MAX`: none).
    struct Staged {
        delayed: AtomicU64,
        dropped: AtomicU64,
    }

    impl crate::inject::FaultInjector for Staged {
        fn delay_ticks(&self, msg_id: u64) -> u64 {
            if msg_id == self.delayed.load(Ordering::Relaxed) {
                6
            } else {
                0
            }
        }
        fn drop_message(&self, msg_id: u64) -> bool {
            msg_id == self.dropped.load(Ordering::Relaxed)
        }
    }

    /// A stale empty reply from before a crash answers the restarted
    /// replica's new empty offer while the real answer is lost: the
    /// restarted side sees "parity", so only the peers' re-offers that
    /// `restart` forces can bring it back in sync.
    #[test]
    fn restart_makes_peers_reoffer_past_a_stale_parity_reply() {
        let faults = Staged {
            delayed: AtomicU64::new(u64::MAX),
            dropped: AtomicU64::new(u64::MAX),
        };
        let mut set = ReplicaSet::new(2, ReplicaConfig::default()).with_faults(&faults);
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        set.converge().expect("healthy pair converges");
        assert!(set.holds(1, "miniMD"));

        // Replica 1 sends a parity probe (message id `probe`); replica
        // 0's empty reply, the next id, is held back six extra ticks.
        let probe = set.transport_stats().sent;
        faults.delayed.store(probe + 1, Ordering::Relaxed);
        set.replicas[1].links.get_mut(&0).unwrap().dirty = true;
        set.pump_replica(1).unwrap();
        set.deliver_round().unwrap();
        assert_eq!(set.transport_stats().sent, probe + 2, "probe and reply");

        set.crash(1).unwrap();
        set.restart(1).unwrap();
        // The restarted replica's empty offer is answered with the entry;
        // that answer is lost.
        let offer = set.transport_stats().sent;
        faults.dropped.store(offer + 1, Ordering::Relaxed);
        set.pump_replica(1).unwrap();
        set.deliver_round().unwrap();
        assert_eq!(set.transport_stats().dropped, 1, "the real answer");

        // The delayed pre-crash reply now confirms "parity" on 1 -> 0.
        set.converge().expect("the pair quiesces");
        assert!(set.converged(), "replica 0 re-offered after the restart");
        assert!(set.holds(1, "miniMD"));
    }

    #[test]
    fn crash_and_restart_catches_up_from_peers() {
        let mut set = set(3);
        let sync = |set: &mut ReplicaSet<'_>| {
            let deadline = set.ticks() + 2_000;
            while !set.quiesced() {
                assert!(set.ticks() < deadline, "gossip rounds stalled");
                set.gossip_round().unwrap();
            }
        };
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("miniMD"), &model("miniMD", 2500), vec![]);
        sync(&mut set);
        assert!(set.holds(1, "miniMD"));

        set.crash(1).unwrap();
        assert!(set.is_down(1));
        // Publications keep flowing among the survivors.
        set.replica_mut(0)
            .unwrap()
            .publish_model(&bench("Lulesh"), &model("Lulesh", 2300), vec![]);
        sync(&mut set);
        assert!(set.holds(2, "Lulesh"));
        assert!(!set.holds(1, "Lulesh"), "a crashed replica learns nothing");

        set.restart(1).unwrap();
        assert!(!set.is_down(1));
        assert!(!set.holds(1, "miniMD"), "a restarted replica rejoins empty");
        sync(&mut set);
        assert!(set.converged(), "catch-up replayed both entries");
        assert!(set.holds(1, "miniMD") && set.holds(1, "Lulesh"));
        let served = set
            .replica_mut(1)
            .unwrap()
            .serve(&bench("miniMD"))
            .expect("served after catch-up");
        assert_eq!(served.source, ModelSource::Replicated);
    }

    #[test]
    fn restarted_replica_never_reissues_a_stamp() {
        let mut set = set(2);
        let b = bench("miniMD");
        let first = set
            .replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("miniMD", 2500), vec![]);
        let deadline = 2_000;
        while !set.quiesced() {
            assert!(set.ticks() < deadline);
            set.gossip_round().unwrap();
        }
        set.crash(0).unwrap();
        set.restart(0).unwrap();
        // Republish *before* catch-up: the log is empty, but
        // the durable own-version counter still forbids stamp reuse.
        let second = set
            .replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("miniMD", 2700), vec![]);
        assert!(
            second.version > first.version,
            "{second:?} must beat {first:?}"
        );
        while !set.quiesced() {
            assert!(set.ticks() < deadline);
            set.gossip_round().unwrap();
        }
        assert!(set.converged());
        for id in 0..2 {
            assert_eq!(set.replica(id).unwrap().model_map()["miniMD"].stamp, second);
        }
    }

    #[test]
    fn pull_models_repairs_a_miss_without_a_gossip_round() {
        let mut set = set(2);
        // Settle the pair over empty logs.
        let deadline = 2_000;
        while !set.quiesced() {
            assert!(set.ticks() < deadline);
            set.gossip_round().unwrap();
        }
        let b = bench("miniMD");
        set.replica_mut(0)
            .unwrap()
            .publish_model(&b, &model("miniMD", 2500), vec![]);
        // Replica 1 misses; its live peer 0 holds the entry.
        assert_eq!(set.repair_candidates(1, "miniMD"), vec![0]);
        assert!(set.repair_candidates(1, "nonexistent").is_empty());
        set.send_pull(1, 0, vec!["miniMD".into()]).unwrap();
        // Transport ticks only — no pump, so nothing but the pull/push
        // pair can move the entry.
        for _ in 0..4 {
            set.transport.step();
            set.deliver().unwrap();
        }
        assert!(
            set.holds(1, "miniMD"),
            "the targeted pull repaired the miss"
        );
        let served = set.replica_mut(1).unwrap().serve(&b).expect("repaired hit");
        assert_eq!(served.source, ModelSource::Replicated);
    }

    #[test]
    fn repository_handle_surface_works_on_a_replica() {
        let config = ReplicaConfig {
            fallback: Some(simnode::SystemConfig::new(24, 2400, 1700)),
            ..ReplicaConfig::default()
        };
        let mut set = ReplicaSet::new(1, config);
        let replica = set.replica_mut(0).unwrap();
        let b = bench("miniMD");

        // Miss → fallback; publish through the handle; then a hit.
        let served = RepositoryHandle::serve(replica, &b).expect("fallback");
        assert_eq!(served.source, ModelSource::Fallback);
        assert!(RepositoryHandle::serve_stored(replica, &b)
            .unwrap()
            .is_none());
        let version = RepositoryHandle::publish_online(replica, &b, &model("miniMD", 2500), vec![]);
        assert_eq!(version, 1);
        let served = RepositoryHandle::serve_stored(replica, &b)
            .unwrap()
            .expect("hit");
        assert_eq!(
            served.source,
            ModelSource::Online,
            "local publications stay local-sourced"
        );
        let stats = RepositoryHandle::stats(replica);
        assert_eq!(stats.publications, 1);
        assert_eq!(replica.id(), 0);
        assert!(replica.repository().stats().publications == 1);
    }

    #[test]
    fn replica_capacity_is_one_lru_bound_per_replica() {
        // The two names hash into the same bucket mod 4: a capacity split
        // into four per-application-hash slices of one entry each would
        // evict the first model when the second arrives.
        assert_eq!(
            kernels::fnv1a(b"Lulesh") % 4,
            kernels::fnv1a(b"Amg2013") % 4
        );
        let config = ReplicaConfig {
            capacity: 2,
            ..ReplicaConfig::default()
        };
        let mut set = ReplicaSet::new(1, config);
        let replica = set.replica_mut(0).unwrap();
        for name in ["Lulesh", "Amg2013"] {
            replica.publish_model(&bench(name), &model(name, 2500), vec![]);
        }
        for name in ["Lulesh", "Amg2013"] {
            let served = RepositoryHandle::serve_stored(replica, &bench(name)).unwrap();
            assert!(served.is_some(), "{name} evicted under capacity 2");
        }
        let stats = RepositoryHandle::stats(replica);
        assert_eq!((stats.hits, stats.evictions), (2, 0));
    }
}
