//! The federation simulator: four capability registries gossiping over
//! the simulated OSDC WAN, with delay-tolerant queues for partitions.
//!
//! [`SharingSim`] couples one [`Registry`] per data center to the DES
//! kernel. Gossip rounds fire on the virtual clock (staggered per data
//! center), messages travel at one-way WAN latency, and when
//! `osdc-chaos`-style partition windows take a site's StarLight links
//! down, outbound messages park in a delay-tolerant (DTN) queue and
//! re-disseminate the moment the partition heals — the federation-wide
//! state dissemination pattern of the OSDF operations story.
//!
//! The metadata plane (grants, revocations, digests) is what this DES
//! models. The *data* plane for `Copy`/`Transfer` capabilities rides the
//! existing `osdc-transfer` sessions: [`SharingSim::copy_to`] runs a UDR
//! session over the current WAN state (partitions included) and reports
//! the paper's throughput metrics, exactly like the Table 3 harness.

use std::collections::VecDeque;

use osdc_crypto::{Keyring, SigningKey};
use osdc_net::fluid::FluidNet;
use osdc_net::topology::NodeId;
use osdc_net::wan::{osdc_wan, OsdcSite, OsdcWan};
use osdc_sim::{derive_seed, Engine, Scheduler, SimDuration, SimRng, SimTime, Simulation};
use osdc_telemetry::{audit, Telemetry};
use osdc_transfer::{Protocol, TransferEngine, TransferError, TransferReport, TransferSpec};

use crate::capability::{Action, CapabilityId, DcId, TrustLevel};
use crate::gossip::{sample_peer, GossipMessage};
use crate::registry::Registry;

/// The capability-bearing sites, indexed by [`DcId`]. StarLight is the
/// hub every inter-site path crosses; it stores nothing.
pub const SITES: [OsdcSite; DcId::COUNT] = [
    OsdcSite::ChicagoKenwood,
    OsdcSite::ChicagoLakeshore,
    OsdcSite::Lvoc,
    OsdcSite::AmpathMiami,
];

/// A partition window: `site` loses its StarLight links at `at_secs`
/// for `duration_secs` (the sharing-layer projection of an
/// `osdc-chaos` `LinkDown`/`LinkFlap` fault).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionEvent {
    pub at_secs: f64,
    pub duration_secs: f64,
    pub site: OsdcSite,
}

impl PartitionEvent {
    pub fn at(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.at_secs)
    }

    pub fn until(&self) -> SimTime {
        self.at() + SimDuration::from_secs_f64(self.duration_secs)
    }
}

/// Knobs for a federation run. Everything is derived from `seed`.
#[derive(Clone, Copy, Debug)]
pub struct SharingConfig {
    pub seed: u64,
    /// Residual long-haul loss (the Table 3 calibration knob).
    pub long_haul_loss: f64,
    /// Anti-entropy round period per data center.
    pub round_interval: SimDuration,
}

impl SharingConfig {
    pub fn new(seed: u64) -> Self {
        SharingConfig {
            seed,
            long_haul_loss: 1.2e-7,
            round_interval: SimDuration::from_secs(30),
        }
    }
}

/// Why a sharing-layer operation was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum ShareError {
    /// No live capability covers the request at this data center's
    /// current knowledge.
    Denied {
        grantee: String,
        path: String,
        action: Action,
    },
    /// The data already lives at the requesting data center.
    AlreadyLocal,
    /// The materializing transfer failed (partitioned WAN, deadline).
    Transfer(TransferError),
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::Denied {
                grantee,
                path,
                action,
            } => write!(f, "{grantee} may not {} {path}", action.label()),
            ShareError::AlreadyLocal => write!(f, "data already local"),
            ShareError::Transfer(e) => write!(f, "materialization failed: {e}"),
        }
    }
}

impl std::error::Error for ShareError {}

/// DES events of the metadata plane.
#[derive(Clone, Debug)]
pub enum Event {
    /// A data center opens an anti-entropy round.
    Round {
        dc: DcId,
    },
    /// A gossip datagram arrives.
    Deliver {
        to: DcId,
        msg: GossipMessage,
    },
    /// Partition window `idx` begins / ends.
    PartitionStart {
        idx: usize,
    },
    PartitionEnd {
        idx: usize,
    },
}

/// Aggregate outcome of a federation run (the `exp_sharing` row).
#[derive(Clone, Debug, Default)]
pub struct SharingReport {
    pub grants: u64,
    pub revokes: u64,
    pub rounds: u64,
    pub messages_delivered: u64,
    pub messages_buffered: u64,
    pub dtn_flushed: u64,
    pub records_converged: u64,
    pub convergence_p50_secs: f64,
    pub convergence_max_secs: f64,
    pub converged: bool,
    pub checks_allowed: u64,
    pub checks_denied: u64,
    pub copies: u64,
    /// Copy materializations that returned a typed [`ShareError`]
    /// (capability denied at enforcement time, or the UDR session
    /// failed) instead of completing. A revocation or partition racing a
    /// copy lands here, never in a panic.
    pub copies_failed: u64,
    pub bytes_copied: u64,
    /// Revoked or expired capabilities still granting anywhere. The
    /// acceptance bar: zero, always.
    pub safety_violations: u64,
}

struct World {
    wan: OsdcWan,
    registries: Vec<Registry>,
    keys: Vec<SigningKey>,
    ring: Keyring,
    rngs: Vec<SimRng>,
    round_interval: SimDuration,
    partitions: Vec<PartitionEvent>,
    /// Active partition depth per site (windows may nest).
    cut_depth: [u32; 5],
    /// Delay-tolerant queue: messages that could not be routed, in send
    /// order. Flushed when partitions heal.
    dtn: VecDeque<(DcId, DcId, GossipMessage)>,
    tele: Telemetry,
    /// (origin, seq) → (mint time, bitmask of data centers holding it).
    spread: std::collections::BTreeMap<(u8, u32), (SimTime, u8)>,
    convergence_secs: Vec<f64>,
    grants: u64,
    revokes: u64,
    rounds: u64,
    messages_delivered: u64,
    messages_buffered: u64,
    dtn_flushed: u64,
    checks_allowed: u64,
    checks_denied: u64,
    copies: u64,
    copies_failed: u64,
    bytes_copied: u64,
}

impl World {
    fn node(&self, dc: DcId) -> NodeId {
        self.wan.node(SITES[dc.index()])
    }

    fn hub(&self) -> NodeId {
        self.wan.node(OsdcSite::StarLight)
    }

    /// One-way latency, or `None` while partitioned.
    fn one_way(&self, from: DcId, to: DcId) -> Option<SimDuration> {
        self.wan
            .topology
            .rtt(self.node(from), self.node(to))
            .map(|rtt| rtt.mul_f64(0.5))
    }

    fn send(&mut self, from: DcId, to: DcId, msg: GossipMessage, sched: &mut Scheduler<Event>) {
        match self.one_way(from, to) {
            Some(delay) => {
                self.tele.incr(self.tele.counter("sharing.gossip_sent"));
                sched.after(delay, Event::Deliver { to, msg });
            }
            None => {
                self.messages_buffered += 1;
                self.tele.incr(self.tele.counter("sharing.dtn_buffered"));
                // Anti-entropy requests supersede older ones from the
                // same pair — a digest is a summary, not a delta, so
                // only the newest matters. Responses/pushes all keep.
                if matches!(msg, GossipMessage::SyncRequest { .. }) {
                    self.dtn.retain(|(f, t, m)| {
                        !(*f == from && *t == to && matches!(m, GossipMessage::SyncRequest { .. }))
                    });
                }
                self.dtn.push_back((from, to, msg));
            }
        }
    }

    /// Re-disseminate every parked message whose route is back.
    fn flush_dtn(&mut self, sched: &mut Scheduler<Event>) {
        let mut kept = VecDeque::new();
        while let Some((from, to, msg)) = self.dtn.pop_front() {
            match self.one_way(from, to) {
                Some(delay) => {
                    self.dtn_flushed += 1;
                    self.tele.incr(self.tele.counter("sharing.dtn_flushed"));
                    sched.after(delay, Event::Deliver { to, msg });
                }
                None => kept.push_back((from, to, msg)),
            }
        }
        self.dtn = kept;
    }

    fn set_site_links(&mut self, site: OsdcSite, up: bool) {
        let a = self.wan.node(site);
        let hub = self.hub();
        for link in self.wan.topology.links_between(a, hub) {
            self.wan.topology.set_link_up(link, up);
        }
    }

    /// Integrate a gossip batch at `to`, then advance the convergence
    /// bookkeeping for every record `to` now holds.
    fn integrate_tracked(&mut self, to: DcId, batch: &[crate::registry::WireRecord], now: SimTime) {
        let outcome = self.registries[to.index()].integrate(batch, &self.ring);
        self.tele.add(
            self.tele.counter("sharing.records_applied"),
            outcome.applied as u64,
        );
        if outcome.rejected > 0 {
            self.tele.add(
                self.tele.counter("sharing.records_rejected"),
                outcome.rejected as u64,
            );
        }
        let version = self.registries[to.index()].version();
        for wire in batch {
            if wire.seq < version.0[wire.origin.index()] {
                self.mark_seen(wire.origin, wire.seq, to, now);
            }
        }
    }

    fn mark_seen(&mut self, origin: DcId, seq: u32, at: DcId, now: SimTime) {
        let full: u8 = (1 << DcId::COUNT) - 1;
        if let Some((minted, mask)) = self.spread.get_mut(&(origin.0, seq)) {
            *mask |= 1 << at.0;
            if *mask == full {
                let latency = now.saturating_since(*minted).as_secs_f64();
                self.convergence_secs.push(latency);
                self.tele
                    .observe(self.tele.histogram("sharing.convergence_secs"), latency);
                let minted = *minted;
                self.spread.remove(&(origin.0, seq));
                audit::check!(
                    minted <= now,
                    "sharing.convergence_causal",
                    "record {origin}/{seq} converged before it was minted"
                );
            }
        }
    }
}

impl Simulation for World {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::Round { dc } => {
                self.rounds += 1;
                let peer = sample_peer(&mut self.rngs[dc.index()], dc);
                let digest = self.registries[dc.index()].version();
                self.send(
                    dc,
                    peer,
                    GossipMessage::SyncRequest { from: dc, digest },
                    sched,
                );
                sched.after(self.round_interval, Event::Round { dc });
            }
            Event::Deliver { to, msg } => {
                self.messages_delivered += 1;
                self.tele
                    .incr(self.tele.counter("sharing.gossip_delivered"));
                match msg {
                    GossipMessage::SyncRequest { from, digest } => {
                        let records = self.registries[to.index()].missing_for(&digest);
                        let my_digest = self.registries[to.index()].version();
                        self.send(
                            to,
                            from,
                            GossipMessage::SyncResponse {
                                from: to,
                                digest: my_digest,
                                records,
                            },
                            sched,
                        );
                    }
                    GossipMessage::SyncResponse {
                        from,
                        digest,
                        records,
                    } => {
                        self.integrate_tracked(to, &records, now);
                        let push = self.registries[to.index()].missing_for(&digest);
                        if !push.is_empty() {
                            self.send(
                                to,
                                from,
                                GossipMessage::SyncPush {
                                    from: to,
                                    records: push,
                                },
                                sched,
                            );
                        }
                    }
                    GossipMessage::SyncPush { records, .. } => {
                        self.integrate_tracked(to, &records, now);
                    }
                }
            }
            Event::PartitionStart { idx } => {
                let site = self.partitions[idx].site;
                let depth = &mut self.cut_depth[site as usize];
                *depth += 1;
                if *depth == 1 {
                    self.set_site_links(site, false);
                    self.tele.incr(self.tele.counter("sharing.partitions"));
                }
            }
            Event::PartitionEnd { idx } => {
                let site = self.partitions[idx].site;
                let depth = &mut self.cut_depth[site as usize];
                *depth = depth.saturating_sub(1);
                if *depth == 0 {
                    self.set_site_links(site, true);
                    self.flush_dtn(sched);
                }
            }
        }
    }
}

/// The federation: engine + world, with an imperative control surface
/// for harnesses, oracles and examples.
pub struct SharingSim {
    engine: Engine<Event>,
    world: World,
    seed: u64,
    long_haul_loss: f64,
    transfer_count: u64,
}

impl SharingSim {
    pub fn new(cfg: SharingConfig) -> Self {
        let mut ring = Keyring::new();
        let keys: Vec<SigningKey> = DcId::ALL
            .iter()
            .map(|dc| {
                let key = SigningKey::from_seed(derive_seed(cfg.seed, 0x5109 + dc.0 as u64));
                ring.register(&key);
                key
            })
            .collect();
        let world = World {
            wan: osdc_wan(cfg.long_haul_loss),
            registries: DcId::ALL.iter().map(|&dc| Registry::new(dc)).collect(),
            keys,
            ring,
            rngs: DcId::ALL
                .iter()
                .map(|dc| SimRng::new(derive_seed(cfg.seed, 0x905519 + dc.0 as u64)))
                .collect(),
            round_interval: cfg.round_interval,
            partitions: Vec::new(),
            cut_depth: [0; 5],
            dtn: VecDeque::new(),
            tele: Telemetry::disabled(),
            spread: std::collections::BTreeMap::new(),
            convergence_secs: Vec::new(),
            grants: 0,
            revokes: 0,
            rounds: 0,
            messages_delivered: 0,
            messages_buffered: 0,
            dtn_flushed: 0,
            checks_allowed: 0,
            checks_denied: 0,
            copies: 0,
            copies_failed: 0,
            bytes_copied: 0,
        };
        let mut engine = Engine::new();
        // Stagger first rounds so the four data centers never gossip in
        // lockstep: dc k opens at (k+1)/4 of one interval.
        for dc in DcId::ALL {
            let first = SimDuration(cfg.round_interval.0 * (dc.0 as u64 + 1) / DcId::COUNT as u64);
            engine.schedule(SimTime::ZERO + first, Event::Round { dc });
        }
        SharingSim {
            engine,
            world,
            seed: cfg.seed,
            long_haul_loss: cfg.long_haul_loss,
            transfer_count: 0,
        }
    }

    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.world.tele = tele;
    }

    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    pub fn keyring(&self) -> &Keyring {
        &self.world.ring
    }

    pub fn registry(&self, dc: DcId) -> &Registry {
        &self.world.registries[dc.index()]
    }

    /// Schedule partition windows (idempotent per call; windows may
    /// overlap and nest).
    pub fn apply_partitions(&mut self, schedule: &[PartitionEvent]) {
        for ev in schedule {
            let idx = self.world.partitions.len();
            self.world.partitions.push(*ev);
            self.engine.schedule(ev.at(), Event::PartitionStart { idx });
            self.engine
                .schedule(ev.until(), Event::PartitionEnd { idx });
        }
    }

    /// Mint a grant at `origin`, effective immediately there and
    /// everywhere else once gossip carries it.
    pub fn grant(
        &mut self,
        origin: DcId,
        grantee: &str,
        path: &str,
        level: TrustLevel,
    ) -> CapabilityId {
        let now = self.engine.now();
        let id = self.world.registries[origin.index()].grant(
            grantee,
            path,
            level,
            now,
            &self.world.keys[origin.index()],
        );
        self.world.grants += 1;
        self.world
            .tele
            .incr(self.world.tele.counter("sharing.grants"));
        self.world
            .spread
            .insert((origin.0, id.seq), (now, 1 << origin.0));
        id
    }

    /// Issue a revocation from `issuer` (any data center that has heard
    /// of the capability). Returns false when `issuer` has not.
    pub fn revoke(&mut self, issuer: DcId, id: CapabilityId) -> bool {
        let now = self.engine.now();
        let done =
            self.world.registries[issuer.index()].revoke(id, now, &self.world.keys[issuer.index()]);
        if done {
            self.world.revokes += 1;
            self.world
                .tele
                .incr(self.world.tele.counter("sharing.revokes"));
            let seq = self.world.registries[issuer.index()].version().0[issuer.index()] - 1;
            self.world
                .spread
                .insert((issuer.0, seq), (now, 1 << issuer.0));
        }
        done
    }

    /// The who-can-do-what check under `dc`'s current knowledge.
    pub fn check(
        &mut self,
        dc: DcId,
        grantee: &str,
        path: &str,
        action: Action,
    ) -> Option<CapabilityId> {
        let now = self.engine.now();
        let hit = self.world.registries[dc.index()].check(grantee, path, action, now);
        if hit.is_some() {
            self.world.checks_allowed += 1;
            self.world
                .tele
                .incr(self.world.tele.counter("sharing.checks_allowed"));
        } else {
            self.world.checks_denied += 1;
            self.world
                .tele
                .incr(self.world.tele.counter("sharing.checks_denied"));
        }
        hit
    }

    /// Advance virtual time by `d`, processing gossip and partitions.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime {
        let until = self.engine.now() + d;
        self.engine.run_until(&mut self.world, until)
    }

    /// Advance to an absolute time (no-op when already past it).
    pub fn run_until_time(&mut self, t: SimTime) -> SimTime {
        if t <= self.engine.now() {
            return self.engine.now();
        }
        self.engine.run_until(&mut self.world, t)
    }

    /// All four replicas agree (identical version vectors)?
    pub fn converged(&self) -> bool {
        let v0 = self.world.registries[0].version();
        self.world.registries.iter().all(|r| r.version() == v0)
    }

    /// Run anti-entropy rounds until replicas agree and the DTN queue is
    /// empty, up to `max_rounds` intervals. Returns whether quiescence
    /// was reached (it cannot be while a partition window is open).
    pub fn quiesce(&mut self, max_rounds: u32) -> bool {
        for _ in 0..max_rounds {
            if self.converged() && self.world.dtn.is_empty() {
                return true;
            }
            self.run_for(self.world.round_interval);
        }
        self.converged() && self.world.dtn.is_empty()
    }

    /// Materialize shared data at `at`: enforce the capability under
    /// `at`'s current knowledge, then run a UDR session from the origin
    /// data center over the WAN as it stands (partitions included).
    pub fn copy_to(
        &mut self,
        at: DcId,
        grantee: &str,
        path: &str,
        bytes: u64,
    ) -> Result<TransferReport, ShareError> {
        let now = self.engine.now();
        let checked = self.world.registries[at.index()].check(grantee, path, Action::Copy, now);
        let cap_id = match checked {
            Some(id) => id,
            // A revocation (or a lend expiry) that raced the copy: the
            // caller gets the typed error and the scorecard counts it.
            None => {
                self.count_copy_failure();
                return Err(ShareError::Denied {
                    grantee: grantee.to_string(),
                    path: path.to_string(),
                    action: Action::Copy,
                });
            }
        };
        let src = cap_id.origin;
        if src == at {
            return Err(ShareError::AlreadyLocal);
        }
        // A fresh fluid net seeded from the sim seed, with the current
        // partition state projected onto it.
        let mut wan = osdc_wan(self.long_haul_loss);
        for (site_idx, depth) in self.world.cut_depth.iter().enumerate() {
            if *depth > 0 {
                let site = OsdcSite::ALL[site_idx];
                let a = wan.node(site);
                let hub = wan.node(OsdcSite::StarLight);
                for link in wan.topology.links_between(a, hub) {
                    wan.topology.set_link_up(link, false);
                }
            }
        }
        let spec = TransferSpec {
            protocol: Protocol::Udr,
            cipher: osdc_crypto::CipherKind::None,
            bytes,
            files: 1,
            src: wan.node(SITES[src.index()]),
            dst: wan.node(SITES[at.index()]),
        };
        self.transfer_count += 1;
        let net = FluidNet::new(
            wan.topology,
            derive_seed(self.seed, 0xc09 + self.transfer_count),
        );
        let mut engine = TransferEngine::new(net);
        engine.set_telemetry(self.world.tele.clone());
        let report = match engine.try_run(&spec, SimDuration::from_hours(24)) {
            Ok(report) => report,
            // The WAN as partitioned right now could not carry the
            // session: counted, not fatal.
            Err(e) => {
                self.count_copy_failure();
                return Err(ShareError::Transfer(e));
            }
        };
        self.world.copies += 1;
        self.world.bytes_copied += bytes;
        self.world
            .tele
            .add(self.world.tele.counter("sharing.bytes_copied"), bytes);
        Ok(report)
    }

    fn count_copy_failure(&mut self) {
        self.world.copies_failed += 1;
        self.world
            .tele
            .add(self.world.tele.counter("sharing.copies_failed"), 1);
    }

    /// Count revoked-or-expired capabilities still granting anywhere, at
    /// the current instant: each (replica, dead capability, action)
    /// whose replica's [`Registry::check`] on the capability's own path
    /// returns that capability. The acceptance bar is zero at all times;
    /// this is the scorecard half of the audit story (the differential
    /// oracle in `osdc-audit` re-checks against a flat model).
    ///
    /// One pass over each replica's capabilities. `check` is called only
    /// where `check`'s own filter (`Registry::admits`) accepts the dead
    /// capability, since `check` cannot return one it refuses, so the
    /// count is exactly that of calling `check` for every dead
    /// capability and action. A dead capability never passes the
    /// filter, so a healthy registry costs no `check` walk at all.
    pub fn safety_violations(&self) -> u64 {
        let now = self.engine.now();
        let mut violations = 0;
        for registry in &self.world.registries {
            for cap in registry.capabilities() {
                let dead = registry.is_revoked(cap.id) || cap.level.expired(now);
                if !dead {
                    continue;
                }
                for action in Action::ALL {
                    if registry.admits(cap, &cap.path, action, now)
                        && registry.check(&cap.grantee, &cap.path, action, now) == Some(cap.id)
                    {
                        violations += 1;
                    }
                }
            }
        }
        violations
    }

    pub fn report(&self) -> SharingReport {
        let mut latencies = self.world.convergence_secs.clone();
        // total_cmp, not partial_cmp().expect(): a NaN latency (e.g. a
        // poisoned clock delta) must not panic the scorecard. NaNs sort
        // last under the IEEE total order, so p50/max stay meaningful.
        latencies.sort_by(f64::total_cmp);
        let p50 = if latencies.is_empty() {
            0.0
        } else {
            latencies[latencies.len() / 2]
        };
        let max = latencies.last().copied().unwrap_or(0.0);
        SharingReport {
            grants: self.world.grants,
            revokes: self.world.revokes,
            rounds: self.world.rounds,
            messages_delivered: self.world.messages_delivered,
            messages_buffered: self.world.messages_buffered,
            dtn_flushed: self.world.dtn_flushed,
            records_converged: latencies.len() as u64,
            convergence_p50_secs: p50,
            convergence_max_secs: max,
            converged: self.converged(),
            checks_allowed: self.world.checks_allowed,
            checks_denied: self.world.checks_denied,
            copies: self.world.copies,
            copies_failed: self.world.copies_failed,
            bytes_copied: self.world.bytes_copied,
            safety_violations: self.safety_violations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(seed: u64) -> SharingSim {
        SharingSim::new(SharingConfig::new(seed))
    }

    #[test]
    fn grant_gossips_to_every_data_center() {
        let mut s = sim(1);
        let id = s.grant(DcId(0), "alice", "/projects/genomics", TrustLevel::View);
        assert_eq!(
            s.check(DcId(2), "alice", "/projects/genomics/f", Action::Read),
            None
        );
        assert!(s.quiesce(16));
        for dc in DcId::ALL {
            assert_eq!(
                s.check(dc, "alice", "/projects/genomics/f", Action::Read),
                Some(id),
                "{dc} missing the grant"
            );
        }
        let r = s.report();
        assert_eq!(r.records_converged, 1);
        assert!(r.convergence_max_secs > 0.0);
        assert_eq!(r.safety_violations, 0);
    }

    #[test]
    fn revocation_reaches_every_replica() {
        let mut s = sim(2);
        let id = s.grant(DcId(1), "bob", "/public/1000genomes", TrustLevel::Copy);
        assert!(s.quiesce(16));
        // Revoke from a *different* data center than the origin.
        assert!(s.revoke(DcId(3), id));
        assert!(s.quiesce(16));
        for dc in DcId::ALL {
            assert_eq!(
                s.check(dc, "bob", "/public/1000genomes/x", Action::Read),
                None
            );
        }
        assert_eq!(s.report().safety_violations, 0);
    }

    #[test]
    fn partition_buffers_then_flushes() {
        let mut s = sim(3);
        // LVOC is cut off for 10 minutes starting at t=0.
        s.apply_partitions(&[PartitionEvent {
            at_secs: 0.0,
            duration_secs: 600.0,
            site: OsdcSite::Lvoc,
        }]);
        let id = s.grant(DcId(0), "carol", "/data/climate", TrustLevel::Transfer);
        // Give gossip plenty of rounds *within* the partition window.
        s.run_for(SimDuration::from_secs(540));
        let lvoc = DcId(2);
        assert_eq!(
            s.check(lvoc, "carol", "/data/climate/t.nc", Action::Read),
            None,
            "partitioned replica must not have learned the grant"
        );
        // The other three converge among themselves meanwhile.
        for dc in [DcId(0), DcId(1), DcId(3)] {
            assert_eq!(
                s.check(dc, "carol", "/data/climate/t.nc", Action::Read),
                Some(id)
            );
        }
        assert!(s.report().messages_buffered > 0, "DTN must have buffered");
        // Partition heals at 600s; quiesce from there.
        s.run_until_time(SimTime::ZERO + SimDuration::from_secs(601));
        assert!(s.quiesce(16));
        assert_eq!(
            s.check(lvoc, "carol", "/data/climate/t.nc", Action::Read),
            Some(id)
        );
        let r = s.report();
        assert!(r.dtn_flushed > 0, "healing must flush the DTN queue");
        assert_eq!(r.safety_violations, 0);
    }

    #[test]
    fn revocation_wins_even_when_issued_during_partition() {
        let mut s = sim(4);
        let id = s.grant(DcId(0), "dave", "/projects/mri", TrustLevel::Copy);
        assert!(s.quiesce(16));
        // Miami drops off; while it is dark, the origin revokes.
        s.apply_partitions(&[PartitionEvent {
            at_secs: s.now().as_secs_f64() + 1.0,
            duration_secs: 300.0,
            site: OsdcSite::AmpathMiami,
        }]);
        s.run_for(SimDuration::from_secs(2));
        assert!(s.revoke(DcId(0), id));
        // During the partition, Miami still honours the stale grant —
        // that is the expected (and documented) inconsistency window.
        s.run_for(SimDuration::from_secs(60));
        assert_eq!(
            s.check(DcId(3), "dave", "/projects/mri/scan1", Action::Read),
            Some(id)
        );
        // After healing + quiescence the revocation is global.
        s.run_for(SimDuration::from_secs(300));
        assert!(s.quiesce(16));
        for dc in DcId::ALL {
            assert_eq!(
                s.check(dc, "dave", "/projects/mri/scan1", Action::Read),
                None
            );
        }
        assert_eq!(s.report().safety_violations, 0);
    }

    #[test]
    fn lend_expires_federation_wide_without_records() {
        let mut s = sim(5);
        let expires = SimTime::ZERO + SimDuration::from_secs(120);
        s.grant(
            DcId(2),
            "erin",
            "/archive",
            TrustLevel::LendUntil { expires },
        );
        assert!(s.quiesce(4));
        assert!(s.now() < expires, "quiesce should beat the lend deadline");
        assert!(s
            .check(DcId(0), "erin", "/archive/v1", Action::Read)
            .is_some());
        s.run_until_time(expires);
        for dc in DcId::ALL {
            assert_eq!(s.check(dc, "erin", "/archive/v1", Action::Read), None);
        }
        assert_eq!(s.report().safety_violations, 0);
    }

    #[test]
    fn copy_rides_a_transfer_session() {
        let mut s = sim(6);
        s.grant(DcId(0), "frank", "/public/ncbi", TrustLevel::Copy);
        assert!(s.quiesce(16));
        let report = s
            .copy_to(DcId(2), "frank", "/public/ncbi/blast.db", 1 << 30)
            .expect("copy allowed and routable");
        assert!(report.mbps > 0.0);
        assert_eq!(s.report().copies, 1);
        // View-only grantee cannot copy.
        s.grant(DcId(0), "grace", "/public/ncbi", TrustLevel::View);
        assert!(s.quiesce(16));
        assert!(matches!(
            s.copy_to(DcId(2), "grace", "/public/ncbi/blast.db", 1024),
            Err(ShareError::Denied { .. })
        ));
    }

    #[test]
    fn revocation_racing_a_copy_is_counted_not_fatal() {
        let mut s = sim(7);
        let id = s.grant(DcId(0), "heidi", "/projects/genomics", TrustLevel::Copy);
        assert!(s.quiesce(16));
        s.revoke(DcId(0), id);
        assert!(s.quiesce(16));
        // The capability is dead everywhere by the time the materialize
        // lands: typed error, scorecard event, no panic.
        assert!(matches!(
            s.copy_to(DcId(2), "heidi", "/projects/genomics", 1 << 20),
            Err(ShareError::Denied { .. })
        ));
        let r = s.report();
        assert_eq!(r.copies, 0);
        assert_eq!(r.copies_failed, 1);
    }

    #[test]
    fn safety_scan_equals_the_unfiltered_check_loop() {
        let mut s = sim(9);
        // Lakeshore is dark for the whole churn, Miami for part of it.
        let lakeshore = PartitionEvent {
            at_secs: 30.0,
            duration_secs: 20_000.0,
            site: OsdcSite::ChicagoLakeshore,
        };
        s.apply_partitions(&[
            lakeshore,
            PartitionEvent {
                at_secs: 600.0,
                duration_secs: 2_400.0,
                site: OsdcSite::AmpathMiami,
            },
        ]);
        // Few grants per grantee and path, so a revoked or expired grant
        // is often the best-ranked one covering its own path.
        let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
        let paths = [
            "/projects",
            "/projects/genomics",
            "/data/climate",
            "/archive/modencode",
        ];
        let mut rng = SimRng::new(derive_seed(9, 0x5afe));
        let mut minted = Vec::new();
        for _ in 0..160 {
            s.run_for(SimDuration::from_secs(rng.range_inclusive(5, 60)));
            let dc = DcId(rng.below(4) as u8);
            let user = users[rng.below(users.len() as u64) as usize];
            let path = paths[rng.below(paths.len() as u64) as usize];
            match rng.below(10) {
                0..=5 => {
                    let level = match rng.below(4) {
                        0 => TrustLevel::View,
                        1 => TrustLevel::LendUntil {
                            expires: s.now() + SimDuration::from_secs(rng.range_inclusive(30, 600)),
                        },
                        2 => TrustLevel::Copy,
                        _ => TrustLevel::Transfer,
                    };
                    minted.push(s.grant(dc, user, path, level));
                }
                _ if !minted.is_empty() => {
                    let id = minted[rng.below(minted.len() as u64) as usize];
                    s.revoke(dc, id);
                }
                _ => {}
            }
        }
        let now = s.now();
        assert!(now < lakeshore.until(), "stopped mid-partition");
        assert!(!s.converged(), "the replicas must disagree");

        let (mut revoked, mut expired, mut unfiltered) = (0, 0, 0);
        for dc in DcId::ALL {
            let registry = s.registry(dc);
            for cap in registry.capabilities() {
                let dead = registry.is_revoked(cap.id) || cap.level.expired(now);
                revoked += u32::from(registry.is_revoked(cap.id));
                expired += u32::from(cap.level.expired(now));
                for action in Action::ALL {
                    let hit = registry.check(&cap.grantee, &cap.path, action, now);
                    // The shortcut's premise: `check` returns only what
                    // its filter admits.
                    if let Some(id) = hit {
                        let winner = registry.capability(id).expect("check names a known grant");
                        assert!(
                            registry.admits(winner, &cap.path, action, now),
                            "{dc}: check({}, {}, {}) returned {id}, which admits refuses",
                            cap.grantee,
                            cap.path,
                            action.label()
                        );
                    }
                    // The reference: `check` for every dead capability
                    // and action.
                    if dead && hit == Some(cap.id) {
                        unfiltered += 1;
                    }
                }
            }
        }
        assert!(revoked > 0, "churn revoked nothing");
        assert!(expired > 0, "no lend had expired");
        assert_eq!(s.safety_violations(), unfiltered);
    }

    #[test]
    fn report_survives_nan_convergence_latency() {
        // A poisoned latency sample must not panic the sort; NaN orders
        // last under total_cmp so max is still finite-meaningful only
        // when the data is, and p50 keeps working regardless.
        let mut s = sim(8);
        s.grant(DcId(0), "ivan", "/data/climate", TrustLevel::View);
        s.quiesce(16);
        s.world.convergence_secs.push(f64::NAN);
        s.world.convergence_secs.push(12.5);
        let r = s.report();
        assert_eq!(r.records_converged, s.world.convergence_secs.len() as u64);
        assert!(r.convergence_p50_secs.is_finite());
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let drive = |seed| {
            let mut s = sim(seed);
            s.apply_partitions(&[PartitionEvent {
                at_secs: 60.0,
                duration_secs: 240.0,
                site: OsdcSite::ChicagoLakeshore,
            }]);
            let id = s.grant(DcId(0), "u", "/d", TrustLevel::Copy);
            s.run_for(SimDuration::from_secs(90));
            s.revoke(DcId(0), id);
            s.quiesce(32);
            let r = s.report();
            (
                r.rounds,
                r.messages_delivered,
                r.messages_buffered,
                r.dtn_flushed,
                r.convergence_max_secs.to_bits(),
                r.converged,
            )
        };
        assert_eq!(drive(42), drive(42));
        assert_ne!(drive(42), drive(43), "seed must actually matter");
    }
}
