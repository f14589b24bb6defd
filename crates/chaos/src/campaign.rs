//! The campaign driver: a fault plan replayed against a live federation.
//!
//! [`run_campaign`] assembles a miniature OSDC — the four-site WAN with a
//! bulk transfer in flight, a replica-2 GlusterFS volume taking a steady
//! ingest stream, the OpenStack/Eucalyptus pair (`adler`, `sullivan`) in
//! a provider registry, a compute cloud running a fleet of instances, and
//! a Nagios master watching the storage servers — then walks a
//! minute-granularity master clock, applying the plan's inject/restore
//! actions through the [`Injector`] hooks and
//! folding what happens into a [`ResilienceScorecard`].
//!
//! API faults (`ApiError`, `ApiTimeout`, `ApiOutage`) flip the registry's
//! `ApiHealth` gate. While one is open, the campaign probes that cloud
//! once a minute: the probe lists instances as a throwaway user up to
//! `1 + max_retries` times under the cell's retry policy, and the first
//! call that gets through marks the API recovered.
//!
//! Everything is seeded: same `(config, plan)` in, byte-identical
//! scorecard and telemetry artifact out. That invariant is tested in
//! `osdc-bench`'s `trace_determinism` suite.

use std::collections::BTreeMap;

use osdc_compute::{CloudController, InstanceState};
use osdc_monitor::{
    CheckDefinition, HostAgent, NagiosMaster, ServiceDefinition, ThresholdDirection,
};
use osdc_net::{osdc_wan, CongestionControl, FlowId, FlowSpec, FluidNet, NodeId, OsdcSite};
use osdc_providers::{osdc_fleet, CanonicalRequest, ProviderRegistry};
use osdc_provision::{provision_rack, PipelineParams};
use osdc_sim::{RetryPolicy, SimDuration, SimRng, SimTime};
use osdc_storage::{FileData, GlusterVersion, Volume};
use osdc_telemetry::Telemetry;

use crate::inject::Injector;
use crate::plan::{FaultKind, FaultPlan, Phase, TimedAction};
use crate::scorecard::{ResilienceScorecard, ScoreTracker};

/// One campaign configuration: which storage era, which retry policy,
/// which fault schedule.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub gluster: GlusterVersion,
    pub retry: RetryPolicy,
    pub plan: FaultPlan,
    pub duration_mins: u64,
    /// Files pre-loaded onto the volume before faults start.
    pub corpus_files: u64,
}

impl CampaignConfig {
    /// The standard sweep cell: the [`FaultPlan::osdc_campaign`] schedule
    /// against the given storage version and retry policy.
    pub fn osdc(
        gluster: GlusterVersion,
        retry: RetryPolicy,
        seed: u64,
        duration_mins: u64,
        extra_faults_per_hour: f64,
    ) -> Self {
        CampaignConfig {
            gluster,
            retry,
            plan: FaultPlan::osdc_campaign(seed, duration_mins, extra_faults_per_hour),
            duration_mins,
            corpus_files: 320,
        }
    }

    pub fn label(&self) -> String {
        let version = match self.gluster {
            GlusterVersion::V3_1 { .. } => "gluster-3.1",
            GlusterVersion::V3_3 => "gluster-3.3",
        };
        format!("{version} + {}", self.retry.label())
    }
}

/// An ingest write waiting in the retry queue.
struct PendingWrite {
    path: String,
    payload_seed: u64,
    /// Failed attempts so far.
    failures: u32,
    next_try: SimTime,
}

/// The assembled test federation plus campaign bookkeeping.
struct Rig {
    net: FluidNet,
    flow: FlowId,
    flow_src: NodeId,
    flow_dst: NodeId,
    volume: Volume,
    written_paths: Vec<String>,
    ingest_queue: Vec<PendingWrite>,
    /// The API-fault targets: `adler` (OpenStack) and `sullivan`
    /// (Eucalyptus) behind the registry's health gate.
    providers: ProviderRegistry,
    cloud: CloudController,
    desired_instances: usize,
    nagios: NagiosMaster,
    agents: Vec<HostAgent>,
    params: PipelineParams,
    rng: SimRng,
    tracker: ScoreTracker,
}

const INGEST_FILE_BYTES: u64 = 1 << 20;
const FLEET_SIZE: usize = 8;
/// The clouds API faults target, in probe order.
const API_CLOUDS: [&str; 2] = ["adler", "sullivan"];
/// The availability probe's caller; it owns nothing, so an empty listing
/// is a healthy reply.
const PROBE_USER: &str = "__probe__";

fn minute(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}

impl Rig {
    fn build(cfg: &CampaignConfig, tele: &Telemetry) -> Rig {
        let seed = cfg.plan.seed;
        // WAN + one long-lived bulk flow Chicago → LVOC.
        let wan = osdc_wan(1.2e-7);
        let flow_src = wan.node(OsdcSite::ChicagoKenwood);
        let flow_dst = wan.node(OsdcSite::Lvoc);
        let mut net = FluidNet::new(wan.topology, seed ^ 0x01);
        net.set_telemetry(tele.clone());
        let flow = net
            .start_flow(FlowSpec {
                src: flow_src,
                dst: flow_dst,
                bytes: u64::MAX / 4,
                cc: CongestionControl::Constant { rate_bps: 4e9 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("the healthy WAN routes Chicago → LVOC");

        // Replica-2 volume (4 replica-set servers × 2 bricks) + corpus.
        let mut volume = Volume::new("adler", cfg.gluster, 8, 2, 1 << 34, seed ^ 0x02);
        let mut written_paths = Vec::new();
        for i in 0..cfg.corpus_files {
            let path = format!("/corpus/f{i}");
            volume
                .write(&path, FileData::synthetic(INGEST_FILE_BYTES, i), "lab")
                .expect("corpus fits");
            written_paths.push(path);
        }

        // The OpenStack/Eucalyptus pair; fault draws are seeded per plan.
        let providers = osdc_fleet(&API_CLOUDS, tele.clone(), seed ^ 0x03);

        // A one-rack compute cloud running a small fleet.
        let mut cloud = CloudController::with_racks("adler-compute", 1);
        let image = cloud.images().next().expect("catalog is stocked").id;
        for i in 0..FLEET_SIZE {
            cloud
                .boot("chaos", &format!("vm{i}"), "m1.small", image, minute(0))
                .expect("fleet fits an empty rack");
        }

        // Nagios watching the four storage servers over NRPE.
        let mut nagios = NagiosMaster::new();
        let agents: Vec<HostAgent> = (0..volume.replica_sets())
            .map(|s| {
                let agent = HostAgent::new(format!("adler-server{s}"));
                agent.metrics.set("disk_used_pct", 40.0);
                agent
            })
            .collect();
        for agent in &agents {
            nagios.add_service(ServiceDefinition {
                host: agent.hostname.clone(),
                check: CheckDefinition::new(
                    "check_disk",
                    "disk_used_pct",
                    80.0,
                    95.0,
                    ThresholdDirection::HighIsBad,
                ),
                check_interval: SimDuration::from_mins(5),
                retry_interval: SimDuration::from_mins(1),
                max_check_attempts: 3,
            });
        }

        let params = PipelineParams {
            servers: 10,
            retry: cfg.retry.clone(),
            ..PipelineParams::default()
        };

        Rig {
            net,
            flow,
            flow_src,
            flow_dst,
            volume,
            written_paths,
            ingest_queue: Vec::new(),
            providers,
            cloud,
            desired_instances: FLEET_SIZE,
            nagios,
            agents,
            params,
            rng: SimRng::new(seed ^ 0x04),
            tracker: ScoreTracker::new("campaign"),
        }
    }

    /// Which storage server hosts a brick (consecutive replica sets).
    fn server_of_brick(&self, brick: usize) -> usize {
        brick / (self.volume.brick_count() / self.volume.replica_sets())
    }

    fn apply(&mut self, action: &TimedAction, plan: &FaultPlan, tele: &Telemetry) {
        let ev = &plan.events[action.event];
        let at = action.at;
        match action.phase {
            Phase::Inject => {
                tele.point(&format!("chaos.inject.{}", ev.kind.label()), at, 1.0);
                match ev.kind {
                    FaultKind::LinkDown | FaultKind::LinkFlap => {
                        self.net.inject(ev, at).expect("known link");
                        self.tracker.fault("net", at, false);
                    }
                    FaultKind::LossSpike | FaultKind::RttInflate => {
                        self.net.inject(ev, at).expect("known link");
                        self.tracker.fault(format!("net:{}", ev.target), at, false);
                    }
                    FaultKind::BrickCrash => {
                        self.volume.inject(ev, at).expect("known brick");
                        // The surviving server of the degraded set reports
                        // disk pressure; Nagios pages on the hard state.
                        let brick: usize = ev.target["brick".len()..].parse().expect("brickN");
                        let server = self.server_of_brick(brick);
                        self.agents[server].metrics.set("disk_used_pct", 97.0);
                        self.tracker
                            .fault(format!("storage:{}", ev.target), at, true);
                    }
                    FaultKind::ServerOutage => {
                        self.volume.inject(ev, at).expect("known server");
                        let server: usize = ev.target["server".len()..].parse().expect("serverN");
                        self.agents[server].set_reachable(false);
                        self.tracker
                            .fault(format!("storage:{}", ev.target), at, true);
                    }
                    FaultKind::SilentCorruption => {
                        self.volume.inject(ev, at).expect("known path");
                        // Silent by definition: no alert expected.
                        self.tracker
                            .fault(format!("storage:{}", ev.target), at, false);
                    }
                    FaultKind::HostFailure | FaultKind::InstanceKill => {
                        let effect = self.cloud.inject(ev, at).expect("known host/instance");
                        self.tracker.card.instances_killed += effect.instances_killed;
                        self.tracker.fault("compute", at, false);
                    }
                    FaultKind::ApiTimeout | FaultKind::ApiError | FaultKind::ApiOutage => {
                        self.providers.inject(ev, at).expect("known cloud");
                        self.tracker.fault(format!("api:{}", ev.target), at, false);
                    }
                    FaultKind::ChefFailure => {
                        self.params.inject(ev, at).expect("chef knob");
                        self.tracker.fault("provision", at, false);
                        // Re-provision a rack through the fault; the
                        // pipeline's own retry policy is the remedy.
                        let report = provision_rack(&self.params, plan.seed ^ action.event as u64);
                        self.tracker.card.provision_ready += report.servers_ready;
                        self.tracker.card.provision_failed += report.servers_failed;
                        self.tracker.recovered("provision", at + report.wall_time);
                        self.params.restore(ev, at).expect("chef knob");
                    }
                }
            }
            Phase::Restore => {
                tele.point(&format!("chaos.restore.{}", ev.kind.label()), at, 1.0);
                match ev.kind {
                    FaultKind::LinkDown | FaultKind::LinkFlap => {
                        self.net.restore(ev, at).expect("known link");
                        // Recovery is observed by the per-minute route
                        // probe, not assumed here.
                    }
                    FaultKind::LossSpike | FaultKind::RttInflate => {
                        self.net.restore(ev, at).expect("known link");
                        self.tracker.recovered(&format!("net:{}", ev.target), at);
                    }
                    FaultKind::BrickCrash
                    | FaultKind::ServerOutage
                    | FaultKind::SilentCorruption => {
                        let effect = self.volume.restore(ev, at).expect("storage restore");
                        self.tracker.card.heal_repaired += effect.heal_repaired;
                        if ev.kind == FaultKind::BrickCrash {
                            let brick: usize = ev.target["brick".len()..].parse().expect("brickN");
                            let server = self.server_of_brick(brick);
                            self.agents[server].metrics.set("disk_used_pct", 40.0);
                        }
                        if ev.kind == FaultKind::ServerOutage {
                            let server: usize =
                                ev.target["server".len()..].parse().expect("serverN");
                            self.agents[server].set_reachable(true);
                        }
                        self.tracker
                            .recovered(&format!("storage:{}", ev.target), at);
                    }
                    FaultKind::HostFailure | FaultKind::InstanceKill => {
                        self.cloud.restore(ev, at).expect("known host");
                        // Recovery is the relaunch loop refilling the fleet.
                    }
                    FaultKind::ApiTimeout | FaultKind::ApiError | FaultKind::ApiOutage => {
                        self.providers.restore(ev, at).expect("known cloud");
                        // Recovery is the next successful probe.
                    }
                    FaultKind::ChefFailure => {
                        // Handled inline at inject time.
                    }
                }
            }
        }
    }

    /// Whether any of `1 + retry.max_retries()` listing calls against
    /// `cloud` at `now` gets through the registry's health gate.
    fn probe(&mut self, cloud: &str, now: SimTime, retry: &RetryPolicy) -> bool {
        (0..=retry.max_retries()).any(|_| {
            self.providers
                .call(cloud, PROBE_USER, &CanonicalRequest::ListInstances, now)
                .is_ok()
        })
    }

    /// One master-clock minute: ingest, probes, relaunches, monitoring.
    fn tick(&mut self, m: u64, retry: &RetryPolicy) {
        let now = minute(m);

        // Ingest stream: one new file per minute, plus the retry queue.
        self.ingest_queue.push(PendingWrite {
            path: format!("/ingest/m{m}"),
            payload_seed: 1_000_000 + m,
            failures: 0,
            next_try: now,
        });
        let mut still_pending = Vec::new();
        for mut w in std::mem::take(&mut self.ingest_queue) {
            if now < w.next_try {
                still_pending.push(w);
                continue;
            }
            let payload = FileData::synthetic(INGEST_FILE_BYTES, w.payload_seed);
            match self.volume.write(&w.path, payload, "ingest") {
                Ok(()) => self.written_paths.push(w.path),
                Err(_) => match retry.delay(w.failures, &mut self.rng) {
                    Some(delay) => {
                        w.failures += 1;
                        w.next_try = now + delay;
                        still_pending.push(w);
                    }
                    None => self.tracker.card.writes_dropped += 1,
                },
            }
        }
        self.ingest_queue = still_pending;

        // API probes: while a cloud has an open API fault, list it once
        // a minute, retrying within the minute per the policy.
        for cloud in API_CLOUDS {
            let key = format!("api:{cloud}");
            if self.tracker.is_open(&key) && self.probe(cloud, now, retry) {
                self.tracker.recovered(&key, now);
            }
        }

        // Compute: refill the fleet after kills; recovery is a full fleet.
        let active = self
            .cloud
            .all_instances()
            .filter(|i| i.state == InstanceState::Active)
            .count();
        if active < self.desired_instances {
            let image = self.cloud.images().next().expect("catalog").id;
            for r in 0..(self.desired_instances - active) {
                let name = format!("vm-r{m}-{r}");
                if self
                    .cloud
                    .boot("chaos", &name, "m1.small", image, now)
                    .is_err()
                {
                    break; // no capacity yet — retry next minute
                }
                self.tracker.card.instances_relaunched += 1;
            }
        }
        let active = self
            .cloud
            .all_instances()
            .filter(|i| i.state == InstanceState::Active)
            .count();
        if active >= self.desired_instances {
            while self.tracker.is_open("compute") {
                self.tracker.recovered("compute", now);
            }
        }

        // Network: a down link is recovered once routing reconnects.
        if self.tracker.is_open("net")
            && self
                .net
                .topology()
                .shortest_path(self.flow_src, self.flow_dst)
                .is_some()
        {
            self.tracker.recovered("net", now);
        }

        // Nagios sweep.
        let agent_map: BTreeMap<String, &HostAgent> = self
            .agents
            .iter()
            .map(|a| (a.hostname.clone(), a))
            .collect();
        self.nagios.tick(now, &agent_map);
        self.tracker.alerts(&self.nagios.notifications);
    }
}

/// Run one campaign configuration to completion.
pub fn run_campaign(cfg: &CampaignConfig, tele: &Telemetry) -> ResilienceScorecard {
    let mut rig = Rig::build(cfg, tele);
    rig.tracker.card.config = cfg.label();
    let timeline = cfg.plan.timeline();
    let mut cursor = 0;

    for m in 0..=cfg.duration_mins {
        let now = minute(m);
        while cursor < timeline.len() && timeline[cursor].at <= now {
            let action = timeline[cursor].clone();
            rig.apply(&action, &cfg.plan, tele);
            cursor += 1;
        }
        rig.net.run_until(now);
        rig.tick(m, &cfg.retry);
    }

    // Final audit: anything still unreadable or still rotten is data loss.
    let mut card = rig.tracker.card;
    card.files_lost = (rig.volume.audit_lost(&rig.written_paths).len()
        + rig.volume.audit_corrupt(&rig.written_paths).len()) as u64;
    card.transfer_bytes_done = rig.net.bytes_done(rig.flow);
    card.export(tele);
    card
}

/// Run a batch of campaign configurations on `jobs` workers, returning
/// the scorecards in submission order.
///
/// Each cell records into a private telemetry registry; the registries
/// are folded into `tele` in submission order after all cells finish, so
/// traces and scorecards are byte-identical for any `jobs` — `jobs == 1`
/// is exactly a serial loop of [`run_campaign`] calls.
pub fn run_campaigns(
    cfgs: &[CampaignConfig],
    jobs: usize,
    tele: &Telemetry,
) -> Vec<ResilienceScorecard> {
    let tasks: Vec<_> = cfgs
        .iter()
        .cloned()
        .map(|cfg| move |cell_tele: &Telemetry, _i: usize| run_campaign(&cfg, cell_tele))
        .collect();
    osdc_telemetry::run_sharded(jobs, tele, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(gluster: GlusterVersion, retry: RetryPolicy) -> CampaignConfig {
        CampaignConfig::osdc(gluster, retry, 2012, 120, 2.0)
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick(GlusterVersion::V3_3, RetryPolicy::exponential(12));
        let a = run_campaign(&cfg, &Telemetry::disabled());
        let b = run_campaign(&cfg, &Telemetry::disabled());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn v33_with_backoff_loses_nothing() {
        let cfg = quick(GlusterVersion::V3_3, RetryPolicy::exponential(12));
        let card = run_campaign(&cfg, &Telemetry::disabled());
        assert!(card.faults_injected >= 12, "{}", card.faults_injected);
        assert_eq!(card.data_loss_incidents(), 0, "{}", card.render());
        assert!(card.recovery_events > 0);
        assert!(card.heal_repaired > 0, "heal repopulated the new brick");
    }

    #[test]
    fn v31_without_retry_loses_data() {
        let cfg = quick(
            GlusterVersion::V3_1 {
                replica_drop_prob: 0.15,
            },
            RetryPolicy::None,
        );
        let card = run_campaign(&cfg, &Telemetry::disabled());
        assert!(
            card.data_loss_incidents() > 0,
            "the §7.1 bug must show: {}",
            card.render()
        );
    }

    #[test]
    fn run_campaigns_is_jobs_invariant() {
        let cfgs = vec![
            quick(GlusterVersion::V3_3, RetryPolicy::exponential(12)),
            quick(GlusterVersion::V3_3, RetryPolicy::None),
        ];
        let run = |jobs: usize| {
            let tele = Telemetry::new();
            let cards = run_campaigns(&cfgs, jobs, &tele);
            (cards, tele.export_jsonl())
        };
        let (serial_cards, serial_trace) = run(1);
        assert_eq!(serial_cards[0], run_campaign(&cfgs[0], &Telemetry::new()));
        let (par_cards, par_trace) = run(4);
        assert_eq!(par_cards, serial_cards);
        assert_eq!(par_trace, serial_trace);
    }

    #[test]
    fn api_outage_holds_probes_until_restore() {
        let mut plan = FaultPlan::new("hand-written outage", 7);
        plan.push(crate::plan::FaultEvent {
            at_secs: 600.0,
            kind: FaultKind::ApiOutage,
            target: "sullivan".into(),
            magnitude: 0.0,
            duration_secs: 330.0,
        });
        let retry = RetryPolicy::exponential(12);
        let cfg = CampaignConfig {
            gluster: GlusterVersion::V3_3,
            retry: retry.clone(),
            plan,
            duration_mins: 30,
            corpus_files: 8,
        };
        let tele = Telemetry::new();
        let card = run_campaign(&cfg, &tele);
        assert_eq!((card.faults_injected, card.recovery_events), (1, 1));
        // Injected at minute 10 and restored at 15.5: the minute-16 probe
        // is the first to get through.
        assert_eq!(card.mttr_secs(), 360.0);
        // Minutes 10–15 each spent every attempt on the outage; the first
        // call at minute 16 succeeded. Nothing probed the healthy cloud.
        let attempts = 1 + retry.max_retries() as u64;
        assert_eq!(
            tele.counter_value("providers.sullivan.errors"),
            6 * attempts
        );
        assert_eq!(
            tele.counter_value("providers.sullivan.calls"),
            6 * attempts + 1
        );
        assert_eq!(tele.counter_value("providers.adler.calls"), 0);
    }

    #[test]
    fn faults_page_nagios_and_recover() {
        let cfg = quick(GlusterVersion::V3_3, RetryPolicy::exponential(12));
        let card = run_campaign(&cfg, &Telemetry::disabled());
        assert!(card.alerts_raised >= 2, "crash + outage both page");
        assert!(card.alert_latency_secs() > 0.0);
        assert!(card.mttr_secs() > 0.0);
        assert!(card.instances_killed > 0);
        assert_eq!(card.instances_relaunched, card.instances_killed);
        assert!(card.transfer_bytes_done > 0);
    }
}
