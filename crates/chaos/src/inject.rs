//! The injector trait and its per-subsystem implementations.
//!
//! `osdc-chaos` depends on the subsystem crates, never the reverse: each
//! subsystem exposes small, safe hook points (link toggles, brick health
//! transitions, host power state, the provider registry's API health,
//! the Chef failure knob) and the [`Injector`] implementations here
//! translate declarative [`FaultEvent`]s onto those hooks. Restores are
//! stateless — every mutation is chosen so the inverse can be computed
//! from the event itself (toggle back, subtract the added loss, divide
//! out the delay multiplier, heal), which keeps replays trivially
//! deterministic.

use osdc_compute::{CloudController, HostId, InstanceState};
use osdc_net::FluidNet;
use osdc_providers::ProviderRegistry;
use osdc_provision::PipelineParams;
use osdc_sim::SimTime;
use osdc_storage::{BrickHealth, BrickId, Volume};

use crate::plan::{FaultEvent, FaultKind};

/// Why an injection could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectError {
    /// The target string does not resolve in this subsystem.
    UnknownTarget(String),
    /// This injector does not handle the event's kind.
    Unsupported(FaultKind),
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::UnknownTarget(t) => write!(f, "unknown fault target `{t}`"),
            InjectError::Unsupported(k) => write!(f, "injector cannot apply {}", k.label()),
        }
    }
}

impl std::error::Error for InjectError {}

/// What an inject/restore actually did — the campaign driver folds these
/// into the resilience scorecard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Effect {
    /// Instances terminated by a compute fault.
    pub instances_killed: u32,
    /// Files a restore-time self-heal re-copied to fresh hardware.
    pub heal_repaired: u64,
    /// Files a restore-time self-heal declared unrecoverable.
    pub heal_lost: u64,
}

/// A subsystem that can absorb declarative faults.
pub trait Injector {
    /// Whether this injector applies the given kind.
    fn handles(&self, kind: FaultKind) -> bool;

    /// Apply the fault at `now`.
    fn inject(&mut self, ev: &FaultEvent, now: SimTime) -> Result<Effect, InjectError>;

    /// Undo the fault (end of its window) at `now`.
    fn restore(&mut self, ev: &FaultEvent, now: SimTime) -> Result<Effect, InjectError>;
}

// ---- network -------------------------------------------------------------

/// Resolve `"a->b"` into every directed link between the two endpoints.
fn resolve_links(net: &FluidNet, target: &str) -> Result<Vec<osdc_net::LinkId>, InjectError> {
    let (a, b) = target
        .split_once("->")
        .ok_or_else(|| InjectError::UnknownTarget(target.to_string()))?;
    let topo = net.topology();
    let (a, b) = match (topo.find_node(a), topo.find_node(b)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(InjectError::UnknownTarget(target.to_string())),
    };
    let links = topo.links_between(a, b);
    if links.is_empty() {
        return Err(InjectError::UnknownTarget(target.to_string()));
    }
    Ok(links)
}

impl Injector for FluidNet {
    fn handles(&self, kind: FaultKind) -> bool {
        matches!(
            kind,
            FaultKind::LinkDown
                | FaultKind::LinkFlap
                | FaultKind::LossSpike
                | FaultKind::RttInflate
        )
    }

    // Both directions use the [`FluidNet`] link mutators, not
    // `topology_mut`: they reroute in-flight flows and re-sample their path
    // loss, and they re-solve the allocation only when a link goes up or
    // down or a flow moves (a loss spike leaves the cached rates alone).
    fn inject(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        let links = resolve_links(self, &ev.target)?;
        for id in links {
            match ev.kind {
                FaultKind::LinkDown | FaultKind::LinkFlap => {
                    self.set_link_up(id, false);
                }
                FaultKind::LossSpike => {
                    let loss = self.topology().link(id).loss_rate + ev.magnitude;
                    self.set_link_loss_rate(id, loss.min(0.999));
                }
                FaultKind::RttInflate => {
                    let delay = self.topology().link(id).delay.mul_f64(ev.magnitude);
                    self.set_link_delay(id, delay);
                }
                other => return Err(InjectError::Unsupported(other)),
            }
        }
        Ok(Effect::default())
    }

    fn restore(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        let links = resolve_links(self, &ev.target)?;
        for id in links {
            match ev.kind {
                FaultKind::LinkDown | FaultKind::LinkFlap => {
                    self.set_link_up(id, true);
                }
                FaultKind::LossSpike => {
                    let loss = (self.topology().link(id).loss_rate - ev.magnitude).max(0.0);
                    self.set_link_loss_rate(id, loss);
                }
                FaultKind::RttInflate => {
                    let delay = self.topology().link(id).delay.mul_f64(1.0 / ev.magnitude);
                    self.set_link_delay(id, delay);
                }
                other => return Err(InjectError::Unsupported(other)),
            }
        }
        Ok(Effect::default())
    }
}

// ---- storage -------------------------------------------------------------

fn parse_index(target: &str, prefix: &str) -> Result<usize, InjectError> {
    target
        .strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| InjectError::UnknownTarget(target.to_string()))
}

/// The bricks hosted by replica-set server `n` (consecutive sets, as
/// `Volume::new` lays them out).
fn server_bricks(vol: &Volume, server: usize) -> Result<Vec<BrickId>, InjectError> {
    if server >= vol.replica_sets() {
        return Err(InjectError::UnknownTarget(format!("server{server}")));
    }
    let per_set = vol.brick_count() / vol.replica_sets();
    Ok((server * per_set..(server + 1) * per_set)
        .map(BrickId)
        .collect())
}

impl Injector for Volume {
    fn handles(&self, kind: FaultKind) -> bool {
        matches!(
            kind,
            FaultKind::BrickCrash | FaultKind::ServerOutage | FaultKind::SilentCorruption
        )
    }

    fn inject(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::BrickCrash => {
                let idx = parse_index(&ev.target, "brick")?;
                if idx >= self.brick_count() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                self.fail_brick(BrickId(idx));
                Ok(Effect::default())
            }
            FaultKind::ServerOutage => {
                for id in server_bricks(self, parse_index(&ev.target, "server")?)? {
                    self.offline_brick(id);
                }
                Ok(Effect::default())
            }
            FaultKind::SilentCorruption => {
                // The magnitude is a replica rank; past the set's
                // replicas it names no copy of the path.
                let rank = ev.magnitude as usize;
                if rank >= self.brick_count() / self.replica_sets() {
                    return Err(InjectError::UnknownTarget(format!(
                        "{} rank {rank}",
                        ev.target
                    )));
                }
                self.corrupt_replica(&ev.target, rank);
                Ok(Effect::default())
            }
            other => Err(InjectError::Unsupported(other)),
        }
    }

    fn restore(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::BrickCrash => {
                let idx = parse_index(&ev.target, "brick")?;
                if idx >= self.brick_count() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                if self.brick_health(BrickId(idx)) == BrickHealth::Failed {
                    self.replace_brick(BrickId(idx));
                }
            }
            FaultKind::ServerOutage => {
                for id in server_bricks(self, parse_index(&ev.target, "server")?)? {
                    self.online_brick(id);
                }
            }
            FaultKind::SilentCorruption => {}
            other => return Err(InjectError::Unsupported(other)),
        }
        // Every storage restore ends with a self-heal pass; on v3.1 code
        // the pass is a no-op and the damage stays (the §7.1 experience).
        let report = self.heal();
        Ok(Effect {
            heal_repaired: report.repaired + report.reconciled,
            heal_lost: report.lost,
            ..Effect::default()
        })
    }
}

// ---- compute -------------------------------------------------------------

impl Injector for CloudController {
    fn handles(&self, kind: FaultKind) -> bool {
        matches!(kind, FaultKind::HostFailure | FaultKind::InstanceKill)
    }

    fn inject(&mut self, ev: &FaultEvent, now: SimTime) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::HostFailure => {
                let idx = parse_index(&ev.target, "host")?;
                if idx >= self.host_count() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                let killed = self.fail_host(HostId(idx), now);
                Ok(Effect {
                    instances_killed: killed,
                    ..Effect::default()
                })
            }
            FaultKind::InstanceKill => {
                let id = self
                    .all_instances()
                    .find(|i| i.name == ev.target && i.state != InstanceState::Terminated)
                    .map(|i| i.id)
                    .ok_or_else(|| InjectError::UnknownTarget(ev.target.clone()))?;
                self.kill_instance(id, now)
                    .map_err(|_| InjectError::UnknownTarget(ev.target.clone()))?;
                Ok(Effect {
                    instances_killed: 1,
                    ..Effect::default()
                })
            }
            other => Err(InjectError::Unsupported(other)),
        }
    }

    fn restore(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        match ev.kind {
            FaultKind::HostFailure => {
                let idx = parse_index(&ev.target, "host")?;
                if idx >= self.host_count() {
                    return Err(InjectError::UnknownTarget(ev.target.clone()));
                }
                self.restore_host(HostId(idx));
                Ok(Effect::default())
            }
            // A killed instance does not come back; relaunching is the
            // recovery loop's job, not the injector's.
            FaultKind::InstanceKill => Ok(Effect::default()),
            other => Err(InjectError::Unsupported(other)),
        }
    }
}

// ---- provider registry ---------------------------------------------------

/// API faults flip [`osdc_providers::ApiHealth`] on the provider
/// registry (target = provider name), the federation's one API fault
/// gate: the chaos campaign's probes and the failover router's calls
/// both pass through it.
impl Injector for ProviderRegistry {
    fn handles(&self, kind: FaultKind) -> bool {
        matches!(
            kind,
            FaultKind::ApiOutage | FaultKind::ApiTimeout | FaultKind::ApiError
        )
    }

    fn inject(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        let applied = match ev.kind {
            FaultKind::ApiOutage => self.set_health(&ev.target, |h| h.outage = true),
            FaultKind::ApiTimeout => self.set_health(&ev.target, |h| h.timeout_prob = ev.magnitude),
            FaultKind::ApiError => self.set_health(&ev.target, |h| h.error_prob = ev.magnitude),
            other => return Err(InjectError::Unsupported(other)),
        };
        if applied {
            Ok(Effect::default())
        } else {
            Err(InjectError::UnknownTarget(ev.target.clone()))
        }
    }

    fn restore(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        let applied = match ev.kind {
            FaultKind::ApiOutage => self.set_health(&ev.target, |h| h.outage = false),
            FaultKind::ApiTimeout => self.set_health(&ev.target, |h| h.timeout_prob = 0.0),
            FaultKind::ApiError => self.set_health(&ev.target, |h| h.error_prob = 0.0),
            other => return Err(InjectError::Unsupported(other)),
        };
        if applied {
            Ok(Effect::default())
        } else {
            Err(InjectError::UnknownTarget(ev.target.clone()))
        }
    }
}

// ---- provisioning --------------------------------------------------------

impl Injector for PipelineParams {
    fn handles(&self, kind: FaultKind) -> bool {
        kind == FaultKind::ChefFailure
    }

    fn inject(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        if ev.kind != FaultKind::ChefFailure {
            return Err(InjectError::Unsupported(ev.kind));
        }
        self.chef_failure_prob = Some(ev.magnitude);
        Ok(Effect::default())
    }

    fn restore(&mut self, ev: &FaultEvent, _now: SimTime) -> Result<Effect, InjectError> {
        if ev.kind != FaultKind::ChefFailure {
            return Err(InjectError::Unsupported(ev.kind));
        }
        self.chef_failure_prob = None;
        Ok(Effect::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_net::{osdc_wan, OsdcSite};
    use osdc_providers::{osdc_fleet, CanonicalRequest, ProviderError};
    use osdc_storage::{FileData, GlusterVersion};
    use osdc_telemetry::Telemetry;

    fn pair() -> ProviderRegistry {
        osdc_fleet(&["adler", "sullivan"], Telemetry::disabled(), 7)
    }

    fn ev(kind: FaultKind, target: &str, magnitude: f64) -> FaultEvent {
        FaultEvent {
            at_secs: 0.0,
            kind,
            target: target.into(),
            magnitude,
            duration_secs: 60.0,
        }
    }

    #[test]
    fn link_down_partitions_and_restore_reconnects() {
        let wan = osdc_wan(0.0);
        let (src, dst) = (wan.node(OsdcSite::ChicagoKenwood), wan.node(OsdcSite::Lvoc));
        let mut net = FluidNet::new(wan.topology, 1);
        let fault = ev(FaultKind::LinkDown, "chicago-kenwood->starlight", 0.0);
        net.inject(&fault, SimTime::ZERO).expect("inject");
        assert!(net.topology().shortest_path(src, dst).is_none(), "cut off");
        net.restore(&fault, SimTime::ZERO).expect("restore");
        assert!(net.topology().shortest_path(src, dst).is_some());
    }

    #[test]
    fn loss_and_rtt_faults_round_trip_exactly() {
        let wan = osdc_wan(1.2e-7);
        let (a, b) = (wan.node(OsdcSite::StarLight), wan.node(OsdcSite::Lvoc));
        let mut net = FluidNet::new(wan.topology, 1);
        let link = net.topology().links_between(a, b)[0];
        let (loss0, delay0) = {
            let l = net.topology().link(link);
            (l.loss_rate, l.delay)
        };
        let spike = ev(FaultKind::LossSpike, "starlight->lvoc", 1e-4);
        net.inject(&spike, SimTime::ZERO).expect("inject");
        assert!(net.topology().link(link).loss_rate > loss0);
        net.restore(&spike, SimTime::ZERO).expect("restore");
        assert!((net.topology().link(link).loss_rate - loss0).abs() < 1e-12);

        let inflate = ev(FaultKind::RttInflate, "starlight->lvoc", 3.0);
        net.inject(&inflate, SimTime::ZERO).expect("inject");
        assert!(net.topology().link(link).delay > delay0);
        net.restore(&inflate, SimTime::ZERO).expect("restore");
        let back = net.topology().link(link).delay.as_secs_f64();
        assert!((back - delay0.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn brick_crash_heals_clean_on_v33() {
        let mut vol = Volume::new("v", GlusterVersion::V3_3, 4, 2, 1 << 30, 5);
        let paths: Vec<String> = (0..40)
            .map(|i| {
                let p = format!("/d/f{i}");
                vol.write(&p, FileData::synthetic(1 << 16, i), "u")
                    .expect("write");
                p
            })
            .collect();
        let crash = ev(FaultKind::BrickCrash, "brick0", 0.0);
        vol.inject(&crash, SimTime::ZERO).expect("inject");
        assert_eq!(vol.brick_health(BrickId(0)), BrickHealth::Failed);
        let effect = vol.restore(&crash, SimTime::ZERO).expect("restore");
        assert!(effect.heal_repaired > 0, "heal repopulated the new brick");
        assert_eq!(effect.heal_lost, 0);
        assert!(vol.audit_lost(&paths).is_empty());
    }

    #[test]
    fn server_outage_blocks_writes_then_returns_with_contents() {
        let mut vol = Volume::new("v", GlusterVersion::V3_3, 4, 2, 1 << 30, 5);
        vol.write("/d/a", FileData::synthetic(1 << 16, 1), "u")
            .expect("write");
        let outage = ev(FaultKind::ServerOutage, "server0", 0.0);
        vol.inject(&outage, SimTime::ZERO).expect("inject");
        assert_eq!(vol.brick_health(BrickId(0)), BrickHealth::Offline);
        assert_eq!(vol.brick_health(BrickId(1)), BrickHealth::Offline);
        vol.restore(&outage, SimTime::ZERO).expect("restore");
        assert_eq!(vol.brick_health(BrickId(0)), BrickHealth::Online);
        assert!(vol.read("/d/a").is_ok());
    }

    #[test]
    fn corruption_heals_on_v33_but_not_v31() {
        for (version, expect_rot) in [
            (GlusterVersion::V3_3, false),
            (
                GlusterVersion::V3_1 {
                    replica_drop_prob: 0.0,
                },
                true,
            ),
        ] {
            let mut vol = Volume::new("v", version, 2, 2, 1 << 30, 5);
            vol.write("/d/a", FileData::synthetic(1 << 16, 1), "u")
                .expect("write");
            let rot = ev(FaultKind::SilentCorruption, "/d/a", 0.0);
            vol.inject(&rot, SimTime::ZERO).expect("inject");
            assert_eq!(vol.audit_corrupt(&["/d/a".into()]).len(), 1);
            vol.restore(&rot, SimTime::ZERO).expect("restore");
            assert_eq!(
                vol.audit_corrupt(&["/d/a".into()]).is_empty(),
                !expect_rot,
                "v3.3 repairs rot; v3.1 serves it forever"
            );
        }
    }

    #[test]
    fn corruption_rank_past_the_set_is_an_unknown_target() {
        let mut vol = Volume::new("v", GlusterVersion::V3_3, 8, 2, 1 << 30, 5);
        vol.write("/corpus/f7", FileData::synthetic(1 << 16, 7), "u")
            .expect("write");
        let rot = ev(FaultKind::SilentCorruption, "/corpus/f7", 5.0);
        let err = vol
            .inject(&rot, SimTime::ZERO)
            .expect_err("replica-2 has no rank 5");
        assert_eq!(err, InjectError::UnknownTarget("/corpus/f7 rank 5".into()));
        assert!(
            !vol.corrupt_replica("/corpus/f7", 2),
            "rank 2 is past the set"
        );
        assert!(vol.audit_corrupt(&["/corpus/f7".into()]).is_empty());
    }

    #[test]
    fn host_failure_kills_and_restore_returns_capacity() {
        let mut cloud = CloudController::with_racks("adler", 1);
        let image = cloud.images().next().expect("has images").id;
        cloud
            .boot("alice", "vm-a", "m1.small", image, SimTime::ZERO)
            .expect("boot");
        let hosts_up = cloud.hosts_up();
        let fault = ev(FaultKind::HostFailure, "host0", 0.0);
        let effect = cloud.inject(&fault, SimTime::ZERO).expect("inject");
        assert_eq!(effect.instances_killed, 1);
        assert_eq!(cloud.hosts_up(), hosts_up - 1);
        cloud.restore(&fault, SimTime::ZERO).expect("restore");
        assert_eq!(cloud.hosts_up(), hosts_up);
    }

    #[test]
    fn api_fault_injects_and_clears() {
        let mut registry = pair();
        let list = |r: &mut ProviderRegistry| {
            r.call(
                "adler",
                "alice",
                &CanonicalRequest::ListInstances,
                SimTime::ZERO,
            )
        };
        let fault = ev(FaultKind::ApiError, "adler", 1.0);
        registry.inject(&fault, SimTime::ZERO).expect("inject");
        assert!(matches!(
            list(&mut registry),
            Err(ProviderError::Api { .. })
        ));
        let err = registry
            .inject(&ev(FaultKind::ApiError, "nonexistent", 1.0), SimTime::ZERO)
            .expect_err("unknown cloud");
        assert_eq!(err, InjectError::UnknownTarget("nonexistent".into()));
        registry.restore(&fault, SimTime::ZERO).expect("restore");
        assert!(registry.health("adler").expect("known").is_clear());
        list(&mut registry).expect("healed");
    }

    #[test]
    fn chef_knob_toggles() {
        let mut params = PipelineParams::default();
        let fault = FaultEvent {
            at_secs: 0.0,
            kind: FaultKind::ChefFailure,
            target: "chef".into(),
            magnitude: 0.4,
            duration_secs: 0.0,
        };
        params.inject(&fault, SimTime::ZERO).expect("inject");
        assert_eq!(params.chef_failure_prob, Some(0.4));
        params.restore(&fault, SimTime::ZERO).expect("restore");
        assert_eq!(params.chef_failure_prob, None);
    }

    #[test]
    fn injectors_declare_their_coverage() {
        let wan = osdc_wan(0.0);
        let net = FluidNet::new(wan.topology, 1);
        let vol = Volume::new("v", GlusterVersion::V3_3, 2, 2, 1 << 20, 1);
        let cloud = CloudController::with_racks("c", 1);
        let registry = pair();
        let params = PipelineParams::default();
        // The chaos campaign's five injectors, one per subsystem.
        let injectors: [&dyn Injector; 5] = [&net, &vol, &cloud, &registry, &params];
        for kind in [
            FaultKind::LinkDown,
            FaultKind::LinkFlap,
            FaultKind::LossSpike,
            FaultKind::RttInflate,
            FaultKind::BrickCrash,
            FaultKind::ServerOutage,
            FaultKind::SilentCorruption,
            FaultKind::HostFailure,
            FaultKind::InstanceKill,
            FaultKind::ApiTimeout,
            FaultKind::ApiError,
            FaultKind::ApiOutage,
            FaultKind::ChefFailure,
        ] {
            assert_eq!(
                injectors.iter().filter(|i| i.handles(kind)).count(),
                1,
                "{} must have exactly one handler",
                kind.label()
            );
        }
    }

    #[test]
    fn api_outage_flips_registry_health() {
        let mut registry = pair();
        let outage = ev(FaultKind::ApiOutage, "sullivan", 0.0);
        registry.inject(&outage, SimTime::ZERO).expect("inject");
        assert!(registry.health("sullivan").expect("known").outage);
        assert!(matches!(
            registry.call(
                "sullivan",
                "alice",
                &CanonicalRequest::ListInstances,
                SimTime::ZERO
            ),
            Err(ProviderError::Outage { .. })
        ));
        registry.restore(&outage, SimTime::ZERO).expect("restore");
        assert!(!registry.health("sullivan").expect("known").outage);

        let storm = ev(FaultKind::ApiTimeout, "sullivan", 0.6);
        registry.inject(&storm, SimTime::ZERO).expect("inject");
        assert_eq!(
            registry.health("sullivan").expect("known").timeout_prob,
            0.6
        );
        registry.restore(&storm, SimTime::ZERO).expect("restore");
        assert_eq!(
            registry.health("sullivan").expect("known").timeout_prob,
            0.0
        );

        let err = registry
            .inject(&ev(FaultKind::ApiOutage, "nonexistent", 0.0), SimTime::ZERO)
            .expect_err("unknown provider");
        assert_eq!(err, InjectError::UnknownTarget("nonexistent".into()));
    }

    #[test]
    fn unsupported_kinds_are_rejected() {
        let mut vol = Volume::new("v", GlusterVersion::V3_3, 2, 2, 1 << 20, 1);
        let err = vol
            .inject(&ev(FaultKind::LinkDown, "a->b", 0.0), SimTime::ZERO)
            .expect_err("storage cannot down links");
        assert_eq!(err, InjectError::Unsupported(FaultKind::LinkDown));
    }
}
