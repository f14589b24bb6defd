//! Declarative fault plans: what breaks, when, for how long.
//!
//! A [`FaultPlan`] is the serializable artifact of a chaos campaign — a
//! named, seeded list of [`FaultEvent`]s on the simulation clock. Plans
//! round-trip through JSON (the operator-facing format) and expand into a
//! sorted timeline of inject/restore [`TimedAction`]s that the campaign driver
//! replays against the federation.
//!
//! The serde surface deliberately stays within flat named-field structs
//! and unit enums, matching the vendored `serde_derive` shim.

use osdc_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Everything the chaos layer knows how to break.
///
/// Targets are plain strings interpreted per kind (see each variant); a
/// plan therefore stays valid JSON even as the federation topology grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Take a WAN link down. Target `"a->b"` (node names); both
    /// directions of the duplex pair go down.
    LinkDown,
    /// Flap a link: `magnitude` down/up cycles spread evenly across
    /// `duration_secs`. Target as for [`FaultKind::LinkDown`].
    LinkFlap,
    /// Add `magnitude` to the link's packet-loss rate for the duration.
    LossSpike,
    /// Multiply the link's propagation delay by `magnitude` for the
    /// duration (RTT inflation).
    RttInflate,
    /// Permanently fail one brick (target `"brickN"`); restore replaces
    /// the hardware empty and runs self-heal.
    BrickCrash,
    /// Take a whole replica-set server offline (target `"serverN"`),
    /// contents preserved; restore brings it back and runs self-heal.
    ServerOutage,
    /// Flip bits in one replica of a file (target = path, `magnitude` =
    /// replica rank); restore runs self-heal.
    SilentCorruption,
    /// Fail a compute host (target `"hostN"`), killing its instances;
    /// restore powers it back up.
    HostFailure,
    /// Kill one running instance (target = instance name). No restore —
    /// recovery is the relaunch loop's job.
    InstanceKill,
    /// Inject API timeouts at the named provider's registry health gate
    /// (target = provider name) with probability `magnitude` per call,
    /// for the duration.
    ApiTimeout,
    /// Inject clean API errors at the named provider's registry health
    /// gate with probability `magnitude` per call, for the duration.
    ApiError,
    /// Take the named provider's API fully offline at the registry: every
    /// call fails immediately with an outage error until restore.
    ApiOutage,
    /// Make Chef converges fail with probability `magnitude` (target
    /// `"chef"`); the provisioning pipeline must retry its way through.
    ChefFailure,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link-down",
            FaultKind::LinkFlap => "link-flap",
            FaultKind::LossSpike => "loss-spike",
            FaultKind::RttInflate => "rtt-inflate",
            FaultKind::BrickCrash => "brick-crash",
            FaultKind::ServerOutage => "server-outage",
            FaultKind::SilentCorruption => "silent-corruption",
            FaultKind::HostFailure => "host-failure",
            FaultKind::InstanceKill => "instance-kill",
            FaultKind::ApiTimeout => "api-timeout",
            FaultKind::ApiError => "api-error",
            FaultKind::ApiOutage => "api-outage",
            FaultKind::ChefFailure => "chef-failure",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, seconds on the simulation clock.
    pub at_secs: f64,
    pub kind: FaultKind,
    /// Interpreted per [`FaultKind`].
    pub target: String,
    /// Kind-specific intensity (probability, multiplier, rank, cycles).
    #[serde(default)]
    pub magnitude: f64,
    /// How long the fault holds before the restore action; `0` means the
    /// fault is instantaneous (a kill) or permanent-until-healed.
    #[serde(default)]
    pub duration_secs: f64,
}

impl FaultEvent {
    pub fn at(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.at_secs)
    }

    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.duration_secs)
    }
}

/// A named, seeded fault schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub name: String,
    /// Seeds every stochastic draw the campaign makes on top of the
    /// schedule (injected API fault sampling, retry jitter, ...).
    pub seed: u64,
    #[serde(default)]
    pub events: Vec<FaultEvent>,
}

/// Whether a timeline step starts or ends a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Inject,
    Restore,
}

/// One replayable step: event `index` of the plan, at `at`, in `phase`.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedAction {
    pub at: SimTime,
    pub event: usize,
    pub phase: Phase,
}

impl FaultPlan {
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        FaultPlan {
            name: name.into(),
            seed,
            events: Vec::new(),
        }
    }

    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serializes")
    }

    pub fn from_json(s: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(s).map_err(|e| format!("bad fault plan: {e:?}"))
    }

    /// Expand the plan into a stable, time-sorted action list. Every
    /// event yields an `Inject`; events with a duration also yield a
    /// `Restore` at `at + duration`; a [`FaultKind::LinkFlap`] expands
    /// into `magnitude` down/up cycles across its window. Ties are broken
    /// by event index, so the timeline is deterministic.
    pub fn timeline(&self) -> Vec<TimedAction> {
        let mut out = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                FaultKind::LinkFlap => {
                    let cycles = (ev.magnitude.max(1.0)) as u32;
                    let slot = ev.duration().mul_f64(1.0 / (cycles as f64 * 2.0));
                    for c in 0..cycles {
                        let down = ev.at() + slot.mul_f64(2.0 * c as f64);
                        out.push(TimedAction {
                            at: down,
                            event: i,
                            phase: Phase::Inject,
                        });
                        out.push(TimedAction {
                            at: down + slot,
                            event: i,
                            phase: Phase::Restore,
                        });
                    }
                }
                _ => {
                    out.push(TimedAction {
                        at: ev.at(),
                        event: i,
                        phase: Phase::Inject,
                    });
                    if !ev.duration().is_zero() {
                        out.push(TimedAction {
                            at: ev.at() + ev.duration(),
                            event: i,
                            phase: Phase::Restore,
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| a.at.cmp(&b.at).then(a.event.cmp(&b.event)));
        out
    }

    /// The standard OSDC campaign schedule: one representative fault of
    /// every kind but `ApiOutage`, spread across `duration_mins`, plus
    /// `extra_per_hour` additional seeded API faults. The campaign
    /// handles `ApiOutage` as a registry outage, but this schedule stays
    /// free of it so its digest (the X9 manifest's `fault_plan_sha256`)
    /// holds. Fully determined by `(seed, duration_mins,
    /// extra_per_hour)`.
    pub fn osdc_campaign(seed: u64, duration_mins: u64, extra_per_hour: f64) -> FaultPlan {
        let mut plan = FaultPlan::new("osdc-campaign", seed);
        let span = duration_mins as f64 * 60.0;
        let m = |mins: f64| mins * 60.0;
        // The backbone: a deterministic tour of every fault class, timed
        // so windows never leave a station broken at campaign end.
        let base: Vec<FaultEvent> = vec![
            FaultEvent {
                at_secs: span * 0.10,
                kind: FaultKind::ApiError,
                target: "adler".into(),
                magnitude: 0.85,
                duration_secs: m(12.0),
            },
            FaultEvent {
                at_secs: span * 0.18,
                kind: FaultKind::BrickCrash,
                target: "brick0".into(),
                magnitude: 0.0,
                duration_secs: m(6.0),
            },
            FaultEvent {
                at_secs: span * 0.26,
                kind: FaultKind::LinkDown,
                target: "chicago-kenwood->starlight".into(),
                magnitude: 0.0,
                duration_secs: m(8.0),
            },
            FaultEvent {
                at_secs: span * 0.36,
                kind: FaultKind::SilentCorruption,
                target: "/corpus/f7".into(),
                magnitude: 1.0,
                duration_secs: m(5.0),
            },
            FaultEvent {
                at_secs: span * 0.44,
                kind: FaultKind::ApiTimeout,
                target: "sullivan".into(),
                magnitude: 0.75,
                duration_secs: m(10.0),
            },
            FaultEvent {
                at_secs: span * 0.52,
                kind: FaultKind::ServerOutage,
                target: "server1".into(),
                magnitude: 0.0,
                duration_secs: m(5.0),
            },
            FaultEvent {
                at_secs: span * 0.60,
                kind: FaultKind::HostFailure,
                target: "host2".into(),
                magnitude: 0.0,
                duration_secs: m(9.0),
            },
            FaultEvent {
                at_secs: span * 0.68,
                kind: FaultKind::LossSpike,
                target: "starlight->lvoc".into(),
                magnitude: 1e-4,
                duration_secs: m(7.0),
            },
            FaultEvent {
                at_secs: span * 0.74,
                kind: FaultKind::ChefFailure,
                target: "chef".into(),
                magnitude: 0.30,
                duration_secs: 0.0,
            },
            FaultEvent {
                at_secs: span * 0.80,
                kind: FaultKind::InstanceKill,
                target: "vm1".into(),
                magnitude: 0.0,
                duration_secs: 0.0,
            },
            FaultEvent {
                at_secs: span * 0.84,
                kind: FaultKind::RttInflate,
                target: "starlight->ampath-miami".into(),
                magnitude: 3.0,
                duration_secs: m(6.0),
            },
            FaultEvent {
                at_secs: span * 0.88,
                kind: FaultKind::LinkFlap,
                target: "chicago-lakeshore->starlight".into(),
                magnitude: 3.0,
                duration_secs: m(6.0),
            },
        ];
        for ev in base {
            plan.push(ev);
        }
        // Extra seeded faults: more API-layer pressure, drawn
        // deterministically from the plan seed.
        let mut rng = SimRng::new(seed ^ 0x0b5e55ed);
        let extras = (extra_per_hour * duration_mins as f64 / 60.0) as usize;
        for i in 0..extras {
            let at = span * (0.05 + 0.85 * rng.f64());
            let (kind, target) = if i % 2 == 0 {
                (FaultKind::ApiError, "adler")
            } else {
                (FaultKind::ApiTimeout, "sullivan")
            };
            plan.push(FaultEvent {
                at_secs: at,
                kind,
                target: target.into(),
                magnitude: 0.5 + 0.4 * rng.f64(),
                duration_secs: m(4.0),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        let mut p = FaultPlan::new("sample", 7);
        p.push(FaultEvent {
            at_secs: 60.0,
            kind: FaultKind::LinkDown,
            target: "a->b".into(),
            magnitude: 0.0,
            duration_secs: 120.0,
        });
        p.push(FaultEvent {
            at_secs: 30.0,
            kind: FaultKind::InstanceKill,
            target: "vm0".into(),
            magnitude: 0.0,
            duration_secs: 0.0,
        });
        p
    }

    #[test]
    fn json_roundtrip_preserves_the_plan() {
        let p = sample_plan();
        let back = FaultPlan::from_json(&p.to_json()).expect("parse");
        assert_eq!(p, back);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let p: FaultPlan = FaultPlan::from_json(
            r#"{"name":"min","seed":1,
                "events":[{"at_secs":5.0,"kind":"BrickCrash","target":"brick0"}]}"#,
        )
        .expect("parse");
        assert_eq!(p.events[0].magnitude, 0.0);
        assert_eq!(p.events[0].duration_secs, 0.0);
    }

    #[test]
    fn timeline_is_sorted_and_pairs_inject_restore() {
        let t = sample_plan().timeline();
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
        // kill (no duration) → 1 action; link-down → inject + restore.
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].phase, Phase::Inject); // the kill at 30s
        assert_eq!(t[1].phase, Phase::Inject); // link down at 60s
        assert_eq!(t[2].phase, Phase::Restore); // link up at 180s
        assert_eq!(t[2].at, SimTime::ZERO + SimDuration::from_secs(180));
    }

    #[test]
    fn flap_expands_into_cycles() {
        let mut p = FaultPlan::new("flappy", 1);
        p.push(FaultEvent {
            at_secs: 0.0,
            kind: FaultKind::LinkFlap,
            target: "a->b".into(),
            magnitude: 3.0,
            duration_secs: 60.0,
        });
        let t = p.timeline();
        assert_eq!(t.len(), 6, "3 cycles → 3 downs + 3 ups");
        let injects = t.iter().filter(|a| a.phase == Phase::Inject).count();
        assert_eq!(injects, 3);
    }

    #[test]
    fn osdc_campaign_is_deterministic_and_covers_all_kinds() {
        let a = FaultPlan::osdc_campaign(2012, 240, 2.0);
        let b = FaultPlan::osdc_campaign(2012, 240, 2.0);
        assert_eq!(a, b);
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
            FaultKind::ChefFailure,
        ] {
            assert!(
                a.events.iter().any(|e| e.kind == kind),
                "campaign lacks {}",
                kind.label()
            );
        }
        // ApiOutage is deliberately absent. The campaign handles the kind
        // (hand-written plans use it), but the standard schedule stays
        // free of it so its plan digest, and every X9 pin, holds.
        assert!(!a.events.iter().any(|e| e.kind == FaultKind::ApiOutage));
    }
}
