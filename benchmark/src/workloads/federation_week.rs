//! `federation_week`: a week of federation operations under failure.
//! One pass runs the four `exp_resilience` cells (GlusterFS 3.1/3.3 ×
//! retry policy) as 7-day chaos campaigns, plus four capability-sharing
//! cells of 250 grant/lend/revoke/check operations each under a rolling
//! partition that cuts the four sites in turn, sampling revocation
//! safety every fourth operation as `exp_sharing` does, then quiescing.
//!
//! The chaos federation (storage, proxies, compute, Nagios, fluid WAN)
//! and the DES engine behind the sharing gossip carry the load. Timed
//! passes hand the cells to the scenario runner on one worker; the
//! traced run also times passes on two workers, the only runner
//! parallelism any workload has, to report the runner's speed-up.
//! Traced passes run the cells serially with a span per cell.

use std::collections::BTreeMap;

use osdc_chaos::{run_campaign, run_campaigns, CampaignConfig, ResilienceScorecard, RetryPolicy};
use osdc_sharing::{Action, DcId, PartitionEvent, SharingConfig, SharingSim, TrustLevel, SITES};
use osdc_sim::{derive_seed, SimDuration, SimRng, SimTime};
use osdc_storage::GlusterVersion;
use osdc_telemetry::{run_sharded, Telemetry};

use crate::measure::{Checks, Size, Workload};
use crate::trace::Tracer;

const EXTRA_FAULTS_PER_HOUR: f64 = 2.0;
const SHARING_CELLS: u64 = 4;
/// Safety is sampled every this many operations, as in `exp_sharing`.
const SAFETY_EVERY: usize = 4;
const CUT_SECS: f64 = 240.0;
const CUT_PERIOD_SECS: f64 = 300.0;
const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const PATHS: [&str; 4] = [
    "/projects/genomics",
    "/public/1000genomes",
    "/data/climate",
    "/archive/modencode",
];

enum Level {
    View,
    LendFor(u64),
    Copy,
    Transfer,
}

enum Op {
    Grant {
        user: &'static str,
        path: &'static str,
        level: Level,
    },
    /// Revoke the `n`-th capability this cell minted.
    Revoke(usize),
    Check {
        user: &'static str,
        path: &'static str,
    },
}

/// One scripted operation: advance the clock, then act at `dc`.
struct Step {
    advance_secs: u64,
    dc: DcId,
    op: Op,
}

struct SharingCell {
    seed: u64,
    partitions: Vec<PartitionEvent>,
    steps: Vec<Step>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct CellOut {
    grants: u64,
    revokes: u64,
    messages_delivered: u64,
    converged: bool,
    violations: u64,
    sim_secs: f64,
}

#[derive(Debug, PartialEq)]
pub struct WeekOut {
    cards: Vec<ResilienceScorecard>,
    cells: Vec<CellOut>,
}

pub struct FederationWeek {
    campaigns: Vec<CampaignConfig>,
    sharing: Vec<SharingCell>,
}

/// The churn script and rolling partition schedule of one sharing cell,
/// drawn as `exp_sharing` draws its churn.
fn sharing_cell(seed: u64, ops: usize) -> SharingCell {
    let mut rng = SimRng::new(derive_seed(seed, 0x5a1e));
    let mut minted = 0usize;
    let mut horizon_secs = 0u64;
    let steps: Vec<Step> = (0..ops)
        .map(|_| {
            let advance_secs = rng.range_inclusive(5, 60);
            horizon_secs += advance_secs;
            let dc = DcId(rng.below(4) as u8);
            let op = match rng.below(10) {
                0..=4 => {
                    let level = match rng.below(4) {
                        0 => Level::View,
                        1 => Level::LendFor(rng.range_inclusive(30, 600)),
                        2 => Level::Copy,
                        _ => Level::Transfer,
                    };
                    minted += 1;
                    Op::Grant {
                        user: USERS[rng.below(4) as usize],
                        path: PATHS[rng.below(4) as usize],
                        level,
                    }
                }
                5..=7 if minted > 0 => Op::Revoke(rng.below(minted as u64) as usize),
                _ => Op::Check {
                    user: USERS[rng.below(4) as usize],
                    path: PATHS[rng.below(4) as usize],
                },
            };
            Step {
                advance_secs,
                dc,
                op,
            }
        })
        .collect();
    // Cut each site in turn for the whole churn window.
    let mut at_secs = rng.range_inclusive(30, 90) as f64;
    let mut partitions = Vec::new();
    while at_secs < horizon_secs as f64 {
        partitions.push(PartitionEvent {
            at_secs,
            duration_secs: CUT_SECS,
            site: SITES[partitions.len() % SITES.len()],
        });
        at_secs += CUT_PERIOD_SECS;
    }
    SharingCell {
        seed,
        partitions,
        steps,
    }
}

fn run_sharing_cell<'n>(cell: &SharingCell, tr: &mut Tracer<'n>) -> CellOut {
    tr.span("sharing.cell", |tr| {
        let mut sim = SharingSim::new(SharingConfig::new(cell.seed));
        sim.apply_partitions(&cell.partitions);
        let mut minted = Vec::new();
        let mut violations = 0;
        for (i, step) in cell.steps.iter().enumerate() {
            tr.span("sharing.run_for", |_| {
                sim.run_for(SimDuration::from_secs(step.advance_secs))
            });
            tr.span("sharing.churn", |_| match step.op {
                Op::Grant {
                    user,
                    path,
                    ref level,
                } => {
                    let level = match *level {
                        Level::View => TrustLevel::View,
                        Level::LendFor(secs) => TrustLevel::LendUntil {
                            expires: sim.now() + SimDuration::from_secs(secs),
                        },
                        Level::Copy => TrustLevel::Copy,
                        Level::Transfer => TrustLevel::Transfer,
                    };
                    minted.push(sim.grant(step.dc, user, path, level));
                }
                Op::Revoke(n) => {
                    sim.revoke(step.dc, minted[n]);
                }
                Op::Check { user, path } => {
                    sim.check(step.dc, user, path, Action::Read);
                }
            });
            if i % SAFETY_EVERY == 0 {
                violations += tr.span("sharing.safety", |_| sim.safety_violations());
            }
        }
        let last_heal = cell
            .partitions
            .iter()
            .map(PartitionEvent::until)
            .max()
            .unwrap_or(SimTime::ZERO);
        let quiesced = tr.span("sharing.quiesce", |_| {
            sim.run_until_time(last_heal + SimDuration::from_secs(1));
            sim.quiesce(64)
        });
        let report = tr.span("sharing.report", |_| sim.report());
        CellOut {
            grants: report.grants,
            revokes: report.revokes,
            messages_delivered: report.messages_delivered,
            converged: quiesced && report.converged,
            violations: violations + report.safety_violations,
            sim_secs: sim.now().as_secs_f64(),
        }
    })
}

impl Workload for FederationWeek {
    const NAME: &'static str = "federation_week";
    const RUNNER_WORKERS: usize = 2;
    type Out = WeekOut;

    fn setup(seed: u64, size: Size) -> Self {
        let (campaign_mins, ops) = match size {
            Size::Full => (7 * 24 * 60, 250),
            Size::Smoke => (30, 40),
        };
        let plan_seed = derive_seed(seed, 0xc4a0);
        let v31 = GlusterVersion::V3_1 {
            replica_drop_prob: 0.15,
        };
        let campaigns = [
            (v31, RetryPolicy::None),
            (v31, RetryPolicy::exponential(12)),
            (GlusterVersion::V3_3, RetryPolicy::fixed_30s(4)),
            (GlusterVersion::V3_3, RetryPolicy::exponential(12)),
        ]
        .into_iter()
        .map(|(gluster, retry)| {
            CampaignConfig::osdc(
                gluster,
                retry,
                plan_seed,
                campaign_mins,
                EXTRA_FAULTS_PER_HOUR,
            )
        })
        .collect();
        let sharing = (0..SHARING_CELLS)
            .map(|k| sharing_cell(derive_seed(seed, 0x5a00 + k), ops))
            .collect();
        FederationWeek { campaigns, sharing }
    }

    fn pass<'n>(&'n self, workers: usize, tr: &mut Tracer<'n>) -> WeekOut {
        if tr.is_enabled() {
            // Serial, with a span per cell: `run_campaigns` at one worker
            // is exactly this loop.
            let off = Telemetry::disabled();
            return WeekOut {
                cards: self
                    .campaigns
                    .iter()
                    .map(|cfg| tr.span("chaos.campaign", |_| run_campaign(cfg, &off)))
                    .collect(),
                cells: self
                    .sharing
                    .iter()
                    .map(|cell| run_sharing_cell(cell, tr))
                    .collect(),
            };
        }
        let off = Telemetry::disabled();
        let tasks = self
            .sharing
            .iter()
            .map(|cell| move |_: &Telemetry, _: usize| run_sharing_cell(cell, &mut Tracer::off()))
            .collect();
        WeekOut {
            cards: run_campaigns(&self.campaigns, workers, &off),
            cells: run_sharded(workers, &off, tasks),
        }
    }

    fn check(&self, out: &WeekOut, reference: Option<&WeekOut>, checks: &mut Checks) {
        for (k, cell) in out.cells.iter().enumerate() {
            checks.expect(cell.violations == 0 && cell.converged, || {
                format!("sharing cell {k}: {cell:?}")
            });
        }
        if let Some(r) = reference {
            checks.expect(out.cards == r.cards, || {
                "campaign scorecards differ from the 1-worker pass 0".to_string()
            });
            checks.expect(out.cells == r.cells, || {
                "sharing cells differ from the 1-worker pass 0".to_string()
            });
        }
    }

    fn work(&self, out: &WeekOut) -> (f64, &'static str) {
        let campaign_h: f64 = self
            .campaigns
            .iter()
            .map(|c| c.duration_mins as f64 / 60.0)
            .sum();
        let sharing_h: f64 = out.cells.iter().map(|c| c.sim_secs / 3600.0).sum();
        (campaign_h + sharing_h, "sim_hours")
    }

    fn layer_metrics(
        &self,
        reference: &WeekOut,
        _layers: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)> {
        let cards = &reference.cards;
        vec![
            (
                "chaos.faults_injected",
                cards.iter().map(|c| c.faults_injected).sum::<u64>() as f64,
            ),
            (
                "chaos.data_loss_incidents",
                cards.iter().map(|c| c.data_loss_incidents()).sum::<u64>() as f64,
            ),
            (
                "sharing.messages_delivered",
                reference
                    .cells
                    .iter()
                    .map(|c| c.messages_delivered)
                    .sum::<u64>() as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_workers_reproduce_the_serial_pass() {
        let w = FederationWeek::setup(5, Size::Smoke);
        let serial = w.pass(1, &mut Tracer::off());
        let mut traced = Tracer::new(true);
        let traced_out = w.pass(1, &mut traced);
        let parallel = w.pass(2, &mut Tracer::off());
        let mut checks = Checks::default();
        w.check(&serial, None, &mut checks);
        w.check(&traced_out, Some(&serial), &mut checks);
        w.check(&parallel, Some(&serial), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
        let campaigns = traced
            .spans()
            .iter()
            .filter(|s| s.name == "chaos.campaign")
            .count();
        assert_eq!(campaigns, 4);
    }

    #[test]
    fn rolling_partitions_cover_the_churn_window() {
        let cell = sharing_cell(9, 250);
        let churn_secs: u64 = cell.steps.iter().map(|s| s.advance_secs).sum();
        let last = cell.partitions.last().expect("cuts scheduled");
        assert!(last.at_secs + CUT_PERIOD_SECS >= churn_secs as f64);
        let first: Vec<_> = cell.partitions.iter().take(4).map(|p| p.site).collect();
        assert_eq!(first, SITES, "every site is cut in turn");
    }
}
