//! The automated pipeline: IPMI → PXE → preseed → Chef (§7.3).
//!
//! "Our system starts with one PXE boot server, a Chef server, and a set
//! of servers with IPMI configured. IPMI is triggered to boot the
//! servers, which then pull a start-up image and boot options from the
//! PXE boot server... the installer runs a script specified at the end of
//! the preseed file which sets up networking... Upon rebooting, the next
//! script double-checks the IPMI configuration, finishes partitioning the
//! disk and sets up additional RAIDs as necessary, before downloading and
//! installing the Chef client. The Chef client then checks in with the
//! Chef server and runs the 'recipes'... a final clean up script runs to
//! deliver us a fully functional OpenStack rack."
//!
//! Simulated on the discrete-event kernel: every server advances through
//! [`Stage`]s whose durations are sampled per server; the PXE/repo pulls
//! share the boot server's NIC (a [`TokenBucket`]) and Chef converges are
//! bounded by server concurrency (a [`ServicePool`]). Stage failures
//! retry up to a bound.

use osdc_sim::resource::{ServicePool, TokenBucket};
use osdc_sim::stats::Log2Histogram;
use osdc_sim::{Engine, RetryPolicy, Scheduler, SimDuration, SimRng, SimTime, Simulation};

/// The pipeline stages, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    IpmiPowerOn,
    PxeImagePull,
    PreseedInstall,
    PostInstallScript,
    Reboot,
    ChefRegister,
    ChefConverge,
    Cleanup,
    Ready,
}

impl Stage {
    fn next(self) -> Option<Stage> {
        use Stage::*;
        Some(match self {
            IpmiPowerOn => PxeImagePull,
            PxeImagePull => PreseedInstall,
            PreseedInstall => PostInstallScript,
            PostInstallScript => Reboot,
            Reboot => ChefRegister,
            ChefRegister => ChefConverge,
            ChefConverge => Cleanup,
            Cleanup => Ready,
            Ready => return None,
        })
    }
}

/// Pipeline tuning.
#[derive(Clone, Debug)]
pub struct PipelineParams {
    pub servers: u32,
    /// PXE/repo boot-server NIC, bits/second (shared by image pulls and
    /// package installs).
    pub boot_server_bps: f64,
    /// Boot image size per server, bytes.
    pub boot_image_bytes: u64,
    /// Package payload per server during the preseed install, bytes.
    pub install_payload_bytes: u64,
    /// Concurrent Chef converges the server sustains.
    pub chef_concurrency: usize,
    /// Mean Chef converge minutes (lognormal).
    pub chef_converge_mins: f64,
    /// Per-stage transient failure probability (timeouts, flaky DHCP).
    pub stage_failure_prob: f64,
    /// Override failure probability for the ChefConverge stage (a broken
    /// cookbook, an unreachable Chef server — the chaos layer's knob).
    /// `None` means the converge fails like any other stage.
    pub chef_failure_prob: Option<f64>,
    /// Attempts per stage before declaring the server failed.
    pub max_attempts: u32,
    /// Spacing between retry attempts. The historical pipeline waited a
    /// flat 30 s; exponential backoff decorrelates a rack's worth of
    /// clients hammering a struggling Chef server.
    pub retry: RetryPolicy,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            servers: 39,
            boot_server_bps: 1e9,
            boot_image_bytes: 300 << 20,      // netboot + installer image
            install_payload_bytes: 900 << 20, // Ubuntu server package set
            chef_concurrency: 12,
            chef_converge_mins: 10.0,
            stage_failure_prob: 0.03,
            chef_failure_prob: None,
            max_attempts: 4,
            retry: RetryPolicy::fixed_30s(4),
        }
    }
}

/// Outcome of provisioning one rack.
#[derive(Clone, Debug)]
pub struct ProvisionReport {
    pub servers_ready: u32,
    pub servers_failed: u32,
    /// Time from IPMI trigger to the last server Ready.
    pub wall_time: SimDuration,
    pub total_retries: u32,
    /// Per-server completion minutes.
    pub completion_minutes: Log2Histogram,
}

#[derive(Debug)]
enum Ev {
    /// Begin a stage attempt on a server.
    Begin(u32, Stage),
    /// A stage attempt finished (maybe failing).
    Done(u32, Stage),
}

struct RackWorld {
    params: PipelineParams,
    rng: SimRng,
    pxe_nic: TokenBucket,
    chef: ServicePool,
    attempts: Vec<u32>,
    ready_at: Vec<Option<SimTime>>,
    failed: Vec<bool>,
    retries: u32,
}

impl RackWorld {
    fn sample_fixed(&mut self, mean_secs: f64) -> SimDuration {
        // Lognormal around the mean with modest spread.
        let sigma = 0.25f64;
        let mu = mean_secs.ln() - sigma * sigma / 2.0;
        SimDuration::from_secs_f64(self.rng.lognormal(mu, sigma))
    }

    /// Duration of one attempt of `stage` starting at `now`, accounting
    /// for shared resources.
    fn stage_duration(&mut self, now: SimTime, stage: Stage) -> SimDuration {
        match stage {
            Stage::IpmiPowerOn => self.sample_fixed(40.0),
            Stage::PxeImagePull => {
                let done = self
                    .pxe_nic
                    .accept(now, self.params.boot_image_bytes as f64 * 8.0);
                done.saturating_since(now) + self.sample_fixed(20.0)
            }
            Stage::PreseedInstall => {
                let done = self
                    .pxe_nic
                    .accept(now, self.params.install_payload_bytes as f64 * 8.0);
                // Disk writes + debconf run concurrently with the pull; the
                // pull is usually the long pole, plus fixed install work.
                done.saturating_since(now) + self.sample_fixed(240.0)
            }
            Stage::PostInstallScript => self.sample_fixed(90.0),
            Stage::Reboot => self.sample_fixed(150.0),
            Stage::ChefRegister => self.sample_fixed(45.0),
            Stage::ChefConverge => {
                let service = self.sample_fixed(self.params.chef_converge_mins * 60.0);
                let (_, finish) = self.chef.schedule(now, service);
                finish.saturating_since(now)
            }
            Stage::Cleanup => self.sample_fixed(60.0),
            Stage::Ready => SimDuration::ZERO,
        }
    }
}

impl Simulation for RackWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Begin(server, stage) => {
                if stage == Stage::Ready {
                    self.ready_at[server as usize] = Some(now);
                    return;
                }
                let d = self.stage_duration(now, stage);
                sched.after(d, Ev::Done(server, stage));
            }
            Ev::Done(server, stage) => {
                // Transient failure?
                let failure_prob = match stage {
                    Stage::ChefConverge => self
                        .params
                        .chef_failure_prob
                        .unwrap_or(self.params.stage_failure_prob),
                    _ => self.params.stage_failure_prob,
                };
                if self.rng.chance(failure_prob) {
                    self.attempts[server as usize] += 1;
                    if self.attempts[server as usize] >= self.params.max_attempts {
                        self.failed[server as usize] = true;
                        return;
                    }
                    // Back off per the retry policy; a server whose policy
                    // budget runs out before max_attempts fails early.
                    let attempt = self.attempts[server as usize] - 1;
                    let retry = self.params.retry.clone();
                    match retry.delay(attempt, &mut self.rng) {
                        Some(delay) => {
                            self.retries += 1;
                            sched.after(delay, Ev::Begin(server, stage));
                        }
                        None => self.failed[server as usize] = true,
                    }
                    return;
                }
                // `Begin(.., Ready)` schedules no `Done`, so every stage
                // that gets here has a next one.
                if let Some(next) = stage.next() {
                    sched.after(SimDuration::ZERO, Ev::Begin(server, next));
                }
            }
        }
    }
}

/// Run the automated pipeline for one rack.
pub fn provision_rack(params: &PipelineParams, seed: u64) -> ProvisionReport {
    let n = params.servers as usize;
    let mut world = RackWorld {
        pxe_nic: TokenBucket::new(params.boot_server_bps),
        chef: ServicePool::new(params.chef_concurrency),
        rng: SimRng::new(seed),
        attempts: vec![0; n],
        ready_at: vec![None; n],
        failed: vec![false; n],
        retries: 0,
        params: params.clone(),
    };
    let mut engine = Engine::new();
    for s in 0..params.servers {
        engine.schedule(SimTime::ZERO, Ev::Begin(s, Stage::IpmiPowerOn));
    }
    engine.run_to_completion(&mut world);

    let mut completion_minutes = Log2Histogram::new();
    let mut last = SimTime::ZERO;
    let mut ready = 0;
    for t in world.ready_at.iter().flatten() {
        ready += 1;
        last = last.max(*t);
        completion_minutes.record(t.as_secs_f64() / 60.0);
    }
    ProvisionReport {
        servers_ready: ready,
        servers_failed: world.failed.iter().filter(|&&f| f).count() as u32,
        wall_time: last.saturating_since(SimTime::ZERO),
        total_retries: world.retries,
        completion_minutes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automated_rack_finishes_well_under_a_day() {
        let report = provision_rack(&PipelineParams::default(), 42);
        assert_eq!(report.servers_ready + report.servers_failed, 39);
        assert!(report.servers_ready >= 37, "most servers come up");
        let hours = report.wall_time.as_hours_f64();
        assert!(
            hours < 12.0,
            "automation target is 'much less than a day': {hours:.1}h"
        );
        assert!(hours > 0.5, "it is not instantaneous either: {hours:.2}h");
    }

    #[test]
    fn automation_beats_manual_by_order_of_magnitude() {
        let auto = provision_rack(&PipelineParams::default(), 1);
        let manual = crate::manual::manual_rack_install(&crate::manual::ManualParams::default(), 1);
        let speedup = manual.wall_time.as_secs_f64() / auto.wall_time.as_secs_f64();
        assert!(speedup > 8.0, "speedup only {speedup:.1}×");
    }

    #[test]
    fn shared_boot_nic_is_a_real_bottleneck() {
        let fast = provision_rack(
            &PipelineParams {
                boot_server_bps: 10e9,
                stage_failure_prob: 0.0,
                ..Default::default()
            },
            3,
        );
        let slow = provision_rack(
            &PipelineParams {
                boot_server_bps: 100e6,
                stage_failure_prob: 0.0,
                ..Default::default()
            },
            3,
        );
        assert!(slow.wall_time > fast.wall_time.mul_f64(1.5));
    }

    #[test]
    fn chef_concurrency_matters() {
        let narrow = provision_rack(
            &PipelineParams {
                chef_concurrency: 1,
                stage_failure_prob: 0.0,
                ..Default::default()
            },
            5,
        );
        let wide = provision_rack(
            &PipelineParams {
                chef_concurrency: 39,
                stage_failure_prob: 0.0,
                ..Default::default()
            },
            5,
        );
        assert!(narrow.wall_time > wide.wall_time.mul_f64(2.0));
    }

    #[test]
    fn failures_retry_and_eventually_fail_out() {
        let flaky = provision_rack(
            &PipelineParams {
                stage_failure_prob: 0.5,
                max_attempts: 2,
                ..Default::default()
            },
            7,
        );
        assert!(flaky.total_retries > 0);
        assert!(
            flaky.servers_failed > 0,
            "with p=0.5 and 2 attempts some servers die"
        );
    }

    #[test]
    fn zero_failure_prob_means_no_retries() {
        let clean = provision_rack(
            &PipelineParams {
                stage_failure_prob: 0.0,
                ..Default::default()
            },
            9,
        );
        assert_eq!(clean.total_retries, 0);
        assert_eq!(clean.servers_failed, 0);
        assert_eq!(clean.servers_ready, 39);
    }

    #[test]
    fn chef_failure_override_targets_the_converge() {
        // All stages clean except Chef converge, which always fails: every
        // server must burn its attempts there and fail out.
        let broken_cookbook = provision_rack(
            &PipelineParams {
                stage_failure_prob: 0.0,
                chef_failure_prob: Some(1.0),
                ..Default::default()
            },
            13,
        );
        assert_eq!(broken_cookbook.servers_ready, 0);
        assert_eq!(broken_cookbook.servers_failed, 39);
        // And clearing the override heals the rack.
        let fixed = provision_rack(
            &PipelineParams {
                stage_failure_prob: 0.0,
                chef_failure_prob: Some(0.0),
                ..Default::default()
            },
            13,
        );
        assert_eq!(fixed.servers_ready, 39);
    }

    #[test]
    fn exponential_backoff_spaces_retries_out() {
        let mk = |retry| {
            provision_rack(
                &PipelineParams {
                    stage_failure_prob: 0.25,
                    retry,
                    ..Default::default()
                },
                17,
            )
        };
        let fixed = mk(RetryPolicy::fixed_30s(4));
        let expo = mk(RetryPolicy::exponential(4));
        assert!(expo.total_retries > 0);
        // Same seed, same flakiness: both complete the rack; the policy
        // only changes the spacing (and thus wall time), not correctness.
        assert_eq!(
            fixed.servers_ready + fixed.servers_failed,
            expo.servers_ready + expo.servers_failed
        );
        // Exhausted-policy servers fail early rather than hang.
        let starved = provision_rack(
            &PipelineParams {
                stage_failure_prob: 0.5,
                retry: RetryPolicy::None,
                max_attempts: 4,
                ..Default::default()
            },
            19,
        );
        assert!(
            starved.servers_failed > 0,
            "no retries: first failure kills"
        );
        assert_eq!(starved.total_retries, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = provision_rack(&PipelineParams::default(), 11);
        let b = provision_rack(&PipelineParams::default(), 11);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.total_retries, b.total_retries);
    }

    #[test]
    fn stage_order_is_the_papers() {
        use Stage::*;
        let mut s = IpmiPowerOn;
        let mut order = vec![s];
        while let Some(n) = s.next() {
            order.push(n);
            s = n;
        }
        assert_eq!(
            order,
            vec![
                IpmiPowerOn,
                PxeImagePull,
                PreseedInstall,
                PostInstallScript,
                Reboot,
                ChefRegister,
                ChefConverge,
                Cleanup,
                Ready
            ]
        );
    }
}
