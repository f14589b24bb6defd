//! Multi-tenant fair-share job scheduling — the OCC-Y arrangement.
//!
//! "The OCC runs the OCC-Y cluster for eight computer science
//! departments in the U.S. that were formerly supported by the Yahoo-NSF
//! M45 Project, including Carnegie Mellon University and the University
//! of California at Berkeley." (§4.5)
//!
//! Eight tenants share 928 cores; a Hadoop-Fair-Scheduler-style policy
//! divides task slots max-min across tenants with queued work, FIFO
//! within a tenant. The simulation runs on the DES kernel and reports
//! per-tenant makespans, slot-time shares, and the fairness property the
//! whole arrangement exists for: a small department's job is not starved
//! by a big department's backlog.

use std::collections::BTreeMap;

use osdc_sim::{Engine, Scheduler, SimDuration, SimTime, Simulation};

/// One submitted job: a bag of equal tasks.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub tenant: String,
    pub name: String,
    pub tasks: u32,
    pub task_duration: SimDuration,
    pub submitted_at: SimTime,
}

/// Completed-job accounting.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub tenant: String,
    pub name: String,
    pub submitted_at: SimTime,
    pub finished_at: SimTime,
    /// Slot-seconds consumed.
    pub slot_secs: f64,
}

#[derive(Debug)]
struct RunningJob {
    spec: JobSpec,
    remaining: u32,
    inflight: u32,
}

enum Ev {
    Submit(JobSpec),
    TaskDone { job: usize },
}

struct Cluster {
    slots: u32,
    free: u32,
    jobs: Vec<RunningJob>,
    outcomes: Vec<JobOutcome>,
    /// Accumulated slot-seconds per tenant (for share reporting).
    slot_secs: BTreeMap<String, f64>,
}

impl Cluster {
    /// Dispatch free slots max-min fairly across tenants with runnable
    /// work; FIFO across a tenant's own jobs.
    fn dispatch(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        while self.free > 0 {
            // Runnable work per tenant.
            let mut inflight_by_tenant: BTreeMap<&str, u32> = BTreeMap::new();
            for j in &self.jobs {
                if j.remaining > 0 || j.inflight > 0 {
                    *inflight_by_tenant
                        .entry(j.spec.tenant.as_str())
                        .or_insert(0) += j.inflight;
                }
            }
            // Pick the tenant with runnable tasks holding the fewest
            // in-flight slots (max-min), breaking ties by name for
            // determinism; FIFO within the tenant: its first runnable job.
            let next = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.remaining > 0)
                .min_by_key(|&(i, j)| {
                    let tenant = j.spec.tenant.as_str();
                    (*inflight_by_tenant.get(tenant).unwrap_or(&0), tenant, i)
                });
            let Some((job_idx, _)) = next else { break };
            let job = &mut self.jobs[job_idx];
            job.remaining -= 1;
            job.inflight += 1;
            self.free -= 1;
            sched.after(job.spec.task_duration, Ev::TaskDone { job: job_idx });
            let _ = now;
        }
    }
}

impl Simulation for Cluster {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Submit(spec) => {
                self.jobs.push(RunningJob {
                    remaining: spec.tasks,
                    inflight: 0,
                    spec,
                });
                self.dispatch(now, sched);
            }
            Ev::TaskDone { job } => {
                let j = &mut self.jobs[job];
                j.inflight -= 1;
                *self.slot_secs.entry(j.spec.tenant.clone()).or_insert(0.0) +=
                    j.spec.task_duration.as_secs_f64();
                if j.remaining == 0 && j.inflight == 0 {
                    self.outcomes.push(JobOutcome {
                        tenant: j.spec.tenant.clone(),
                        name: j.spec.name.clone(),
                        submitted_at: j.spec.submitted_at,
                        finished_at: now,
                        slot_secs: j.spec.tasks as f64 * j.spec.task_duration.as_secs_f64(),
                    });
                }
                self.free += 1;
                self.dispatch(now, sched);
            }
        }
    }
}

/// Run a workload on a fair-share cluster with `slots` task slots.
pub fn run_fair_share(slots: u32, jobs: Vec<JobSpec>) -> (Vec<JobOutcome>, BTreeMap<String, f64>) {
    assert!(slots > 0);
    let mut engine = Engine::new();
    for spec in jobs {
        engine.schedule(spec.submitted_at, Ev::Submit(spec));
    }
    let mut cluster = Cluster {
        slots,
        free: slots,
        jobs: Vec::new(),
        outcomes: Vec::new(),
        slot_secs: BTreeMap::new(),
    };
    engine.run_to_completion(&mut cluster);
    debug_assert_eq!(cluster.free, cluster.slots, "all slots returned");
    (cluster.outcomes, cluster.slot_secs)
}

/// FIFO baseline (the policy fair share replaced): strict submission
/// order, each job takes every slot it can.
pub fn run_fifo(slots: u32, mut jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
    assert!(slots > 0);
    jobs.sort_by_key(|j| (j.submitted_at, j.name.clone()));
    let mut now = SimTime::ZERO;
    let mut outcomes = Vec::new();
    for spec in jobs {
        let start = now.max(spec.submitted_at);
        // Waves of `slots` parallel tasks.
        let waves = spec.tasks.div_ceil(slots);
        let finished = start + spec.task_duration * waves as u64;
        outcomes.push(JobOutcome {
            tenant: spec.tenant.clone(),
            name: spec.name.clone(),
            submitted_at: spec.submitted_at,
            finished_at: finished,
            slot_secs: spec.tasks as f64 * spec.task_duration.as_secs_f64(),
        });
        now = finished;
    }
    outcomes
}

/// The eight M45 departments of §4.5.
pub const M45_DEPARTMENTS: [&str; 8] = [
    "cmu",
    "berkeley",
    "cornell",
    "umass",
    "purdue",
    "uwashington",
    "ucsd",
    "illinois",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: &str, name: &str, tasks: u32, mins: u64, at_secs: u64) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            name: name.into(),
            tasks,
            task_duration: SimDuration::from_mins(mins),
            submitted_at: SimTime::ZERO + SimDuration::from_secs(at_secs),
        }
    }

    #[test]
    fn single_job_uses_whole_cluster() {
        let (outcomes, _) = run_fair_share(100, vec![job("cmu", "crawl", 300, 10, 0)]);
        assert_eq!(outcomes.len(), 1);
        // 300 tasks on 100 slots → 3 waves of 10 min.
        assert_eq!(
            outcomes[0].finished_at,
            SimTime::ZERO + SimDuration::from_mins(30)
        );
    }

    #[test]
    fn small_job_is_not_starved_by_big_backlog() {
        // Berkeley submits a 2000-task monster at t=0; CMU submits a
        // 20-task job a minute later. Under FIFO CMU waits hours; under
        // fair share it finishes promptly.
        let workload = vec![
            job("berkeley", "webcorpus", 2000, 10, 0),
            job("cmu", "quick-analysis", 20, 10, 60),
        ];
        let (fair, _) = run_fair_share(116, workload.clone());
        let fifo = run_fifo(116, workload);
        let fair_cmu = fair.iter().find(|o| o.tenant == "cmu").expect("finished");
        let fifo_cmu = fifo.iter().find(|o| o.tenant == "cmu").expect("finished");
        let fair_wait = fair_cmu.finished_at.saturating_since(fair_cmu.submitted_at);
        let fifo_wait = fifo_cmu.finished_at.saturating_since(fifo_cmu.submitted_at);
        assert!(
            fair_wait.as_secs_f64() < fifo_wait.as_secs_f64() / 3.0,
            "fair {fair_wait} vs fifo {fifo_wait}"
        );
    }

    #[test]
    fn concurrent_tenants_share_equally() {
        // Two tenants, identical endless-ish jobs submitted together.
        let workload = vec![job("cmu", "a", 400, 5, 0), job("berkeley", "b", 400, 5, 0)];
        let (outcomes, shares) = run_fair_share(100, workload);
        assert_eq!(outcomes.len(), 2);
        let cmu = shares["cmu"];
        let berkeley = shares["berkeley"];
        assert!((cmu / berkeley - 1.0).abs() < 0.05, "{cmu} vs {berkeley}");
        // Equal work finishes near the ideal joint makespan (800 tasks ×
        // 5 min / 100 slots = 40 min); the first submitter legitimately
        // monopolizes wave one, so allow one wave of skew either side.
        let ideal = 40.0 * 60.0;
        for o in &outcomes {
            let t = o.finished_at.as_secs_f64();
            assert!(
                (t - ideal).abs() <= ideal * 0.25,
                "{} finished at {t}s vs ideal {ideal}s",
                o.tenant
            );
        }
    }

    #[test]
    fn eight_departments_all_make_progress() {
        let workload: Vec<JobSpec> = M45_DEPARTMENTS
            .iter()
            .enumerate()
            .map(|(i, dept)| job(dept, "nightly", 100 + 50 * i as u32, 8, 0))
            .collect();
        let (outcomes, shares) = run_fair_share(116, workload);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(shares.len(), 8);
        // Everyone got a non-trivial share while contended.
        for dept in M45_DEPARTMENTS {
            assert!(shares[dept] > 0.0, "{dept} starved");
        }
    }

    #[test]
    fn slot_accounting_conserves_work() {
        let workload = vec![job("cmu", "a", 37, 3, 0), job("ucsd", "b", 53, 7, 100)];
        let (outcomes, shares) = run_fair_share(10, workload);
        let total_out: f64 = outcomes.iter().map(|o| o.slot_secs).sum();
        let total_shares: f64 = shares.values().sum();
        assert!((total_out - total_shares).abs() < 1e-6);
        assert!((total_out - (37.0 * 180.0 + 53.0 * 420.0)).abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        let workload: Vec<JobSpec> = (0..6)
            .map(|i| {
                job(
                    M45_DEPARTMENTS[i % 8],
                    &format!("j{i}"),
                    50 + i as u32,
                    5,
                    i as u64 * 30,
                )
            })
            .collect();
        let (a, _) = run_fair_share(40, workload.clone());
        let (b, _) = run_fair_share(40, workload);
        let fa: Vec<_> = a.iter().map(|o| (o.name.clone(), o.finished_at)).collect();
        let fb: Vec<_> = b.iter().map(|o| (o.name.clone(), o.finished_at)).collect();
        assert_eq!(fa, fb);
    }
}
