//! The Nagios master: scheduling, soft/hard states, notifications.
//!
//! "When those thresholds are crossed, Nagios sends alerts to the system
//! administrators." Faithful to the Nagios state model: a non-OK result
//! puts a service into a *soft* problem state and schedules fast
//! retries; only `max_check_attempts` consecutive non-OK results harden
//! the state and fire a notification. Recovery (OK after a hard problem)
//! also notifies.
//!
//! ## Scheduling
//!
//! A [`NagiosMaster::tick`] is two steps:
//!
//! * the **host checks**, one merge walk. [`NagiosMaster::add_service`]
//!   gives each new host a dense id in first-seen order, each service
//!   stores its host's id, and the ids are kept sorted by name. The
//!   caller's agent map is a `BTreeMap`, so it iterates in name order
//!   too, and the walk takes the two in step: it runs the host checks
//!   (notifying in sorted host order) and resolves every host's agent. A
//!   host the map lacks is DOWN; map entries no service names are
//!   skipped.
//! * the **service checks**, one pass over the services in registration
//!   order that runs each one whose `next_check_at` has come. A due check
//!   finds its host's down flag and agent by id, never by name. A due
//!   service of a down host is suppressed (the host/service dependency
//!   rule): it stays due with its state untouched, and runs on the first
//!   tick its host is back.
//!
//! A due check compares numbers: it reads the agent's sample
//! ([`HostAgent::sample`]) and computes its status
//! ([`CheckDefinition::status`]). The plugin's message is formatted
//! ([`CheckDefinition::evaluate`]) only for a PROBLEM or RECOVERY
//! notification, the one output that carries text, and a service's
//! state keeps the sample, not the message.
//!
//! A tick with nothing due allocates nothing. Any other tick allocates
//! its host table (one agent reference per host) and the notifications
//! it pushes; the count does not grow with the number of checks run.
//!
//! Registration order is the order in which the scan-everything
//! reference in `tests/nagios_differential.rs` checks services, so the
//! notification stream is byte-identical to it — pinned by that test
//! and by the notification hash in `exp_scale`.

use std::collections::BTreeMap;

use osdc_sim::{SimDuration, SimTime};

use crate::check::{CheckDefinition, CheckStatus};
use crate::nrpe::HostAgent;

/// Scheduling and escalation settings for one monitored service.
#[derive(Clone, Debug)]
pub struct ServiceDefinition {
    pub host: String,
    pub check: CheckDefinition,
    pub check_interval: SimDuration,
    pub retry_interval: SimDuration,
    pub max_check_attempts: u32,
}

/// Current state of a service as Nagios tracks it.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceState {
    /// Status of the last check (OK before the first).
    pub last_status: CheckStatus,
    /// Consecutive non-OK results so far.
    pub attempts: u32,
    /// Whether the problem has hardened.
    pub hard_problem: bool,
    /// When the service is next due.
    pub next_check_at: SimTime,
    /// The last check's sample: `None` before the first check and when
    /// the agent could not read the metric (UNKNOWN). The plugin message
    /// is not stored; it derives as
    /// `def.check.evaluate(state.last_value).message`.
    pub last_value: Option<f64>,
}

/// An alert delivered to the administrators.
#[derive(Clone, Debug, PartialEq)]
pub struct Notification {
    pub at: SimTime,
    pub host: String,
    pub service: String,
    pub status: CheckStatus,
    pub message: String,
    /// true for PROBLEM, false for RECOVERY.
    pub problem: bool,
}

/// One registered service.
struct Service {
    def: ServiceDefinition,
    state: ServiceState,
    /// The id of `def.host`.
    host: u32,
}

/// The master server.
#[derive(Default)]
pub struct NagiosMaster {
    services: Vec<Service>,
    pub notifications: Vec<Notification>,
    /// Hostnames by host id; ids are dense, in first-seen order.
    host_names: Vec<String>,
    /// Host ids sorted by name, maintained by `add_service`.
    host_order: Vec<u32>,
    /// By host id: an active host-level DOWN alert (service alerts for
    /// the host are suppressed — the classic Nagios dependency rule that
    /// stops one dead server paging once per service).
    hosts_down: Vec<bool>,
}

impl NagiosMaster {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_service(&mut self, def: ServiceDefinition) {
        assert!(def.max_check_attempts >= 1);
        let names = &self.host_names;
        let host = match self
            .host_order
            .binary_search_by(|&h| names[h as usize].cmp(&def.host))
        {
            Ok(pos) => self.host_order[pos],
            Err(pos) => {
                // Every host arrives with a service definition; 2³² of
                // them would need hundreds of GiB, so no master reaches
                // the limit.
                #[allow(clippy::expect_used)]
                let id = u32::try_from(self.host_names.len()).expect("host count fits u32");
                self.host_names.push(def.host.clone());
                self.hosts_down.push(false);
                self.host_order.insert(pos, id);
                id
            }
        };
        let state = ServiceState {
            last_status: CheckStatus::Ok,
            attempts: 0,
            hard_problem: false,
            next_check_at: SimTime::ZERO,
            last_value: None,
        };
        self.services.push(Service { def, state, host });
    }

    /// Run every due service check against the agents at `now`.
    /// `agents` maps hostname → agent.
    ///
    /// Host reachability is checked first (the host check): a host going
    /// dark raises ONE host DOWN alert and suppresses its per-service
    /// alerts until it returns — Nagios's host/service dependency rule.
    pub fn tick(&mut self, now: SimTime, agents: &BTreeMap<String, &HostAgent>) {
        // The pass starts at the first due service. Only due checks read
        // the table of each host's agent, so a tick with none leaves it
        // empty and allocates nothing.
        let first_due = (self.services.iter())
            .position(|s| s.state.next_check_at <= now)
            .unwrap_or(self.services.len());
        let hosts = if first_due < self.services.len() {
            self.host_names.len()
        } else {
            0
        };
        let mut agent_of: Vec<Option<&HostAgent>> = vec![None; hosts];
        self.check_hosts(now, agents, &mut agent_of);

        for Service { def, state, host } in &mut self.services[first_due..] {
            let host = *host as usize;
            // Not due yet, or suppressed: no service checks or alerts
            // while the host is down. A suppressed service stays due and
            // runs on the first tick its host is back.
            if state.next_check_at > now || self.hosts_down[host] {
                continue;
            }
            let value = agent_of[host].and_then(|agent| agent.sample(&def.check));
            let status = def.check.status(value);
            if status == CheckStatus::Ok {
                if state.hard_problem {
                    self.notifications.push(page(now, def, value, false));
                }
                state.hard_problem = false;
                state.attempts = 0;
                state.next_check_at = now + def.check_interval;
            } else {
                state.attempts += 1;
                if state.attempts >= def.max_check_attempts {
                    // Hard state: notify once per hardening, then keep
                    // checking at the normal cadence.
                    if !state.hard_problem {
                        state.hard_problem = true;
                        self.notifications.push(page(now, def, value, true));
                    }
                    state.next_check_at = now + def.check_interval;
                } else {
                    // Soft state: retry quickly.
                    state.next_check_at = now + def.retry_interval;
                }
            }
            state.last_status = status;
            state.last_value = value;
        }
    }

    /// The host checks, one merge walk: the hosts in name order beside
    /// the agent map's entries, which `BTreeMap` also yields in name
    /// order. Alerts on down/up transitions, and records each host's
    /// agent in `agent_of` (by host id) when the tick built the table.
    fn check_hosts<'a>(
        &mut self,
        now: SimTime,
        agents: &BTreeMap<String, &'a HostAgent>,
        agent_of: &mut [Option<&'a HostAgent>],
    ) {
        let mut entries = agents.iter();
        let mut entry = entries.next();
        for &h in &self.host_order {
            let name = &self.host_names[h as usize];
            // Skip map entries that no service names.
            while entry.is_some_and(|(k, _)| k < name) {
                entry = entries.next();
            }
            let agent = entry.filter(|(k, _)| *k == name).map(|(_, a)| *a);
            if let Some(slot) = agent_of.get_mut(h as usize) {
                *slot = agent;
            }
            // A host missing from the map is DOWN.
            let reachable = agent.is_some_and(HostAgent::is_reachable);
            let down = &mut self.hosts_down[h as usize];
            if reachable == *down {
                *down = !reachable;
                let (status, word) = if reachable {
                    (CheckStatus::Ok, "UP")
                } else {
                    (CheckStatus::Critical, "DOWN")
                };
                self.notifications.push(Notification {
                    at: now,
                    host: name.clone(),
                    service: "HOST".into(),
                    status,
                    message: format!("host {name} {word}"),
                    problem: !reachable,
                });
            }
        }
    }

    /// Browser-style console summary: worst status per host.
    pub fn console_summary(&self) -> BTreeMap<String, CheckStatus> {
        let mut by_host: BTreeMap<String, CheckStatus> = BTreeMap::new();
        for Service { def, state, .. } in &self.services {
            let status = if state.hard_problem || state.attempts > 0 {
                state.last_status
            } else {
                CheckStatus::Ok
            };
            by_host
                .entry(def.host.clone())
                .and_modify(|s| *s = (*s).max(status))
                .or_insert(status);
        }
        by_host
    }

    pub fn service_state(&self, host: &str, service: &str) -> Option<&ServiceState> {
        self.services
            .iter()
            .find(|s| s.def.host == host && s.def.check.name == service)
            .map(|s| &s.state)
    }
}

/// A service's PROBLEM or RECOVERY notification: the one place a check's
/// message is formatted.
fn page(now: SimTime, def: &ServiceDefinition, value: Option<f64>, problem: bool) -> Notification {
    let result = def.check.evaluate(value);
    Notification {
        at: now,
        host: def.host.clone(),
        service: def.check.name.clone(),
        status: result.status,
        message: result.message,
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::ThresholdDirection;

    fn svc(host: &str) -> ServiceDefinition {
        ServiceDefinition {
            host: host.to_string(),
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
        }
    }

    fn run_minutes(master: &mut NagiosMaster, agents: &BTreeMap<String, &HostAgent>, minutes: u64) {
        for m in 0..=minutes {
            master.tick(SimTime::ZERO + SimDuration::from_mins(m), agents);
        }
    }

    #[test]
    fn healthy_service_never_notifies() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 40.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        run_minutes(&mut master, &agents, 60);
        assert!(master.notifications.is_empty());
        assert_eq!(master.console_summary()["h1"], CheckStatus::Ok);
    }

    #[test]
    fn problem_hardens_after_max_attempts_then_notifies_once() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 97.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        // t=0 soft1, t=1 soft2, t=2 hard → notify. More ticks: no repeat.
        run_minutes(&mut master, &agents, 30);
        let problems: Vec<&Notification> =
            master.notifications.iter().filter(|n| n.problem).collect();
        assert_eq!(problems.len(), 1, "exactly one PROBLEM alert");
        assert_eq!(problems[0].status, CheckStatus::Critical);
        assert_eq!(problems[0].at, SimTime::ZERO + SimDuration::from_mins(2));
        assert!(
            master
                .service_state("h1", "check_disk")
                .expect("exists")
                .hard_problem
        );
    }

    #[test]
    fn transient_blip_never_hardens() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 97.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        master.tick(SimTime::ZERO, &agents); // soft 1
        agent.metrics.set("disk_used_pct", 30.0); // fixed before retry 3
        run_minutes(&mut master, &agents, 10);
        assert!(master.notifications.is_empty(), "soft states do not alert");
    }

    #[test]
    fn recovery_notifies() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 97.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        run_minutes(&mut master, &agents, 10);
        agent.metrics.set("disk_used_pct", 20.0);
        run_minutes(&mut master, &agents, 20);
        let recoveries: Vec<&Notification> =
            master.notifications.iter().filter(|n| !n.problem).collect();
        assert_eq!(recoveries.len(), 1);
        assert_eq!(recoveries[0].status, CheckStatus::Ok);
        assert!(
            !master
                .service_state("h1", "check_disk")
                .expect("exists")
                .hard_problem
        );
    }

    #[test]
    fn unreachable_host_raises_one_host_alert_and_suppresses_services() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 10.0);
        agent.set_reachable(false);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        run_minutes(&mut master, &agents, 10);
        // Exactly one HOST DOWN; the per-service UNKNOWNs are suppressed.
        let problems: Vec<&Notification> =
            master.notifications.iter().filter(|n| n.problem).collect();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].service, "HOST");
        assert_eq!(problems[0].status, CheckStatus::Critical);
        // Host returns: one UP recovery, then normal service checking.
        agent.set_reachable(true);
        run_minutes(&mut master, &agents, 20);
        let ups: Vec<&Notification> = master
            .notifications
            .iter()
            .filter(|n| !n.problem && n.service == "HOST")
            .collect();
        assert_eq!(ups.len(), 1);
        assert_eq!(master.console_summary()["h1"], CheckStatus::Ok);
    }

    #[test]
    fn nan_gauge_hardens_to_an_unknown_problem() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", f64::NAN);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        run_minutes(&mut master, &agents, 10);
        let problems: Vec<&Notification> =
            master.notifications.iter().filter(|n| n.problem).collect();
        assert_eq!(problems.len(), 1, "a NaN gauge is not silently OK");
        assert_eq!(problems[0].status, CheckStatus::Unknown);
        assert_eq!(problems[0].at, SimTime::ZERO + SimDuration::from_mins(2));
        assert_eq!(
            problems[0].message,
            "check_disk UNKNOWN: disk_used_pct=NaN (w:80 c:95)"
        );
        let state = master.service_state("h1", "check_disk").expect("exists");
        assert!(state.hard_problem);
        assert!(state.last_value.is_some_and(f64::is_nan));
        assert_eq!(master.console_summary()["h1"], CheckStatus::Unknown);
    }

    #[test]
    fn console_shows_worst_state_per_host() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 85.0); // warning
        agent.metrics.set("load1", 20.0); // critical
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        master.add_service(ServiceDefinition {
            host: "h1".into(),
            check: CheckDefinition::new(
                "check_load",
                "load1",
                8.0,
                16.0,
                ThresholdDirection::HighIsBad,
            ),
            check_interval: SimDuration::from_mins(5),
            retry_interval: SimDuration::from_mins(1),
            max_check_attempts: 1,
        });
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        master.tick(SimTime::ZERO, &agents);
        assert_eq!(master.console_summary()["h1"], CheckStatus::Critical);
    }

    #[test]
    fn respects_check_interval() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 10.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        master.tick(SimTime::ZERO, &agents);
        let next = master
            .service_state("h1", "check_disk")
            .expect("exists")
            .next_check_at;
        assert_eq!(next, SimTime::ZERO + SimDuration::from_mins(5));
        // A tick before the interval does nothing (state unchanged).
        master.tick(SimTime::ZERO + SimDuration::from_mins(1), &agents);
        assert_eq!(
            master
                .service_state("h1", "check_disk")
                .expect("exists")
                .next_check_at,
            next
        );
    }

    #[test]
    fn late_registration_lands_behind_the_cursor_and_still_runs() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 10.0);
        let mut master = NagiosMaster::new();
        master.add_service(svc("h1"));
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        // Tick well past second 0 …
        master.tick(SimTime::ZERO + SimDuration::from_mins(20), &agents);
        // … then register a second service (next_check_at = t0).
        master.add_service(ServiceDefinition {
            host: "h1".into(),
            check: CheckDefinition::new(
                "check_load",
                "load1",
                8.0,
                16.0,
                ThresholdDirection::HighIsBad,
            ),
            check_interval: SimDuration::from_mins(5),
            retry_interval: SimDuration::from_mins(1),
            max_check_attempts: 1,
        });
        master.tick(SimTime::ZERO + SimDuration::from_mins(21), &agents);
        let state = master.service_state("h1", "check_load").expect("exists");
        assert_eq!(
            state.next_check_at,
            SimTime::ZERO + SimDuration::from_mins(26),
            "late-added service was checked on the next tick"
        );
    }

    #[test]
    fn intervals_longer_than_one_rotation_wrap_safely() {
        let agent = HostAgent::new("h1");
        agent.metrics.set("disk_used_pct", 10.0);
        let mut master = NagiosMaster::new();
        let mut long = svc("h1");
        long.check_interval = SimDuration::from_secs(2 * 4096);
        master.add_service(long);
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        master.tick(SimTime::ZERO, &agents);
        let due_at = SimTime::ZERO + SimDuration::from_secs(2 * 4096);
        // A tick halfway there: not yet due.
        master.tick(SimTime::ZERO + SimDuration::from_secs(4096), &agents);
        assert_eq!(
            master
                .service_state("h1", "check_disk")
                .expect("exists")
                .next_check_at,
            due_at
        );
        // At the true due time the check runs and re-arms.
        master.tick(due_at, &agents);
        assert_eq!(
            master
                .service_state("h1", "check_disk")
                .expect("exists")
                .next_check_at,
            due_at + SimDuration::from_secs(2 * 4096)
        );
    }
}
