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
//! A [`NagiosMaster::tick`] costs one walk over the hosts plus one
//! threshold comparison per due check. It keeps:
//!
//! * a **due-time wheel**: power-of-two ring of 1-second buckets keyed
//!   by `next_check_at`. A tick scans only the bucket range the clock
//!   advanced over (capped at one full rotation), so per-tick work is
//!   O(elapsed seconds + actually-due services). Far-future entries that
//!   share a slot with due ones are validated lazily (`next_check_at`
//!   compared against `now`) and left for a later rotation.
//! * **host ids**: [`NagiosMaster::add_service`] gives each new host a
//!   dense id in first-seen order, each service stores its host's id,
//!   and the ids are kept sorted by name. The caller's agent map is a
//!   `BTreeMap`, so it iterates in name order too, and each tick walks
//!   the two in step: one merge walk runs the host checks (notifying in
//!   sorted host order) and resolves every host's agent. A due check
//!   then finds its host's down flag and agent by id, never by name. A
//!   host the map lacks is DOWN; map entries no service names are
//!   skipped.
//! * a **parked list**: services that came due while their host was
//!   down (suppressed by the host/service dependency rule) wait off the
//!   wheel and re-enter the due set the first tick their host is back.
//!
//! A due check compares numbers: it reads the agent's sample
//! ([`HostAgent::sample`]) and computes its status
//! ([`CheckDefinition::status`]). The plugin's message is formatted
//! ([`CheckDefinition::evaluate`]) only for a PROBLEM or RECOVERY
//! notification, the one output that carries text, and a service's
//! state keeps the sample, not the message.
//!
//! A tick with nothing due and nothing parked allocates nothing. Any
//! other tick allocates its host table (one agent reference per host,
//! built only then), whatever wheel buckets grow, and the notifications
//! it pushes; the count does not grow with the number of checks run.
//!
//! Due services are processed in ascending service-registration order,
//! exactly like the old full scan, so the notification stream is
//! byte-identical — pinned by a differential test against the scan
//! implementation and by trace hashes in `exp_scale`.

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

/// Wheel geometry: 4096 × 1 s slots = a 68-minute rotation, comfortably
/// above the check cadences in use; anything longer wraps and is caught
/// by lazy validation on a later rotation.
const WHEEL_BITS: u32 = 12;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const SLOT_NANOS: u64 = 1_000_000_000;

/// One registered service.
struct Service {
    def: ServiceDefinition,
    state: ServiceState,
    /// The id of `def.host`.
    host: u32,
}

/// The master server.
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
    /// `next_check_at`-keyed ring of service indices.
    wheel: Vec<Vec<u32>>,
    /// Last absolute second the wheel scan covered.
    cursor_sec: u64,
    /// Due services whose host was down when they came due.
    parked: Vec<u32>,
    /// Retained scratch for the per-tick due set.
    due_scratch: Vec<u32>,
}

impl Default for NagiosMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl NagiosMaster {
    pub fn new() -> Self {
        NagiosMaster {
            services: Vec::new(),
            notifications: Vec::new(),
            host_names: Vec::new(),
            host_order: Vec::new(),
            hosts_down: Vec::new(),
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            cursor_sec: 0,
            parked: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    fn slot_of(sec: u64) -> usize {
        (sec & WHEEL_MASK) as usize
    }

    pub fn add_service(&mut self, def: ServiceDefinition) {
        assert!(def.max_check_attempts >= 1);
        // The wheel and the parked list hold service indices as `u32`;
        // 2³² service definitions would need hundreds of GiB, so no
        // master reaches the limit.
        #[allow(clippy::expect_used)]
        let idx = u32::try_from(self.services.len()).expect("service count fits u32");
        let names = &self.host_names;
        let host = match self
            .host_order
            .binary_search_by(|&h| names[h as usize].cmp(&def.host))
        {
            Ok(pos) => self.host_order[pos],
            Err(pos) => {
                // Every host arrives with a service, so there are never
                // more hosts than services, and `idx` above fit.
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
        // Clamp to the cursor so a service registered after ticking
        // lands in a slot the scan will still visit.
        let sec = (state.next_check_at.as_nanos() / SLOT_NANOS).max(self.cursor_sec);
        self.wheel[Self::slot_of(sec)].push(idx);
        self.services.push(Service { def, state, host });
    }

    /// Run every due service check against the agents at `now`.
    /// `agents` maps hostname → agent.
    ///
    /// Host reachability is checked first (the host check): a host going
    /// dark raises ONE host DOWN alert and suppresses its per-service
    /// alerts until it returns — Nagios's host/service dependency rule.
    pub fn tick(&mut self, now: SimTime, agents: &BTreeMap<String, &HostAgent>) {
        // Advance the wheel: collect every service due by `now` from the
        // slots the clock crossed since the last tick. Entries whose
        // `next_check_at` is still in the future (wrapped, or due later
        // within the current second) stay in their bucket.
        let now_sec = now.as_nanos() / SLOT_NANOS;
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        let first = self.cursor_sec.min(now_sec);
        let mut drain = |slot: usize, due: &mut Vec<u32>| {
            let bucket = &mut self.wheel[slot];
            let mut i = 0;
            while i < bucket.len() {
                let idx = bucket[i];
                if self.services[idx as usize].state.next_check_at <= now {
                    bucket.swap_remove(i);
                    due.push(idx);
                } else {
                    i += 1;
                }
            }
        };
        if now_sec - first + 1 >= WHEEL_SLOTS as u64 {
            // Full rotation (or more) elapsed: every slot exactly once.
            for slot in 0..WHEEL_SLOTS {
                drain(slot, &mut due);
            }
        } else {
            // The current second is re-scanned next tick (sub-second
            // due times may still be pending in it), so the cursor
            // lands *on* `now_sec`, not past it.
            for sec in first..=now_sec {
                drain(Self::slot_of(sec), &mut due);
            }
        }
        self.cursor_sec = now_sec;

        // Each host's agent by host id. Only due services read it, and
        // parked ones may rejoin them below, so a tick with neither
        // leaves it empty and allocates nothing.
        let mut agent_of: Vec<Option<&HostAgent>> = if due.is_empty() && self.parked.is_empty() {
            Vec::new()
        } else {
            vec![None; self.host_names.len()]
        };
        self.check_hosts(now, agents, &mut agent_of);

        // Parked services whose host recovered re-enter the due set.
        let mut parked = std::mem::take(&mut self.parked);
        parked.retain(|&idx| {
            let down = self.hosts_down[self.services[idx as usize].host as usize];
            if !down {
                due.push(idx);
            }
            down
        });
        self.parked = parked;

        // Registration order = the old full-scan visiting order, which
        // keeps the notification stream byte-identical.
        due.sort_unstable();

        for &idx in &due {
            let Service { def, state, host } = &mut self.services[idx as usize];
            let host = *host as usize;
            // Suppression: no service checks/alerts while the host is
            // down. The service waits off-wheel until the host returns.
            if self.hosts_down[host] {
                self.parked.push(idx);
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
            let sec = state.next_check_at.as_nanos() / SLOT_NANOS;
            self.wheel[Self::slot_of(sec)].push(idx);
        }
        self.due_scratch = due;
    }

    /// The host checks, one merge walk: the hosts in name order beside
    /// the agent map's entries, which `BTreeMap` also yields in name
    /// order. Alerts on down/up transitions, and records each host's
    /// agent in `agent_of` (by host id) when the table was built.
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
        // Advance the cursor well past second 0 …
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
        long.check_interval = SimDuration::from_secs(2 * WHEEL_SLOTS as u64); // 2 rotations
        master.add_service(long);
        let agents = BTreeMap::from([("h1".to_string(), &agent)]);
        master.tick(SimTime::ZERO, &agents);
        let due_at = SimTime::ZERO + SimDuration::from_secs(2 * WHEEL_SLOTS as u64);
        // A tick one rotation in: same slot, but lazily validated as not
        // yet due.
        master.tick(
            SimTime::ZERO + SimDuration::from_secs(WHEEL_SLOTS as u64),
            &agents,
        );
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
            due_at + SimDuration::from_secs(2 * WHEEL_SLOTS as u64)
        );
    }
}
