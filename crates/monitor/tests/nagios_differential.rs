//! Differential proptest: [`NagiosMaster`] (one host merge walk, then one
//! pass over the due services by host id) against a verbatim port of the
//! old scan-everything implementation. Random fleets, metric drift, host
//! flapping and irregular tick cadences must produce a **byte-identical**
//! notification stream and identical end-state (per-service states and
//! console summary). The scan runs the full plugin (`run_check`, message
//! included) on every check and keeps its last message, so the master's
//! stored sample must reproduce that message exactly. Deterministic cases
//! pin the edges of the master's host walk: an agent map that lacks a
//! monitored host or carries hosts no service names, and a host
//! registered after ticking whose name sorts first.

use std::collections::BTreeMap;

use osdc_monitor::check::{CheckDefinition, CheckStatus, ThresholdDirection};
use osdc_monitor::nagios::{NagiosMaster, Notification, ServiceDefinition, ServiceState};
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The scan-everything master: rebuilds the host list and runs the full
/// plugin for every due service on every tick. Kept as the reference semantics. Each service carries
/// its last check's message (`None` before the first check).
struct ScanMaster {
    services: Vec<(ServiceDefinition, ServiceState, Option<String>)>,
    notifications: Vec<Notification>,
    hosts_down: std::collections::BTreeSet<String>,
}

impl ScanMaster {
    fn new() -> Self {
        ScanMaster {
            services: Vec::new(),
            notifications: Vec::new(),
            hosts_down: std::collections::BTreeSet::new(),
        }
    }

    fn add_service(&mut self, def: ServiceDefinition) {
        assert!(def.max_check_attempts >= 1);
        let state = ServiceState {
            last_status: CheckStatus::Ok,
            attempts: 0,
            hard_problem: false,
            next_check_at: SimTime::ZERO,
            last_value: None,
        };
        self.services.push((def, state, None));
    }

    fn tick(&mut self, now: SimTime, agents: &BTreeMap<String, &HostAgent>) {
        let mut hosts: Vec<String> = self
            .services
            .iter()
            .map(|(d, _, _)| d.host.clone())
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        for host in hosts {
            let reachable = agents.get(&host).map(|a| a.is_reachable()).unwrap_or(false);
            if !reachable && !self.hosts_down.contains(&host) {
                self.hosts_down.insert(host.clone());
                self.notifications.push(Notification {
                    at: now,
                    host: host.clone(),
                    service: "HOST".into(),
                    status: CheckStatus::Critical,
                    message: format!("host {host} DOWN"),
                    problem: true,
                });
            } else if reachable && self.hosts_down.remove(&host) {
                self.notifications.push(Notification {
                    at: now,
                    host: host.clone(),
                    service: "HOST".into(),
                    status: CheckStatus::Ok,
                    message: format!("host {host} UP"),
                    problem: false,
                });
            }
        }
        for (def, state, last_message) in &mut self.services {
            if self.hosts_down.contains(&def.host) {
                continue;
            }
            if now < state.next_check_at {
                continue;
            }
            let result = match agents.get(&def.host) {
                Some(agent) => agent.run_check(&def.check),
                None => def.check.evaluate(None),
            };
            state.last_value = result.value;
            *last_message = Some(result.message.clone());
            let ok = result.status == CheckStatus::Ok;
            if ok {
                if state.hard_problem {
                    self.notifications.push(Notification {
                        at: now,
                        host: def.host.clone(),
                        service: def.check.name.clone(),
                        status: CheckStatus::Ok,
                        message: result.message.clone(),
                        problem: false,
                    });
                }
                state.hard_problem = false;
                state.attempts = 0;
                state.last_status = CheckStatus::Ok;
                state.next_check_at = now + def.check_interval;
            } else {
                state.attempts += 1;
                state.last_status = result.status;
                if state.attempts >= def.max_check_attempts {
                    if !state.hard_problem {
                        state.hard_problem = true;
                        self.notifications.push(Notification {
                            at: now,
                            host: def.host.clone(),
                            service: def.check.name.clone(),
                            status: result.status,
                            message: result.message.clone(),
                            problem: true,
                        });
                    }
                    state.next_check_at = now + def.check_interval;
                } else {
                    state.next_check_at = now + def.retry_interval;
                }
            }
        }
    }
}

/// One step of the random scenario: mutate the fleet, then tick both
/// masters at the same instant.
#[derive(Clone, Debug)]
struct Step {
    /// Seconds since the previous tick.
    dt_secs: u64,
    /// (host index, metric index, value).
    metric_updates: Vec<(usize, usize, f64)>,
    /// Hosts whose reachability toggles before this tick.
    flips: Vec<usize>,
}

const METRICS: [&str; 3] = ["disk_used_pct", "load1", "free_mb"];

/// A reachable agent publishing healthy values for every metric.
fn healthy_agent(name: &str) -> HostAgent {
    let a = HostAgent::new(name);
    a.metrics.set("disk_used_pct", 40.0);
    a.metrics.set("load1", 1.0);
    a.metrics.set("free_mb", 100_000.0);
    a
}

/// Service `s` of a fleet, on `host`.
fn service(s: usize, host: String) -> ServiceDefinition {
    let (metric, warn, crit, dir) = match s % 3 {
        0 => ("disk_used_pct", 80.0, 95.0, ThresholdDirection::HighIsBad),
        1 => ("load1", 8.0, 16.0, ThresholdDirection::HighIsBad),
        _ => ("free_mb", 10_000.0, 1_000.0, ThresholdDirection::LowIsBad),
    };
    ServiceDefinition {
        host,
        check: CheckDefinition::new(format!("check_{s}"), metric, warn, crit, dir),
        check_interval: SimDuration::from_secs(60 + 60 * (s as u64 % 5)),
        retry_interval: SimDuration::from_secs(15 + 10 * (s as u64 % 3)),
        max_check_attempts: 1 + (s as u32 % 3),
    }
}

fn fleet(n_hosts: usize, n_services: usize) -> (Vec<HostAgent>, Vec<ServiceDefinition>) {
    let agents: Vec<HostAgent> = (0..n_hosts)
        .map(|h| healthy_agent(&format!("h{h}")))
        .collect();
    let defs: Vec<ServiceDefinition> = (0..n_services)
        .map(|s| service(s, format!("h{}", s % n_hosts)))
        .collect();
    (agents, defs)
}

fn step(dt_secs: u64, metric_updates: Vec<(usize, usize, f64)>, flips: Vec<usize>) -> Step {
    Step {
        dt_secs,
        metric_updates,
        flips,
    }
}

fn step_strategy(n_hosts: usize) -> impl Strategy<Value = Step> {
    (
        0u64..400,
        prop::collection::vec((0..n_hosts, 0usize..3, 0.0f64..120_000.0), 0..4),
        prop::collection::vec(0..n_hosts, 0..2),
    )
        .prop_map(|(dt_secs, metric_updates, flips)| Step {
            dt_secs,
            metric_updates,
            flips,
        })
}

fn run_differential(n_hosts: usize, n_services: usize, steps: &[Step]) -> Result<(), String> {
    let (agents, defs) = fleet(n_hosts, n_services);
    let agent_map: BTreeMap<String, &HostAgent> =
        agents.iter().map(|a| (a.hostname.clone(), a)).collect();
    run_scenario(&agents, &agent_map, &defs, &[], steps)
}

/// Tick both masters through `steps` against `agent_map`. Step host
/// indices address `agents`, which may hold agents the map leaves out.
/// Each `late` entry `(k, def)` is registered with both masters just
/// before step `k`'s tick.
fn run_scenario(
    agents: &[HostAgent],
    agent_map: &BTreeMap<String, &HostAgent>,
    defs: &[ServiceDefinition],
    late: &[(usize, ServiceDefinition)],
    steps: &[Step],
) -> Result<(), String> {
    let mut master = NagiosMaster::new();
    let mut scan = ScanMaster::new();
    for def in defs {
        master.add_service(def.clone());
        scan.add_service(def.clone());
    }
    let mut now = SimTime::ZERO;
    for (k, step) in steps.iter().enumerate() {
        for (_, def) in late.iter().filter(|(at, _)| *at == k) {
            master.add_service(def.clone());
            scan.add_service(def.clone());
        }
        for &(h, m, v) in &step.metric_updates {
            // LowIsBad metrics get scaled-down values so both directions
            // cross their thresholds.
            let v = if m == 2 { v } else { v / 1000.0 };
            agents[h].metrics.set(METRICS[m], v);
        }
        for &h in &step.flips {
            agents[h].set_reachable(!agents[h].is_reachable());
        }
        now += SimDuration::from_secs(step.dt_secs);
        master.tick(now, agent_map);
        scan.tick(now, agent_map);
        if master.notifications != scan.notifications {
            return Err(format!(
                "notification streams diverged at {now:?}:\n master {:?}\n scan {:?}",
                master.notifications, scan.notifications
            ));
        }
    }
    for def in defs.iter().chain(late.iter().map(|(_, d)| d)) {
        let w = master.service_state(&def.host, &def.check.name);
        let s = scan
            .services
            .iter()
            .find(|(d, _, _)| d.host == def.host && d.check.name == def.check.name);
        let agree = match (w, s) {
            (Some(w), Some((_, s, last_message))) => {
                same_state(w, s)
                    && last_message
                        .as_ref()
                        .is_none_or(|m| def.check.evaluate(w.last_value).message == *m)
            }
            _ => false,
        };
        if !agree {
            return Err(format!(
                "state diverged for {}/{}: master {w:?}, scan {s:?}",
                def.host, def.check.name
            ));
        }
    }
    Ok(())
}

/// Field-wise equality, with `last_value` compared by bits: the derived
/// `PartialEq` would call a NaN sample unequal to itself.
fn same_state(a: &ServiceState, b: &ServiceState) -> bool {
    let bits = |s: &ServiceState| s.last_value.map(f64::to_bits);
    let rest = |s: &ServiceState| ServiceState {
        last_value: None,
        ..s.clone()
    };
    bits(a) == bits(b) && rest(a) == rest(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_matches_full_scan(
        n_hosts in 1usize..5,
        n_services in 1usize..13,
        steps in prop::collection::vec(step_strategy(4), 1..50),
    ) {
        // step_strategy's host indices are generated against the max
        // fleet; clamp them into range.
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|mut s| {
                for u in &mut s.metric_updates {
                    u.0 %= n_hosts;
                }
                for f in &mut s.flips {
                    *f %= n_hosts;
                }
                s
            })
            .collect();
        if let Err(why) = run_differential(n_hosts, n_services, &steps) {
            prop_assert!(false, "{}", why);
        }
    }
}

/// Host flap racing a hardened problem, pinned deterministically: the
/// services that came due while their host was down must run in
/// registration order when the host returns.
#[test]
fn flap_with_hard_problem_matches_scan() {
    let steps: Vec<Step> = vec![
        Step {
            dt_secs: 0,
            metric_updates: vec![(0, 0, 97_000.0), (1, 1, 20_000.0)],
            flips: vec![],
        },
        Step {
            dt_secs: 30,
            metric_updates: vec![],
            flips: vec![0],
        },
        Step {
            dt_secs: 60,
            metric_updates: vec![],
            flips: vec![],
        },
        Step {
            dt_secs: 90,
            metric_updates: vec![],
            flips: vec![0],
        },
        Step {
            dt_secs: 120,
            metric_updates: vec![(0, 0, 20_000.0)],
            flips: vec![],
        },
        Step {
            dt_secs: 600,
            metric_updates: vec![],
            flips: vec![],
        },
    ];
    run_differential(2, 6, &steps).expect("master and scan agree");
}

/// The merge walk's edges: the agent map lacks monitored host `h2` (it
/// stays DOWN, its services due but suppressed) and carries four hosts no service
/// names: one before all monitored hosts, one between two present ones,
/// one just before the missing one, one after all. Drift and flaps reach
/// every host, the unmonitored ones included, and one gauge goes NaN.
#[test]
fn agent_map_gaps_and_strays_match_scan() {
    let (mut agents, defs) = fleet(4, 12);
    let strays = ["a-spare", "h0-spare", "h1-spare", "z-spare"];
    agents.extend(strays.iter().map(|name| healthy_agent(name)));
    let agent_map: BTreeMap<String, &HostAgent> = agents
        .iter()
        .filter(|a| a.hostname != "h2")
        .map(|a| (a.hostname.clone(), a))
        .collect();
    let steps = [
        step(0, vec![(0, 0, 97_000.0), (3, 2, 500.0)], vec![4]),
        step(45, vec![(2, 1, 20_000.0), (5, 0, 99_000.0)], vec![1, 5]),
        step(60, vec![(1, 1, f64::NAN)], vec![6]),
        step(90, vec![], vec![1, 4]),
        step(120, vec![(0, 0, 10_000.0), (3, 2, 90_000.0)], vec![2, 7]),
        step(600, vec![], vec![]),
    ];
    run_scenario(&agents, &agent_map, &defs, &[], &steps).expect("master and scan agree");
}

/// A service registered after ticking, for a new host whose name sorts
/// before every existing one: its id comes last, its place in the host
/// order first. Its agent sits in the map from the start, unmonitored
/// until then.
#[test]
fn late_host_sorting_first_matches_scan() {
    let (mut agents, defs) = fleet(3, 6);
    agents.push(healthy_agent("a0"));
    let agent_map: BTreeMap<String, &HostAgent> =
        agents.iter().map(|a| (a.hostname.clone(), a)).collect();
    let late = [(2, service(0, "a0".into())), (2, service(7, "a0".into()))];
    let steps = [
        step(0, vec![(0, 0, 97_000.0)], vec![]),
        step(60, vec![(3, 0, 99_000.0)], vec![3]),
        step(60, vec![], vec![3]),
        step(30, vec![(3, 1, 20_000.0)], vec![]),
        step(30, vec![], vec![3, 1]),
        step(120, vec![(3, 0, 10_000.0)], vec![3]),
        step(600, vec![], vec![1]),
    ];
    run_scenario(&agents, &agent_map, &defs, &late, &steps).expect("master and scan agree");
}
