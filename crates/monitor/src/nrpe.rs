//! The NRPE agent: per-host metric stores the master polls remotely.
//!
//! "Nagios uses an agent, NRPE, to monitor the remote hosts in our
//! environments and the services we wish to monitor on the remote hosts."
//! A [`MetricStore`] stands in for the host's local plugins (simulated
//! subsystems publish their gauges into it); a [`HostAgent`] is the
//! reachable endpoint — if the host is down, checks come back UNKNOWN,
//! exactly as a TCP-refused NRPE does.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use crate::check::{CheckDefinition, CheckResult};

/// Gauges published on one host.
#[derive(Debug, Default)]
pub struct MetricStore {
    values: RwLock<BTreeMap<String, f64>>,
}

impl MetricStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `metric`. Only its first publication allocates (the
    /// key); later updates overwrite the value in place.
    pub fn set(&self, metric: &str, value: f64) {
        let mut values = self.values.write();
        if let Some(v) = values.get_mut(metric) {
            *v = value;
        } else {
            values.insert(metric.to_string(), value);
        }
    }

    pub fn get(&self, metric: &str) -> Option<f64> {
        self.values.read().get(metric).copied()
    }

    pub fn remove(&self, metric: &str) {
        self.values.write().remove(metric);
    }
}

/// One monitored host running an NRPE agent.
pub struct HostAgent {
    pub hostname: String,
    pub metrics: MetricStore,
    reachable: RwLock<bool>,
}

impl HostAgent {
    pub fn new(hostname: impl Into<String>) -> Self {
        HostAgent {
            hostname: hostname.into(),
            metrics: MetricStore::new(),
            reachable: RwLock::new(true),
        }
    }

    /// Simulate host/network failure and recovery.
    pub fn set_reachable(&self, up: bool) {
        *self.reachable.write() = up;
    }

    pub fn is_reachable(&self) -> bool {
        *self.reachable.read()
    }

    /// The value a check reads: `None` when the host is unreachable or
    /// the metric is unpublished.
    pub fn sample(&self, def: &CheckDefinition) -> Option<f64> {
        if !self.is_reachable() {
            return None;
        }
        self.metrics.get(&def.metric)
    }

    /// The master asks the agent to run a check ("the master server, via
    /// the agent, asks for checks to be run").
    pub fn run_check(&self, def: &CheckDefinition) -> CheckResult {
        def.evaluate(self.sample(def))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckStatus, ThresholdDirection};

    fn load_check() -> CheckDefinition {
        CheckDefinition::new(
            "check_load",
            "load1",
            8.0,
            16.0,
            ThresholdDirection::HighIsBad,
        )
    }

    #[test]
    fn agent_serves_metrics() {
        let agent = HostAgent::new("gluster-brick-3");
        agent.metrics.set("load1", 2.5);
        let r = agent.run_check(&load_check());
        assert_eq!(r.status, CheckStatus::Ok);
        assert_eq!(r.value, Some(2.5));
    }

    #[test]
    fn unreachable_host_is_unknown() {
        let agent = HostAgent::new("down-host");
        agent.metrics.set("load1", 1.0);
        agent.set_reachable(false);
        assert_eq!(agent.run_check(&load_check()).status, CheckStatus::Unknown);
        agent.set_reachable(true);
        assert_eq!(agent.run_check(&load_check()).status, CheckStatus::Ok);
    }

    #[test]
    fn unpublished_metric_is_unknown() {
        let agent = HostAgent::new("fresh-host");
        assert_eq!(agent.run_check(&load_check()).status, CheckStatus::Unknown);
    }

    #[test]
    fn metrics_update_and_remove() {
        let store = MetricStore::new();
        store.set("x", 1.0);
        store.set("x", 2.0);
        assert_eq!(store.get("x"), Some(2.0));
        store.remove("x");
        assert_eq!(store.get("x"), None);
    }
}
