//! The resilience scorecard: what a chaos campaign actually measures.
//!
//! A [`ScoreTracker`] rides along with the campaign driver, pairing each
//! injected fault with the moment its station recovered (MTTR), with the
//! first hard Nagios alert it provoked (detection latency), and with any
//! data it destroyed. [`ResilienceScorecard::render`] prints the fixed
//! layout the `exp_resilience` harness tabulates — deliberately free of
//! anything nondeterministic, so two same-seed campaigns render
//! byte-identically.

use osdc_sim::{SimDuration, SimTime};
use osdc_telemetry::Telemetry;

/// Aggregated results of one campaign configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceScorecard {
    /// Configuration label, e.g. `v3.3 + exp-backoff`.
    pub config: String,
    /// Inject actions actually applied (flap cycles count once each).
    pub faults_injected: u64,
    /// Inject actions the target subsystem refused (a target the rig
    /// lacks); they change nothing else on the card.
    pub faults_rejected: u64,
    /// Faults whose station returned to service during the campaign.
    pub recovery_events: u64,
    /// Sum over recoveries of (recovered_at − injected_at).
    pub total_repair: SimDuration,
    /// Files unrecoverable at audit: lost replicas plus unhealed bit-rot.
    pub files_lost: u64,
    /// Ingest writes abandoned after the retry policy gave up.
    pub writes_dropped: u64,
    /// Files a self-heal pass re-copied or reconciled.
    pub heal_repaired: u64,
    /// Instances killed by compute faults, and how many were relaunched.
    pub instances_killed: u32,
    pub instances_relaunched: u32,
    /// Hard PROBLEM notifications Nagios raised, and the summed latency
    /// from fault injection to the matching first alert.
    pub alerts_raised: u64,
    pub total_alert_latency: SimDuration,
    /// Servers the provisioning pipeline converged / abandoned under the
    /// Chef fault.
    pub provision_ready: u32,
    pub provision_failed: u32,
    /// Payload bytes the WAN bulk flow completed by campaign end.
    pub transfer_bytes_done: u64,
}

impl ResilienceScorecard {
    /// Mean time to repair, seconds; 0 when nothing recovered.
    pub fn mttr_secs(&self) -> f64 {
        if self.recovery_events == 0 {
            0.0
        } else {
            self.total_repair.as_secs_f64() / self.recovery_events as f64
        }
    }

    /// Mean fault → hard-alert latency, seconds; 0 when nothing alerted.
    pub fn alert_latency_secs(&self) -> f64 {
        if self.alerts_raised == 0 {
            0.0
        } else {
            self.total_alert_latency.as_secs_f64() / self.alerts_raised as f64
        }
    }

    /// Total data-loss incidents: files gone plus ingest writes dropped.
    pub fn data_loss_incidents(&self) -> u64 {
        self.files_lost + self.writes_dropped
    }

    /// The fixed multi-line rendering (deterministic across same-seed
    /// runs — no wall-clock, no pointer-order, fixed float precision).
    /// The `faults rejected` line appears only when an inject was
    /// refused.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("resilience scorecard — {}\n", self.config));
        s.push_str(&format!(
            "  faults injected           {:>8}\n",
            self.faults_injected
        ));
        if self.faults_rejected > 0 {
            s.push_str(&format!(
                "  faults rejected           {:>8}\n",
                self.faults_rejected
            ));
        }
        s.push_str(&format!(
            "  recovery events           {:>8}\n",
            self.recovery_events
        ));
        s.push_str(&format!(
            "  MTTR                      {:>8.1} s\n",
            self.mttr_secs()
        ));
        s.push_str(&format!(
            "  data-loss incidents       {:>8}   ({} files lost, {} writes dropped)\n",
            self.data_loss_incidents(),
            self.files_lost,
            self.writes_dropped
        ));
        s.push_str(&format!(
            "  files healed              {:>8}\n",
            self.heal_repaired
        ));
        s.push_str(&format!(
            "  instances killed/relaunch {:>5} / {}\n",
            self.instances_killed, self.instances_relaunched
        ));
        s.push_str(&format!(
            "  fault→alert latency       {:>8.1} s   ({} hard alerts)\n",
            self.alert_latency_secs(),
            self.alerts_raised
        ));
        s.push_str(&format!(
            "  provision ready/failed    {:>5} / {}\n",
            self.provision_ready, self.provision_failed
        ));
        s.push_str(&format!(
            "  bulk transfer completed   {:>8} MB\n",
            self.transfer_bytes_done / 1_000_000
        ));
        s
    }

    /// Publish the scorecard into a telemetry handle so `--trace`
    /// artifacts carry the campaign verdict alongside the raw spans.
    /// Like [`ResilienceScorecard::render`], it leaves out
    /// `faults_rejected` when no inject was refused.
    pub fn export(&self, tele: &Telemetry) {
        let c = |name: &str, v: u64| tele.add(tele.counter(name), v);
        let g = |name: &str, v: f64| tele.set_gauge(tele.gauge(name), v);
        c("chaos.faults_injected", self.faults_injected);
        if self.faults_rejected > 0 {
            c("chaos.faults_rejected", self.faults_rejected);
        }
        c("chaos.recovery_events", self.recovery_events);
        c("chaos.files_lost", self.files_lost);
        c("chaos.writes_dropped", self.writes_dropped);
        c("chaos.heal_repaired", self.heal_repaired);
        c("chaos.alerts_raised", self.alerts_raised);
        c("chaos.instances_killed", self.instances_killed as u64);
        c(
            "chaos.instances_relaunched",
            self.instances_relaunched as u64,
        );
        g("chaos.mttr_secs", self.mttr_secs());
        g("chaos.alert_latency_secs", self.alert_latency_secs());
        g("chaos.transfer_bytes_done", self.transfer_bytes_done as f64);
    }
}

/// An injected fault still waiting for its recovery / first alert.
#[derive(Clone, Debug)]
struct Outstanding {
    key: String,
    injected_at: SimTime,
    wants_alert: bool,
}

/// Accumulates scorecard entries while the campaign runs.
#[derive(Debug, Default)]
pub struct ScoreTracker {
    pub card: ResilienceScorecard,
    open: Vec<Outstanding>,
    /// Notifications already matched, so each alert is counted once.
    alerts_seen: usize,
}

impl ScoreTracker {
    pub fn new(config: impl Into<String>) -> Self {
        ScoreTracker {
            card: ResilienceScorecard {
                config: config.into(),
                ..ResilienceScorecard::default()
            },
            open: Vec::new(),
            alerts_seen: 0,
        }
    }

    /// Record an applied inject action. `key` names the station (used to
    /// pair the later recovery); `wants_alert` marks faults Nagios is
    /// expected to page on.
    pub fn fault(&mut self, key: impl Into<String>, at: SimTime, wants_alert: bool) {
        self.card.faults_injected += 1;
        self.open.push(Outstanding {
            key: key.into(),
            injected_at: at,
            wants_alert,
        });
    }

    /// Whether the station keyed `key` has an unrecovered fault.
    pub fn is_open(&self, key: &str) -> bool {
        self.open.iter().any(|o| o.key == key)
    }

    /// The station recovered: close its oldest outstanding fault.
    pub fn recovered(&mut self, key: &str, at: SimTime) {
        if let Some(pos) = self.open.iter().position(|o| o.key == key) {
            let o = self.open.remove(pos);
            self.card.recovery_events += 1;
            self.card.total_repair += at.saturating_since(o.injected_at);
        }
    }

    /// Match freshly raised hard PROBLEM notifications (FIFO) against the
    /// oldest outstanding alert-expecting fault.
    pub fn alerts(&mut self, notifications: &[osdc_monitor::Notification]) {
        while self.alerts_seen < notifications.len() {
            let n = &notifications[self.alerts_seen];
            self.alerts_seen += 1;
            if !n.problem {
                continue;
            }
            if let Some(pos) = self.open.iter().position(|o| o.wants_alert) {
                let injected_at = self.open[pos].injected_at;
                self.open[pos].wants_alert = false; // one alert per fault
                self.card.alerts_raised += 1;
                self.card.total_alert_latency += n.at.saturating_since(injected_at);
            }
        }
    }

    /// Faults never recovered by campaign end (reported, not scored).
    pub fn still_open(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_monitor::Notification;
    use osdc_sim::SimDuration;

    fn t(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    #[test]
    fn mttr_averages_over_recoveries() {
        let mut tr = ScoreTracker::new("test");
        tr.fault("net", t(0), false);
        tr.fault("api:adler", t(2), false);
        tr.recovered("net", t(4));
        tr.recovered("api:adler", t(8));
        assert_eq!(tr.card.recovery_events, 2);
        assert!((tr.card.mttr_secs() - 300.0).abs() < 1e-9, "(4+6)/2 min");
        assert_eq!(tr.still_open(), 0);
    }

    #[test]
    fn unmatched_recovery_is_ignored() {
        let mut tr = ScoreTracker::new("test");
        tr.recovered("ghost", t(1));
        assert_eq!(tr.card.recovery_events, 0);
    }

    #[test]
    fn alert_latency_pairs_fifo_and_counts_once() {
        let mut tr = ScoreTracker::new("test");
        tr.fault("storage:brick0", t(10), true);
        let note = |mins, problem| Notification {
            at: t(mins),
            host: "vol-server0".into(),
            service: "check_disk".into(),
            status: osdc_monitor::CheckStatus::Critical,
            message: "disk".into(),
            problem,
        };
        tr.alerts(&[note(12, true)]);
        // A second PROBLEM for the same fault must not double-count.
        tr.alerts(&[note(12, true), note(15, true), note(16, false)]);
        assert_eq!(tr.card.alerts_raised, 1);
        assert!((tr.card.alert_latency_secs() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_stable() {
        let mut tr = ScoreTracker::new("v3.3 + exp-backoff");
        tr.fault("x", t(0), false);
        tr.recovered("x", t(5));
        let a = tr.card.render();
        assert!(a.contains("MTTR"));
        assert!(a.contains("300.0 s"));
        assert_eq!(a, tr.card.render(), "rendering is pure");
    }

    #[test]
    fn export_publishes_counters_and_gauges() {
        let tele = Telemetry::new();
        let mut tr = ScoreTracker::new("test");
        tr.fault("x", t(0), false);
        tr.recovered("x", t(1));
        tr.card.files_lost = 3;
        tr.card.export(&tele);
        assert_eq!(tele.counter_value("chaos.files_lost"), 3);
        assert_eq!(tele.gauge_value("chaos.mttr_secs"), Some(60.0));
    }
}
