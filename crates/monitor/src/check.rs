//! Nagios-plugin-style checks: metric vs. warning/critical thresholds.
//!
//! "The master server, via the agent, asks for checks to be run and
//! returns the values to the master server using binary plugins with
//! arguments that designate the thresholds for 'Warning' and 'Critical'
//! alerts."
//!
//! A check has two outputs with very different costs.
//! [`CheckDefinition::status`] is the threshold comparison alone and
//! allocates nothing; the master runs it on every due check.
//! [`CheckDefinition::evaluate`] adds the plugin's perf-data message,
//! which only a notification carries.

/// Nagios exit-status vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckStatus {
    Ok,
    Warning,
    Critical,
    /// Plugin could not obtain the metric (agent down, unknown metric)
    /// or obtained a NaN.
    Unknown,
}

impl CheckStatus {
    pub fn label(self) -> &'static str {
        match self {
            CheckStatus::Ok => "OK",
            CheckStatus::Warning => "WARNING",
            CheckStatus::Critical => "CRITICAL",
            CheckStatus::Unknown => "UNKNOWN",
        }
    }
}

/// Whether high values are bad (disk %, load) or low values are (free MB,
/// replica count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdDirection {
    HighIsBad,
    LowIsBad,
}

/// A check definition: which metric, and the `-w`/`-c` thresholds.
#[derive(Clone, Debug)]
pub struct CheckDefinition {
    pub name: String,
    pub metric: String,
    pub warning: f64,
    pub critical: f64,
    pub direction: ThresholdDirection,
}

/// A completed check.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckResult {
    pub status: CheckStatus,
    pub message: String,
    /// The sampled value (absent when the metric could not be read).
    pub value: Option<f64>,
}

impl CheckDefinition {
    pub fn new(
        name: impl Into<String>,
        metric: impl Into<String>,
        warning: f64,
        critical: f64,
        direction: ThresholdDirection,
    ) -> Self {
        let def = CheckDefinition {
            name: name.into(),
            metric: metric.into(),
            warning,
            critical,
            direction,
        };
        match direction {
            ThresholdDirection::HighIsBad => {
                assert!(warning <= critical, "warning must trip before critical")
            }
            ThresholdDirection::LowIsBad => {
                assert!(warning >= critical, "warning must trip before critical")
            }
        }
        def
    }

    /// The threshold comparison for a sampled value: no message, no
    /// allocation. `None` is UNKNOWN, and so is NaN: every ordered
    /// comparison with NaN is false, so it would otherwise read as OK in
    /// either direction. ±inf keep their order (CRITICAL at the bad end,
    /// OK at the good end).
    pub fn status(&self, value: Option<f64>) -> CheckStatus {
        let Some(v) = value.filter(|v| !v.is_nan()) else {
            return CheckStatus::Unknown;
        };
        let (critical, warning) = match self.direction {
            ThresholdDirection::HighIsBad => (v >= self.critical, v >= self.warning),
            ThresholdDirection::LowIsBad => (v <= self.critical, v <= self.warning),
        };
        if critical {
            CheckStatus::Critical
        } else if warning {
            CheckStatus::Warning
        } else {
            CheckStatus::Ok
        }
    }

    /// [`status`](Self::status) plus the plugin's message with its perf
    /// data (`name STATUS: metric=value (w:… c:…)`; a NaN sample reads
    /// `metric=NaN` under UNKNOWN).
    pub fn evaluate(&self, value: Option<f64>) -> CheckResult {
        let status = self.status(value);
        let message = match value {
            None => format!("{}: metric '{}' unavailable", self.name, self.metric),
            Some(v) => format!(
                "{} {}: {}={:.2} (w:{} c:{})",
                self.name,
                status.label(),
                self.metric,
                v,
                self.warning,
                self.critical
            ),
        };
        CheckResult {
            status,
            message,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_check() -> CheckDefinition {
        CheckDefinition::new(
            "check_disk",
            "disk_used_pct",
            80.0,
            95.0,
            ThresholdDirection::HighIsBad,
        )
    }

    fn replica_check() -> CheckDefinition {
        CheckDefinition::new(
            "check_replicas",
            "live_replicas",
            2.0,
            1.0,
            ThresholdDirection::LowIsBad,
        )
    }

    #[test]
    fn high_is_bad_bands() {
        let c = disk_check();
        assert_eq!(c.evaluate(Some(50.0)).status, CheckStatus::Ok);
        assert_eq!(c.evaluate(Some(80.0)).status, CheckStatus::Warning);
        assert_eq!(c.evaluate(Some(94.9)).status, CheckStatus::Warning);
        assert_eq!(c.evaluate(Some(95.0)).status, CheckStatus::Critical);
        assert_eq!(c.evaluate(Some(100.0)).status, CheckStatus::Critical);
    }

    #[test]
    fn low_is_bad_bands() {
        let c = replica_check();
        assert_eq!(c.evaluate(Some(3.0)).status, CheckStatus::Ok);
        assert_eq!(c.evaluate(Some(2.0)).status, CheckStatus::Warning);
        assert_eq!(c.evaluate(Some(1.0)).status, CheckStatus::Critical);
        assert_eq!(c.evaluate(Some(0.0)).status, CheckStatus::Critical);
    }

    #[test]
    fn missing_metric_is_unknown() {
        let r = disk_check().evaluate(None);
        assert_eq!(r.status, CheckStatus::Unknown);
        assert!(r.value.is_none());
        assert!(r.message.contains("unavailable"));
    }

    #[test]
    fn message_carries_perf_data() {
        let r = disk_check().evaluate(Some(84.5));
        assert_eq!(
            r.message,
            "check_disk WARNING: disk_used_pct=84.50 (w:80 c:95)"
        );
    }

    #[test]
    fn nan_is_unknown_in_both_directions() {
        for c in [disk_check(), replica_check()] {
            assert_eq!(c.status(Some(f64::NAN)), CheckStatus::Unknown);
            let r = c.evaluate(Some(f64::NAN));
            assert_eq!(r.status, CheckStatus::Unknown);
            assert!(r.value.is_some_and(f64::is_nan));
            assert!(
                r.message.contains("UNKNOWN") && r.message.contains("=NaN"),
                "{}",
                r.message
            );
        }
    }

    #[test]
    fn infinities_keep_their_order() {
        let (high, low) = (disk_check(), replica_check());
        assert_eq!(high.status(Some(f64::INFINITY)), CheckStatus::Critical);
        assert_eq!(high.status(Some(f64::NEG_INFINITY)), CheckStatus::Ok);
        assert_eq!(low.status(Some(f64::NEG_INFINITY)), CheckStatus::Critical);
        assert_eq!(low.status(Some(f64::INFINITY)), CheckStatus::Ok);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        CheckDefinition::new("bad", "m", 95.0, 80.0, ThresholdDirection::HighIsBad);
    }

    #[test]
    fn status_severity_orders() {
        assert!(CheckStatus::Ok < CheckStatus::Warning);
        assert!(CheckStatus::Warning < CheckStatus::Critical);
    }
}
