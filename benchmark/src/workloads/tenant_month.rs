//! `tenant_month`: a month of operations for a community of 10⁵
//! tenants. One pass bills the seeded `scale::build_schedule` activity
//! (the horizon of the full `exp_scale` grid) through the event-driven
//! `BillingService` id API with its mid-window and final closes, then
//! brings up a 10³-host × 4-service Nagios fleet and ticks it every 15 s
//! for one simulated hour under scripted metric drift and host flaps.
//!
//! Per-tenant state carries the load here: the tenant interner and
//! sharded store behind billing, and the monitor's due-time wheel. No
//! network or DES work is involved. The benchmark owns the billing loop
//! so its spans sit between calls; pass 0's invoices must equal
//! `scale::incremental_invoices` on the same schedule, which pins the
//! loop to the product helper.

use std::collections::BTreeMap;

use counting_alloc::measure_peak;
use osdc_bench::scale::{
    build_schedule, incremental_invoices, monitor_fleet, Delta, Schedule, NANOS_PER_MIN,
};
use osdc_monitor::{HostAgent, NagiosMaster, Notification};
use osdc_sim::{derive_seed, SimRng, SimTime, TenantId};
use osdc_tukey::billing::{BillingService, Invoice, Rates};

use crate::measure::{Checks, Size, Workload};
use crate::trace::Tracer;

const SERVICES_PER_HOST: usize = 4;
const CHECK_INTERVAL_S: u64 = 60;
const TICK_S: u64 = 15;

/// One scripted change to the fleet before a tick.
enum Drift {
    Metric {
        host: usize,
        metric: &'static str,
        value: f64,
    },
    Down(usize),
    Up(usize),
}

pub struct TenantMonth {
    schedule: Schedule,
    hosts: usize,
    /// The changes applied before each tick, one entry per tick.
    drift: Vec<Vec<Drift>>,
}

#[derive(Debug, PartialEq)]
pub struct MonthOut {
    invoices: Vec<Vec<Invoice>>,
    notifications: Vec<Notification>,
}

/// Metric drift toward and across thresholds plus occasional host
/// flaps, drawn as `exp_scale`'s monitoring leg draws them.
fn drift_script(hosts: usize, window_s: u64, seed: u64) -> Vec<Vec<Drift>> {
    let mut rng = SimRng::new(derive_seed(seed, 0x4a6));
    let mut up = vec![true; hosts];
    let mut down: Vec<usize> = Vec::new();
    (0..=window_s)
        .step_by(TICK_S as usize)
        .map(|_| {
            let mut tick = Vec::new();
            for _ in 0..(hosts / 50).max(1) {
                let host = rng.below(hosts as u64) as usize;
                let (metric, value) = match rng.below(4) {
                    0 => ("disk_used_pct", 30.0 + rng.below(70) as f64),
                    1 => ("load1", rng.below(20) as f64),
                    2 => ("free_mb", 500.0 + rng.below(120_000) as f64),
                    _ => ("net_errs", rng.below(300) as f64),
                };
                tick.push(Drift::Metric {
                    host,
                    metric,
                    value,
                });
            }
            if rng.chance(0.05) {
                let host = rng.below(hosts as u64) as usize;
                if up[host] {
                    up[host] = false;
                    down.push(host);
                    tick.push(Drift::Down(host));
                }
            }
            if !down.is_empty() && rng.chance(0.3) {
                let host = down.remove(0);
                up[host] = true;
                tick.push(Drift::Up(host));
            }
            tick
        })
        .collect()
}

impl TenantMonth {
    /// The billing leg: intern every tenant, fold each close's deltas,
    /// close; the final close lands just past the horizon, as
    /// `scale::incremental_invoices` does.
    fn bill<'n>(&self, tr: &mut Tracer<'n>) -> Vec<Vec<Invoice>> {
        let s = &self.schedule;
        let mut svc = BillingService::new(Rates::default());
        let ids: Vec<TenantId> = tr.span("tukey.billing.intern", |_| {
            s.names.iter().map(|n| svc.user_id(n)).collect()
        });
        let end = s.horizon_min * NANOS_PER_MIN;
        let cuts = s.closes.iter().map(|&c| (c, c)).chain([(end, end + 1)]);
        let mut next = 0;
        let mut batches = Vec::new();
        for (upto, close_at) in cuts {
            tr.span("tukey.billing.record", |_| {
                while let Some((at, u, delta)) = s.deltas.get(next).filter(|d| d.0 <= upto) {
                    let (id, at) = (ids[*u as usize], SimTime(*at));
                    match *delta {
                        Delta::Cores(cores) => svc.record_cores_id(id, cores, at),
                        Delta::Bytes(bytes) => svc.record_stored_id(id, bytes, at),
                    }
                    next += 1;
                }
            });
            batches.push(tr.span("tukey.billing.close", |_| {
                svc.close_month_at(SimTime(close_at))
            }));
        }
        batches
    }

    /// The monitoring leg: bring up the fleet and its master, then tick.
    fn monitor<'n>(&self, tr: &mut Tracer<'n>) -> Vec<Notification> {
        let (agents, mut master) = tr.span("monitor.setup", |_| {
            let (agents, defs) = monitor_fleet(self.hosts, SERVICES_PER_HOST, CHECK_INTERVAL_S);
            let mut master = NagiosMaster::new();
            for def in defs {
                master.add_service(def);
            }
            (agents, master)
        });
        let by_name: BTreeMap<String, &HostAgent> = tr.span("monitor.setup", |_| {
            agents.iter().map(|a| (a.hostname.clone(), a)).collect()
        });
        for (k, changes) in self.drift.iter().enumerate() {
            for change in changes {
                match *change {
                    Drift::Metric {
                        host,
                        metric,
                        value,
                    } => agents[host].metrics.set(metric, value),
                    Drift::Down(host) => agents[host].set_reachable(false),
                    Drift::Up(host) => agents[host].set_reachable(true),
                }
            }
            let now = SimTime(k as u64 * TICK_S * 1_000_000_000);
            tr.span("monitor.tick", |_| master.tick(now, &by_name));
        }
        std::mem::take(&mut master.notifications)
    }
}

impl Workload for TenantMonth {
    const NAME: &'static str = "tenant_month";
    type Out = MonthOut;

    fn setup(seed: u64, size: Size) -> Self {
        let (tenants, horizon_min, hosts, window_s) = match size {
            Size::Full => (100_000, 2 * 24 * 60 + 360, 1_000, 3_600),
            Size::Smoke => (1_000, 24 * 60 + 30, 50, 600),
        };
        TenantMonth {
            schedule: build_schedule(tenants, horizon_min, derive_seed(seed, 0x7e4)),
            hosts,
            drift: drift_script(hosts, window_s, seed),
        }
    }

    fn pass<'n>(&'n self, _workers: usize, tr: &mut Tracer<'n>) -> MonthOut {
        MonthOut {
            invoices: self.bill(tr),
            notifications: self.monitor(tr),
        }
    }

    fn check(&self, out: &MonthOut, reference: Option<&MonthOut>, checks: &mut Checks) {
        match reference {
            None => checks.expect(
                out.invoices == incremental_invoices(&self.schedule, Rates::default()),
                || "billing loop disagrees with scale::incremental_invoices".to_string(),
            ),
            Some(r) => {
                checks.expect(out.invoices == r.invoices, || {
                    "invoices differ from pass 0".to_string()
                });
                checks.expect(out.notifications == r.notifications, || {
                    "notifications differ from pass 0".to_string()
                });
            }
        }
    }

    fn work(&self, _out: &MonthOut) -> (f64, &'static str) {
        (self.schedule.names.len() as f64, "tenants")
    }

    fn layer_metrics(
        &self,
        reference: &MonthOut,
        _layers: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)> {
        let tenants = self.schedule.names.len() as f64;
        let (peak, _) = measure_peak(|| self.bill(&mut Tracer::off()));
        vec![
            ("tenant.bytes_per_tenant", peak as f64 / tenants),
            ("billing.deltas", self.schedule.deltas.len() as f64),
            (
                "billing.invoices",
                reference.invoices.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            (
                "monitor.notifications",
                reference.notifications.len() as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_repeats_and_a_perturbed_invoice_is_caught() {
        let w = TenantMonth::setup(11, Size::Smoke);
        let reference = w.pass(1, &mut Tracer::off());
        let mut checks = Checks::default();
        w.check(&reference, None, &mut checks);
        let mut out = w.pass(1, &mut Tracer::off());
        w.check(&out, Some(&reference), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
        assert!(!reference.notifications.is_empty(), "drift must page");

        out.invoices[0][0].total_usd += 0.01;
        let mut trapped = Checks::default();
        w.check(&out, Some(&reference), &mut trapped);
        assert_eq!(trapped.failed, 1, "{:?}", trapped.first_failure);
    }
}
