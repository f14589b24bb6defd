//! Shared workload for the tenant-scale pass: `exp_scale` (determinism
//! and correctness) and the `benchmark/` crate's `tenant_month` workload
//! (wall clock and peak memory) must bill the *same* randomized world, so
//! the schedule generator and the two billing drivers live here.
//!
//! A [`Schedule`] is a cell's complete tenant-activity history: compute
//! churn (start/stop/resize core deltas) and storage ingest (byte
//! deltas) at arbitrary instants, plus mid-window close instants. It can
//! be billed two ways:
//!
//! * [`incremental_invoices`] — the product path: O(deltas) calls into
//!   [`BillingService::record_cores_id`] /
//!   [`BillingService::record_stored_id`] and a fold at each close.
//! * [`sweep_invoices`] — the paper's literal cadence, per-minute polls
//!   and daily sweeps for every tenant, O(tenant-minutes): the
//!   [`schedule_ops`] event log expanded by `osdc-audit`'s reference
//!   [`replay`].
//!
//! Both produce invoice batches that must be byte-identical (`f64`
//! bit-exact), which [`invoice_sha`] pins as a single SHA-256.

use osdc_audit::billing_oracle::replay;
use osdc_audit::BillingOp;
use osdc_crypto::sha256::{to_hex, Sha256};
use osdc_monitor::check::{CheckDefinition, ThresholdDirection};
use osdc_monitor::nagios::ServiceDefinition;
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{derive_seed, SimDuration, SimRng, SimTime, TenantId};
use osdc_tukey::billing::{BillingService, Invoice, Rates};

pub const NANOS_PER_MIN: u64 = 60_000_000_000;
pub const NANOS_PER_DAY: u64 = 86_400 * 1_000_000_000;

/// One rate-affecting tenant event.
#[derive(Clone)]
pub enum Delta {
    /// Instance start/stop/resize → held cores change.
    Cores(u32),
    /// Ingest PUT/DELETE settling → stored bytes change.
    Bytes(u64),
}

/// A cell's full activity schedule, generated once and shared by every
/// billing leg so they bill the same world.
pub struct Schedule {
    pub names: Vec<String>,
    /// (nanos, tenant, delta), sorted by time (stable).
    pub deltas: Vec<(u64, u32, Delta)>,
    /// Mid-window close instants, sorted; a trailing close is implied.
    pub closes: Vec<u64>,
    pub horizon_min: u64,
}

/// Generate the seeded activity schedule for one cell.
pub fn build_schedule(tenants: usize, horizon_min: u64, seed: u64) -> Schedule {
    let mut rng = SimRng::new(derive_seed(seed, 0xB111));
    let horizon_nanos = horizon_min * NANOS_PER_MIN;
    let names: Vec<String> = (0..tenants).map(|u| format!("t{u:06}")).collect();
    let mut deltas: Vec<(u64, u32, Delta)> = Vec::new();
    for u in 0..tenants as u32 {
        // Tukey API churn: every tenant starts something, most resize or
        // stop later; cores==0 is a stop.
        for _ in 0..rng.range_inclusive(1, 4) {
            let at = rng.below(horizon_nanos);
            deltas.push((at, u, Delta::Cores(rng.below(16) as u32)));
        }
        // Sustained ingest: object sizes up to 5 TB settle at random
        // instants (non-integer TB exercises the per-day rounding path).
        for _ in 0..rng.range_inclusive(1, 3) {
            let at = rng.below(horizon_nanos);
            deltas.push((at, u, Delta::Bytes(rng.below(5_000_000_000_000))));
        }
    }
    deltas.sort_by_key(|&(t, _, _)| t);
    // One mid-window close on a day boundary plus one at an arbitrary
    // instant: the monthly close cadence §9 bills on.
    let mut closes = vec![
        NANOS_PER_DAY.min(horizon_nanos / 2),
        horizon_nanos / 2 + rng.below(NANOS_PER_MIN),
    ];
    closes.sort_unstable();
    Schedule {
        names,
        deltas,
        closes,
        horizon_min,
    }
}

/// Increment mode: O(deltas + closes) service calls.
pub fn incremental_invoices(s: &Schedule, rates: Rates) -> Vec<Vec<Invoice>> {
    let mut svc = BillingService::new(rates);
    let ids: Vec<TenantId> = s.names.iter().map(|n| svc.user_id(n)).collect();
    let mut di = 0;
    let apply_upto = |svc: &mut BillingService, di: &mut usize, t: u64| {
        while *di < s.deltas.len() && s.deltas[*di].0 <= t {
            let (at, u, ref d) = s.deltas[*di];
            match *d {
                Delta::Cores(c) => svc.record_cores_id(ids[u as usize], c, SimTime(at)),
                Delta::Bytes(b) => svc.record_stored_id(ids[u as usize], b, SimTime(at)),
            }
            *di += 1;
        }
    };
    let mut batches = Vec::new();
    for &ct in &s.closes {
        apply_upto(&mut svc, &mut di, ct);
        batches.push(svc.close_month_at(SimTime(ct)));
    }
    let end = s.horizon_min * NANOS_PER_MIN;
    apply_upto(&mut svc, &mut di, end);
    // Fold through (and including) the final poll boundary, as the
    // trailing close of `schedule_ops` does.
    batches.push(svc.close_month_at(SimTime(end + 1)));
    batches
}

/// The first `tenants` tenants' share of the schedule as an event log,
/// in the order [`incremental_invoices`] delivers it: each close follows
/// every delta at or before its instant, and a trailing close lands just
/// past the final poll boundary. Lazy, so a 10⁴-tenant log is never
/// held whole.
pub fn schedule_ops(s: &Schedule, tenants: usize) -> impl Iterator<Item = BillingOp> + '_ {
    let end = s.horizon_min * NANOS_PER_MIN;
    let mut closes = s.closes.iter().copied().chain([end + 1]).peekable();
    let mut deltas = s
        .deltas
        .iter()
        .filter(move |d| (d.1 as usize) < tenants)
        .peekable();
    std::iter::from_fn(move || {
        let close_at = *closes.peek()?;
        let Some((at, u, d)) = deltas.next_if(|d| d.0 <= close_at) else {
            closes.next();
            return Some(BillingOp::Close {
                at: SimTime(close_at),
            });
        };
        let (user, at) = (s.names[*u as usize].clone(), SimTime(*at));
        Some(match *d {
            Delta::Cores(cores) => BillingOp::Cores { user, cores, at },
            Delta::Bytes(bytes) => BillingOp::Stored { user, bytes, at },
        })
    })
}

/// The paper's literal cadence: every tenant polled each minute and
/// swept each day, by the reference expansion of the schedule's log.
pub fn sweep_invoices(s: &Schedule, rates: Rates) -> Vec<Vec<Invoice>> {
    replay(&rates, schedule_ops(s, s.names.len())).closes
}

/// Exact digest of an invoice batch stream: every `f64` enters as its
/// bit pattern, so a one-ulp divergence changes the digest.
pub fn invoice_sha(batches: &[Vec<Invoice>]) -> String {
    let mut h = Sha256::new();
    for (b, batch) in batches.iter().enumerate() {
        for inv in batch {
            h.update(inv.user.as_bytes());
            h.update(&(b as u32).to_le_bytes());
            h.update(&inv.month.to_le_bytes());
            h.update(&inv.core_hours.to_bits().to_le_bytes());
            h.update(&inv.tb_days.to_bits().to_le_bytes());
            h.update(&inv.billable_core_hours.to_bits().to_le_bytes());
            h.update(&inv.billable_tb_days.to_bits().to_le_bytes());
            h.update(&inv.total_usd.to_bits().to_le_bytes());
        }
    }
    to_hex(&h.finalize())
}

/// Build the 4-DC monitoring fleet: `hosts` agents named `dc{d}-n{i}`
/// with healthy metrics, and `per_host` services cycling four check
/// templates. `interval_base_secs` sets the shortest check interval
/// (staggered per service).
pub fn monitor_fleet(
    hosts: usize,
    per_host: usize,
    interval_base_secs: u64,
) -> (Vec<HostAgent>, Vec<ServiceDefinition>) {
    let agents: Vec<HostAgent> = (0..hosts)
        .map(|i| {
            let a = HostAgent::new(format!("dc{}-n{:04}", i % 4, i / 4));
            a.metrics.set("disk_used_pct", 40.0);
            a.metrics.set("load1", 1.0);
            a.metrics.set("free_mb", 100_000.0);
            a.metrics.set("net_errs", 0.0);
            a
        })
        .collect();
    let templates = [
        (
            "disk",
            "disk_used_pct",
            80.0,
            95.0,
            ThresholdDirection::HighIsBad,
        ),
        ("load", "load1", 8.0, 16.0, ThresholdDirection::HighIsBad),
        (
            "mem",
            "free_mb",
            10_000.0,
            1_000.0,
            ThresholdDirection::LowIsBad,
        ),
        (
            "neterr",
            "net_errs",
            50.0,
            200.0,
            ThresholdDirection::HighIsBad,
        ),
    ];
    let mut defs = Vec::with_capacity(hosts * per_host);
    for (i, agent) in agents.iter().enumerate() {
        for j in 0..per_host {
            let (name, metric, warn, crit, dir) = templates[j % templates.len()];
            defs.push(ServiceDefinition {
                host: agent.hostname.clone(),
                check: CheckDefinition::new(format!("{name}_{i}_{j}"), metric, warn, crit, dir),
                check_interval: SimDuration::from_secs(
                    interval_base_secs + 30 * ((i + j) as u64 % 5),
                ),
                retry_interval: SimDuration::from_secs(15),
                max_check_attempts: 1 + (j as u32 % 3),
            });
        }
    }
    (agents, defs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = build_schedule(50, 200, 7);
        let b = build_schedule(50, 200, 7);
        assert_eq!(a.deltas.len(), b.deltas.len());
        assert!(a.deltas.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a
            .deltas
            .iter()
            .zip(&b.deltas)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1));
        assert_eq!(
            invoice_sha(&incremental_invoices(&a, Rates::default())),
            invoice_sha(&incremental_invoices(&b, Rates::default()))
        );
    }

    #[test]
    fn small_cell_sweep_and_increment_agree() {
        let s = build_schedule(20, 2 * 24 * 60 + 30, 11);
        let r = Rates::default();
        let sweep = sweep_invoices(&s, r);
        let inc = incremental_invoices(&s, r);
        assert_eq!(sweep, inc);
        assert_eq!(invoice_sha(&sweep), invoice_sha(&inc));
    }

    #[test]
    fn fleet_spans_four_dcs() {
        let (agents, defs) = monitor_fleet(16, 4, 60);
        assert_eq!(agents.len(), 16);
        assert_eq!(defs.len(), 64);
        for d in 0..4 {
            assert!(agents
                .iter()
                .any(|a| a.hostname.starts_with(&format!("dc{d}-"))));
        }
    }
}
