//! Event-log recomputation oracle for billing (§6.4).
//!
//! [`BillingOracle`] records every usage delta and month close it
//! forwards to the live [`BillingService`], and after each operation
//! re-bills the *entire* log from scratch through an independent
//! interpreter ([`replay`]) that expands it into the paper's literal
//! cadence: a poll of each user's cores every minute and a sweep of
//! their stored bytes every day. The service folds whole intervals at
//! once and carries cursors across cycles; the reference takes every
//! sample one at a time — if a fold miscounts, a boundary double-counts,
//! or a cycle reset drops usage, the two disagree. Each close also
//! re-checks the §8 pricing rules on both sides: no negative invoice
//! lines, billable never above metered, and a zero bill inside the free
//! tier.
//!
//! [`replay`] is the one place the per-minute poll and daily sweep
//! cadence is written down; the scale harness and the incremental
//! differential tests bill their reference invoices through it.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use osdc_sim::SimTime;
use osdc_tukey::billing::{BillingService, CycleUsage, Invoice, Rates};

const NANOS_PER_MIN: u64 = 60_000_000_000;
const NANOS_PER_DAY: u64 = 86_400 * 1_000_000_000;

/// One billing-facing event, in delivery order. Delivery order need not
/// be time order: a delta earlier than what its user has already been
/// billed through takes effect from there on.
#[derive(Clone, Debug)]
pub enum BillingOp {
    /// `user` now holds `cores` cores, effective `at` (an instance
    /// start, stop or resize).
    Cores {
        user: String,
        cores: u32,
        at: SimTime,
    },
    /// `user` now stores `bytes`, effective `at` (an object PUT or
    /// DELETE settling).
    Stored {
        user: String,
        bytes: u64,
        at: SimTime,
    },
    /// The month closes at `at`.
    Close { at: SimTime },
}

/// One user as the reference sees them: the usage in force, which
/// samples have been taken, and the open cycle they added up to.
#[derive(Clone, Debug, Default)]
struct Meter {
    cores: u32,
    bytes: u64,
    /// The first minute whose poll has not been taken.
    next_poll: u64,
    /// The first day whose sweep has not been taken.
    next_sweep: u64,
    open: CycleUsage,
}

impl Meter {
    /// Take every poll at an instant before `at`, one per minute, each
    /// sampling the cores in force.
    fn poll_before(&mut self, at: SimTime) {
        let upto = at.as_nanos().div_ceil(NANOS_PER_MIN);
        while self.next_poll < upto {
            if self.cores > 0 {
                self.open.core_minutes += self.cores as f64;
                self.open.peak_cores = self.open.peak_cores.max(self.cores);
            }
            self.next_poll += 1;
        }
    }

    /// Take every sweep at an instant before `at`, one per day, each
    /// sampling the bytes stored.
    fn sweep_before(&mut self, at: SimTime) {
        let upto = at.as_nanos().div_ceil(NANOS_PER_DAY);
        while self.next_sweep < upto {
            if self.bytes > 0 {
                self.open.tb_days += self.bytes as f64 / 1e12;
            }
            self.next_sweep += 1;
        }
    }
}

/// Everything [`replay`] derives from a log.
#[derive(Clone, Debug, Default)]
pub struct ReplayState {
    meters: BTreeMap<String, Meter>,
    /// Invoice batch of every close, in close order.
    pub closes: Vec<Vec<Invoice>>,
}

impl ReplayState {
    /// `user`'s open cycle with every sample before `at` taken — what
    /// the console's usage page shows at `at`.
    pub(crate) fn usage_at(&self, user: &str, at: SimTime) -> CycleUsage {
        let Some(meter) = self.meters.get(user) else {
            return CycleUsage::default();
        };
        let mut meter = meter.clone();
        meter.poll_before(at);
        meter.sweep_before(at);
        meter.open
    }

    /// Apply `op` to `user`'s meter, opening it on the user's first op;
    /// a user already metered costs no key allocation.
    fn with_meter(&mut self, user: &str, op: impl FnOnce(&mut Meter)) {
        match self.meters.get_mut(user) {
            Some(meter) => op(meter),
            None => op(self.meters.entry(user.to_string()).or_default()),
        }
    }
}

/// Re-bill a log from scratch: the reference semantics of §6.4. A delta
/// first takes its user's polls (or sweeps) up to its instant at the old
/// usage, then changes the usage; a sample exactly at a delta's instant
/// sees the new usage. A close takes every user's samples before its
/// instant, prices each cycle against the free tier and resets it. A
/// sample once taken is never retaken, which is how a late delta comes
/// to take effect where its user's billing already stands.
pub fn replay<Op: Borrow<BillingOp>>(
    rates: &Rates,
    log: impl IntoIterator<Item = Op>,
) -> ReplayState {
    let mut state = ReplayState::default();
    for op in log {
        match op.borrow() {
            BillingOp::Cores { user, cores, at } => state.with_meter(user, |meter| {
                meter.poll_before(*at);
                meter.cores = *cores;
            }),
            BillingOp::Stored { user, bytes, at } => state.with_meter(user, |meter| {
                meter.sweep_before(*at);
                meter.bytes = *bytes;
            }),
            BillingOp::Close { at } => {
                let month = state.closes.len() as u32;
                let mut batch = Vec::new();
                for (user, meter) in &mut state.meters {
                    meter.poll_before(*at);
                    meter.sweep_before(*at);
                    let usage = std::mem::take(&mut meter.open);
                    if usage == CycleUsage::default() {
                        continue;
                    }
                    let core_hours = usage.core_minutes / 60.0;
                    let billable_core_hours = (core_hours - rates.free_core_hours).max(0.0);
                    let billable_tb_days = (usage.tb_days - rates.free_tb_days).max(0.0);
                    batch.push(Invoice {
                        user: user.clone(),
                        month,
                        core_hours,
                        tb_days: usage.tb_days,
                        billable_core_hours,
                        billable_tb_days,
                        total_usd: billable_core_hours * rates.per_core_hour
                            + billable_tb_days * rates.per_tb_day,
                    });
                }
                state.closes.push(batch);
            }
        }
    }
    state
}

/// The §8 pricing-rule invariants every issued invoice must satisfy.
pub fn check_invoice(inv: &Invoice, rates: &Rates) -> Result<(), String> {
    if inv.billable_core_hours < 0.0 || inv.billable_tb_days < 0.0 || inv.total_usd < 0.0 {
        return Err(format!(
            "negative invoice line for {} month {}: {} core-hours, {} TB-days, ${}",
            inv.user, inv.month, inv.billable_core_hours, inv.billable_tb_days, inv.total_usd
        ));
    }
    if inv.billable_core_hours > inv.core_hours || inv.billable_tb_days > inv.tb_days {
        return Err(format!(
            "billable exceeds metered for {} month {}",
            inv.user, inv.month
        ));
    }
    if inv.core_hours <= rates.free_core_hours
        && inv.tb_days <= rates.free_tb_days
        && inv.total_usd != 0.0
    {
        return Err(format!(
            "free-tier usage billed for {} month {}: ${}",
            inv.user, inv.month, inv.total_usd
        ));
    }
    Ok(())
}

/// Shadows a [`BillingService`] with a from-scratch re-bill after every
/// operation.
pub struct BillingOracle {
    rates: Rates,
    log: Vec<BillingOp>,
}

impl BillingOracle {
    /// Build the service and its shadow over the same rate card.
    pub fn paired(rates: Rates) -> (BillingService, BillingOracle) {
        (
            BillingService::new(rates),
            BillingOracle {
                rates,
                log: Vec::new(),
            },
        )
    }

    /// `user`'s open cycle as the usage page shows it at `at`, service
    /// against re-bill.
    fn check_open_cycle(
        &self,
        service: &BillingService,
        user: &str,
        at: SimTime,
    ) -> Result<(), String> {
        let got = service
            .lookup_user(user)
            .map(|id| service.usage_at(id, at))
            .unwrap_or_default();
        let model = replay(&self.rates, &self.log).usage_at(user, at);
        if got == model {
            Ok(())
        } else {
            Err(format!(
                "open cycle for {user} at {at:?}: service {got:?}, re-bill {model:?}"
            ))
        }
    }
}

impl crate::Oracle for BillingOracle {
    type System = BillingService;
    type Op = BillingOp;

    fn name(&self) -> &'static str {
        "tukey.re-bill"
    }

    fn step(&mut self, service: &mut BillingService, op: &BillingOp) -> Result<(), String> {
        self.log.push(op.clone());
        match op {
            BillingOp::Cores { user, cores, at } => {
                let id = service.user_id(user);
                service.record_cores_id(id, *cores, *at);
                self.check_open_cycle(service, user, *at)
            }
            BillingOp::Stored { user, bytes, at } => {
                let id = service.user_id(user);
                service.record_stored_id(id, *bytes, *at);
                self.check_open_cycle(service, user, *at)
            }
            BillingOp::Close { at } => {
                let got = service.close_month_at(*at);
                let want = replay(&self.rates, &self.log);
                let model = want.closes.last().cloned().unwrap_or_default();
                if got != model {
                    return Err(format!(
                        "close #{}: service issued {got:?}, re-bill computed {model:?}",
                        want.closes.len()
                    ));
                }
                got.iter()
                    .try_for_each(|inv| check_invoice(inv, &self.rates))
            }
        }
    }
}
