//! Billing and accounting (§6.4).
//!
//! "One of the lessons learned from early OSDC operations is that even
//! basic billing and accounting are effective \[at\] limiting bad behavior
//! and providing incentives to properly share resources. We currently
//! bill based on core hours and storage usage. For OSDC-Adler and
//! OSDC-Sullivan, we poll every minute to see the number and types of
//! virtual machine a user has provisioned and then use this information
//! to calculate the core hours. Storage is checked per user once a day.
//! Our billing cycle is monthly and users can check their current usage
//! via the OSDC web interface."
//!
//! [`BillingService`] bills that cadence on the simulation clock from
//! usage *events*: [`record_cores_id`] fires on an instance start, stop
//! or resize, [`record_stored_id`] when an object PUT or DELETE settles,
//! and [`close_month_at`] ends the monthly cycle. The work is O(deltas)
//! rather than O(tenant-minutes), yet the invoices are those of a poll
//! every minute and a sweep every day. A poll at minute `m` samples the
//! rate in force at instant `m · 60 s`, so a delta at `t` changes exactly
//! the polls with `m · 60 s ≥ t`. Each delta therefore *folds* the
//! previous rate over minutes `[cursor, ceil(t / 60 s))` before taking
//! effect, and a close folds every tenant up to the close instant
//! (exclusive) before invoicing; [`usage_at`] is the same fold, read
//! without moving anything. The folds reproduce the poll sums bit for
//! bit: integer-valued core sums below 2⁵³ are exact under bulk
//! multiplication, and TB-day adds are replayed one day at a time so the
//! float rounding sequence matches the daily sweep.
//!
//! The per-minute poll and daily sweep themselves live once, as the
//! reference: `osdc-audit`'s `BillingOracle` expands the same event log
//! into polls and sweeps and re-bills it from scratch, and the
//! differential tests and harnesses compare the service against it.
//!
//! Per-tenant state (open cycle, held rates, fold cursors) lives in an
//! [`osdc_sim::TenantStore`] keyed by interned [`TenantId`]s, so the
//! steady-state hot path does no string hashing, cloning or allocation
//! (a counting-allocator test enforces this).
//!
//! [`record_cores_id`]: BillingService::record_cores_id
//! [`record_stored_id`]: BillingService::record_stored_id
//! [`close_month_at`]: BillingService::close_month_at
//! [`usage_at`]: BillingService::usage_at

use osdc_sim::time::SECS_PER_DAY;
use osdc_sim::{SimTime, TenantId, TenantInterner, TenantStore};
use osdc_telemetry::audit;

const NANOS_PER_MIN: u64 = 60_000_000_000;
const NANOS_PER_DAY: u64 = SECS_PER_DAY * 1_000_000_000;

/// Prices. The free-tier allowance implements §8 rule 1 ("provide some
/// services without charge to any interested researcher"); §8 rule 2 is
/// the cost-recovery rate charged beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub per_core_hour: f64,
    pub per_tb_day: f64,
    /// Core-hours per month each user gets free.
    pub free_core_hours: f64,
    /// TB-days per month each user gets free.
    pub free_tb_days: f64,
}

impl Default for Rates {
    fn default() -> Self {
        // Cost-recovery numbers in the AWS-comparable band of §9.1.
        Rates {
            per_core_hour: 0.05,
            per_tb_day: 0.08,
            free_core_hours: 100.0,
            free_tb_days: 3.0,
        }
    }
}

/// One user's accumulated usage within the open billing cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleUsage {
    pub core_minutes: f64,
    pub tb_days: f64,
    /// Peak concurrently-held cores seen by any poll (for reports).
    pub peak_cores: u32,
}

/// A closed monthly statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Invoice {
    pub user: String,
    /// Month index since simulation start (0-based).
    pub month: u32,
    pub core_hours: f64,
    pub tb_days: f64,
    pub billable_core_hours: f64,
    pub billable_tb_days: f64,
    pub total_usd: f64,
}

/// Per-tenant billing state: the open cycle, the rates in force since
/// the last delta, and how far each rate has been folded.
#[derive(Clone, Debug, Default)]
struct TenantBilling {
    usage: CycleUsage,
    /// Cores held since the last delta.
    held_cores: u32,
    /// Polls below this minute index are already folded into `usage`.
    cores_upto_min: u64,
    /// Bytes stored since the last delta.
    stored_bytes: u64,
    /// Sweeps below this day index are already folded.
    stored_upto_day: u64,
}

impl TenantBilling {
    /// Fold polls `[cores_upto_min, bound_min)` at the held rate. Exact:
    /// each poll adds the integer `held_cores`, and integer-valued f64
    /// sums below 2⁵³ are associative, so the bulk product equals the
    /// per-minute adds bit for bit.
    fn fold_compute_to(&mut self, bound_min: u64) {
        if bound_min <= self.cores_upto_min {
            return;
        }
        let minutes = bound_min - self.cores_upto_min;
        self.cores_upto_min = bound_min;
        if self.held_cores > 0 {
            self.usage.core_minutes += self.held_cores as f64 * minutes as f64;
            self.usage.peak_cores = self.usage.peak_cores.max(self.held_cores);
        }
    }

    /// Fold sweeps `[stored_upto_day, bound_day)` at the stored size.
    /// `bytes / 1e12` is generally *not* integer-valued, so the adds are
    /// replayed one day at a time — the daily sweep's rounding sequence,
    /// hence bit-identical.
    fn fold_storage_to(&mut self, bound_day: u64) {
        if bound_day <= self.stored_upto_day {
            return;
        }
        let days = bound_day - self.stored_upto_day;
        self.stored_upto_day = bound_day;
        if self.stored_bytes > 0 {
            let tb = self.stored_bytes as f64 / 1e12;
            for _ in 0..days {
                self.usage.tb_days += tb;
            }
        }
    }
}

/// First minute index whose poll instant (`m · 60 s`) is at or after
/// `t` — the fold bound for a delta landing at `t`, and the exclusive
/// close bound (a poll exactly at the close instant belongs to the next
/// month).
fn minute_bound(t: SimTime) -> u64 {
    t.as_nanos().div_ceil(NANOS_PER_MIN)
}

/// Day-granular analogue of [`minute_bound`].
fn day_bound(t: SimTime) -> u64 {
    t.as_nanos().div_ceil(NANOS_PER_DAY)
}

/// The accounting engine.
pub struct BillingService {
    rates: Rates,
    users: TenantInterner,
    tenants: TenantStore<TenantBilling>,
    month: u32,
    /// Scratch for sorting invoices at close; retained across closes.
    close_scratch: Vec<(TenantId, CycleUsage)>,
}

impl BillingService {
    pub fn new(rates: Rates) -> Self {
        BillingService {
            rates,
            users: TenantInterner::new(),
            tenants: TenantStore::new(),
            month: 0,
            close_scratch: Vec::new(),
        }
    }

    /// Intern `user`, returning the dense id the `record_*_id` entry
    /// points key by. Allocates only on a user's first appearance.
    pub fn user_id(&mut self, user: &str) -> TenantId {
        self.users.intern(user)
    }

    /// The interned id for `user`, if ever seen. Never allocates.
    pub fn lookup_user(&self, user: &str) -> Option<TenantId> {
        self.users.get(user)
    }

    /// Whether this service's interner issued `id`. Invoices name their
    /// user through the interner, so a foreign id must never reach the
    /// store.
    fn issued(&self, id: TenantId) -> bool {
        let issued = id.index() < self.users.len();
        audit::check!(
            issued,
            "tukey.tenant_id_issued",
            "{id:?} was not issued by this billing service ({} users interned)",
            self.users.len()
        );
        issued
    }

    /// `id` now holds `cores` cores, effective `at` (an instance start,
    /// stop or resize). Folds the previous rate over the polls it
    /// covered — O(1) per delta, not per tenant-minute.
    ///
    /// Delivery contract, shared with
    /// [`record_stored_id`](Self::record_stored_id):
    /// * delivering the same delta twice in a row is a no-op;
    /// * a delta earlier than the tenant's fold cursor — how far its
    ///   earlier deltas and the closes since its first delta have folded
    ///   it — takes effect at the cursor and never re-bills minutes
    ///   already folded. A tenant's first delta starts its meter at its
    ///   own instant.
    ///
    /// An id this service did not issue is ignored: it gets no state and
    /// no invoice, and the `tukey.tenant_id_issued` audit check names it.
    pub fn record_cores_id(&mut self, id: TenantId, cores: u32, at: SimTime) {
        if !self.issued(id) {
            return;
        }
        let t = self.tenants.get_or_insert_with(id, TenantBilling::default);
        t.fold_compute_to(minute_bound(at));
        t.held_cores = cores;
    }

    /// `id` now stores `bytes`, effective `at` (an object PUT or DELETE
    /// settling). Same delivery contract and foreign-id rule as
    /// [`record_cores_id`](Self::record_cores_id), at day granularity.
    pub fn record_stored_id(&mut self, id: TenantId, bytes: u64, at: SimTime) {
        if !self.issued(id) {
            return;
        }
        let t = self.tenants.get_or_insert_with(id, TenantBilling::default);
        t.fold_storage_to(day_bound(at));
        t.stored_bytes = bytes;
    }

    /// `id`'s open-cycle usage as of `at`, as the console's usage page
    /// shows it: the open cycle folded up to `at` with
    /// [`close_month_at`](Self::close_month_at)'s exclusive bound. A pure
    /// read — no cursor moves.
    pub fn usage_at(&self, id: TenantId, at: SimTime) -> CycleUsage {
        let Some(t) = self.tenants.get(id) else {
            return CycleUsage::default();
        };
        let mut t = t.clone();
        t.fold_compute_to(minute_bound(at));
        t.fold_storage_to(day_bound(at));
        t.usage
    }

    /// Close the month at `at`: fold every tenant up to `at` (polls
    /// strictly before it — a poll exactly at the close instant bills
    /// into the next month), invoice every user with usage in user-name
    /// order, and reset the cycle. Held rates and fold cursors survive,
    /// so accrual continues seamlessly into the new cycle. The returned
    /// batch is the only record of the month's invoices: the service
    /// keeps no history.
    pub fn close_month_at(&mut self, at: SimTime) -> Vec<Invoice> {
        let month = self.month;
        self.month += 1;
        let rates = self.rates;
        let (min_bound, day_b) = (minute_bound(at), day_bound(at));
        // Collect in id order (deterministic), invoice in user-name
        // order (pinned by tests and trace hashes).
        let mut scratch = std::mem::take(&mut self.close_scratch);
        scratch.clear();
        self.tenants.for_each_mut(|id, t| {
            t.fold_compute_to(min_bound);
            t.fold_storage_to(day_b);
            if t.usage != CycleUsage::default() {
                scratch.push((id, std::mem::take(&mut t.usage)));
            }
        });
        scratch.sort_by(|(a, _), (b, _)| self.users.name(*a).cmp(self.users.name(*b)));
        let mut closed: Vec<Invoice> = Vec::with_capacity(scratch.len());
        for (id, usage) in scratch.drain(..) {
            let user = self.users.name(id);
            let core_hours = usage.core_minutes / 60.0;
            let billable_core_hours = (core_hours - rates.free_core_hours).max(0.0);
            let billable_tb_days = (usage.tb_days - rates.free_tb_days).max(0.0);
            let total_usd =
                billable_core_hours * rates.per_core_hour + billable_tb_days * rates.per_tb_day;
            audit::check!(
                billable_core_hours >= 0.0 && billable_tb_days >= 0.0 && total_usd >= 0.0,
                "tukey.invoice_nonnegative",
                "negative invoice line for {user} month {month}: \
                 {billable_core_hours} core-hours, {billable_tb_days} TB-days, \
                 ${total_usd}"
            );
            audit::check!(
                billable_core_hours <= core_hours && billable_tb_days <= usage.tb_days,
                "tukey.billable_le_metered",
                "billable exceeds metered usage for {user} month {month}"
            );
            closed.push(Invoice {
                user: user.to_string(),
                month,
                core_hours,
                tb_days: usage.tb_days,
                billable_core_hours,
                billable_tb_days,
                total_usd,
            });
        }
        self.close_scratch = scratch;
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_sim::SimDuration;

    fn at_min(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    fn at_day(d: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(d)
    }

    fn storage_only(per_tb_day: f64) -> Rates {
        Rates {
            per_core_hour: 0.0,
            per_tb_day,
            free_core_hours: 0.0,
            free_tb_days: 0.0,
        }
    }

    #[test]
    fn core_minutes_accumulate_to_hours() {
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        // 8 cores held for 120 minutes.
        b.record_cores_id(alice, 8, at_min(0));
        let usage = b.usage_at(alice, at_min(120));
        assert_eq!(usage.core_minutes, 960.0);
        assert_eq!(usage.peak_cores, 8);
        let invoices = b.close_month_at(at_min(120));
        assert_eq!(invoices.len(), 1);
        assert!((invoices[0].core_hours - 16.0).abs() < 1e-9);
    }

    #[test]
    fn usage_at_is_a_read_with_the_close_bound() {
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 3, at_min(0));
        b.record_stored_id(alice, 2_000_000_000_000, at_day(0));
        // The poll exactly at the read instant is not yet counted.
        let at = at_day(1) + SimDuration::from_mins(10);
        let seen = b.usage_at(alice, at);
        assert_eq!(seen.core_minutes, 3.0 * (24 * 60 + 10) as f64);
        assert_eq!(seen.tb_days, 4.0, "sweeps at days 0 and 1");
        assert_eq!(b.usage_at(alice, at), seen, "reading moves no cursor");
        // An earlier read after a later one still folds only to its own
        // instant; 30 s into minute 1 the poll at minute 1 has happened.
        assert_eq!(b.usage_at(alice, at_min(1)).core_minutes, 3.0);
        let mid = at_min(1) + SimDuration::from_secs(30);
        assert_eq!(b.usage_at(alice, mid).core_minutes, 6.0);
        let inv = b.close_month_at(at).pop().expect("invoice");
        assert_eq!(inv.core_hours * 60.0, seen.core_minutes);
        assert_eq!(inv.tb_days, seen.tb_days);
        assert_eq!(b.usage_at(alice, at), CycleUsage::default());
        let unknown = TenantId(1);
        assert_eq!(b.usage_at(unknown, at), CycleUsage::default());
    }

    #[test]
    fn free_tier_zeroes_small_users() {
        let mut b = BillingService::new(Rates::default());
        let small = b.user_id("smalluser");
        // 50 core-hours: inside the 100 free hours.
        b.record_cores_id(small, 1, at_min(0));
        let inv = b
            .close_month_at(at_min(50 * 60))
            .pop()
            .expect("one invoice");
        assert_eq!(inv.billable_core_hours, 0.0);
        assert_eq!(inv.total_usd, 0.0);
    }

    #[test]
    fn cost_recovery_beyond_free_tier() {
        let mut b = BillingService::new(Rates {
            per_core_hour: 0.10,
            per_tb_day: 0.0,
            free_core_hours: 10.0,
            free_tb_days: 0.0,
        });
        let big = b.user_id("big");
        b.record_cores_id(big, 1, at_min(0));
        let inv = b
            .close_month_at(at_min(20 * 60))
            .pop()
            .expect("one invoice"); // 20 core-hours
        assert!((inv.billable_core_hours - 10.0).abs() < 1e-9);
        assert!((inv.total_usd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn storage_accrues_per_day() {
        let mut b = BillingService::new(storage_only(0.10));
        let hoarder = b.user_id("hoarder");
        b.record_stored_id(hoarder, 2_000_000_000_000, at_day(0)); // 2 TB/day
        let inv = b.close_month_at(at_day(30)).pop().expect("one invoice");
        assert!((inv.tb_days - 60.0).abs() < 1e-9);
        assert!((inv.total_usd - 6.0).abs() < 1e-9);
    }

    #[test]
    fn idle_users_get_no_invoice() {
        let mut b = BillingService::new(Rates::default());
        let ghost = b.user_id("ghost");
        b.record_cores_id(ghost, 0, at_min(0));
        b.record_stored_id(ghost, 0, at_day(0));
        assert!(b.close_month_at(at_day(30)).is_empty());
    }

    #[test]
    fn cycle_resets_each_month() {
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 4, at_min(0));
        let first = b.close_month_at(at_min(1));
        assert_eq!(first[0].month, 0);
        assert_eq!(b.usage_at(alice, at_min(1)), CycleUsage::default());
        let second = b.close_month_at(at_min(2));
        assert_eq!(second[0].month, 1);
        assert_eq!(second[0].core_hours * 60.0, 4.0);
    }

    #[test]
    fn invoices_sorted_by_user() {
        let mut b = BillingService::new(Rates::default());
        // Interned zed first: invoice order is by name, not by id.
        for user in ["zed", "amy"] {
            let id = b.user_id(user);
            b.record_cores_id(id, 1, at_min(0));
        }
        let users: Vec<String> = b
            .close_month_at(at_min(1))
            .into_iter()
            .map(|i| i.user)
            .collect();
        assert_eq!(users, vec!["amy".to_string(), "zed".to_string()]);
    }

    #[test]
    fn month_boundary_neither_loses_nor_doubles_minutes() {
        // One core across a 30-day month boundary: every minute lands in
        // exactly one invoice.
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        let boundary = 30 * 24 * 60; // minutes in the first month
        b.record_cores_id(alice, 1, at_min(0));
        let first = b.close_month_at(at_min(boundary)).pop().expect("invoice");
        let second = b
            .close_month_at(at_min(boundary + 120))
            .pop()
            .expect("invoice");
        let total_minutes = (first.core_hours + second.core_hours) * 60.0;
        assert!(
            (total_minutes - (boundary + 120) as f64).abs() < 1e-6,
            "lost or doubled minutes: {total_minutes}"
        );
        assert!((second.core_hours * 60.0 - 120.0).abs() < 1e-6);
    }

    #[test]
    fn mid_minute_delta_bills_next_boundary_at_new_rate() {
        // A resize 30 s into minute 5: the poll at minute 5 (t = 300 s)
        // came *before* the 330 s delta, so minutes [0, 6) bill at 8
        // cores and minutes [6, 10) at 2.
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 8, at_min(0));
        b.record_cores_id(alice, 2, at_min(5) + SimDuration::from_secs(30));
        let inv = b.close_month_at(at_min(10)).pop().expect("invoice");
        assert_eq!(inv.core_hours * 60.0, (6 * 8 + 4 * 2) as f64);
    }

    #[test]
    fn delta_exactly_on_poll_instant_takes_effect_that_poll() {
        // Delta at t = minute 5 exactly: the poll at minute 5 samples the
        // new rate (deltas order before polls at equal timestamps).
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 8, at_min(0));
        b.record_cores_id(alice, 2, at_min(5));
        let inv = b.close_month_at(at_min(10)).pop().expect("invoice");
        assert_eq!(inv.core_hours * 60.0, (5 * 8 + 5 * 2) as f64);
    }

    #[test]
    fn stop_to_zero_stops_accrual() {
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 4, at_min(10));
        b.record_cores_id(alice, 0, at_min(20));
        let inv = b.close_month_at(at_min(100)).pop().expect("invoice");
        assert_eq!(inv.core_hours * 60.0, 40.0);
        assert_eq!(b.usage_at(alice, at_min(150)), CycleUsage::default());
        // Still zero cores: a later close issues nothing.
        assert!(b.close_month_at(at_min(200)).is_empty());
    }

    #[test]
    fn close_folds_open_rate_and_accrual_continues() {
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        b.record_cores_id(alice, 1, at_min(0));
        let first = b.close_month_at(at_min(60)).pop().expect("invoice");
        // Minutes [0, 60) — the poll exactly at the close instant
        // belongs to the next month.
        assert_eq!(first.core_hours * 60.0, 60.0);
        // No further deltas: the held rate keeps accruing.
        let second = b.close_month_at(at_min(90)).pop().expect("invoice");
        assert_eq!(second.core_hours * 60.0, 30.0);
        assert_eq!(second.month, 1);
    }

    #[test]
    fn stored_deltas_replay_daily_rounding_exactly() {
        // 1.7 TB for days [0, 10), then 0.3 TB for days [10, 30):
        // non-integer TB values must add up one day at a time, exactly as
        // a daily sweep would.
        let (before, after) = (1_700_000_000_001u64, 300_000_000_007u64);
        let mut b = BillingService::new(storage_only(0.10));
        let hoarder = b.user_id("hoarder");
        b.record_stored_id(hoarder, before, at_day(0));
        b.record_stored_id(hoarder, after, at_day(10));
        let inv = b.close_month_at(at_day(30)).pop().expect("invoice");
        let mut swept = 0.0f64;
        for d in 0..30 {
            swept += if d < 10 { before } else { after } as f64 / 1e12;
        }
        assert_eq!(inv.tb_days.to_bits(), swept.to_bits());
    }

    #[test]
    fn user_ids_are_interned_once() {
        let mut b = BillingService::new(Rates::default());
        let id = b.user_id("alice");
        assert_eq!(b.user_id("alice"), id);
        assert_eq!(b.lookup_user("alice"), Some(id));
        assert_eq!(b.lookup_user("nobody"), None);
    }

    #[test]
    fn foreign_tenant_id_is_ignored() {
        // A service that interned one user receives a delta for an id it
        // never issued. It used to index past the name table at close.
        let mut b = BillingService::new(Rates::default());
        let alice = b.user_id("alice");
        let foreign = TenantId(7);
        b.record_cores_id(foreign, 4, at_min(0));
        b.record_stored_id(foreign, 1_000_000_000_000, at_min(0));
        b.record_cores_id(alice, 1, at_min(0));
        let invoices = b.close_month_at(at_min(60));
        assert_eq!(invoices.len(), 1, "the foreign id gets no invoice");
        assert_eq!(invoices[0].user, "alice");
        assert_eq!(b.usage_at(foreign, at_min(90)), CycleUsage::default());
        if audit::enabled() {
            let (_, _, detail) = audit::violations()
                .into_iter()
                .find(|(site, _, _)| site == "tukey.tenant_id_issued")
                .expect("the foreign id trips the audit check");
            assert!(detail.contains("TenantId(7)"), "{detail}");
        }
    }
}
