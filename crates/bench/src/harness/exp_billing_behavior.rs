//! Experiment X3 (§6.4) — "even basic billing and accounting are
//! effective \[at\] limiting bad behavior and providing incentives to
//! properly share resources."
//!
//! A population of researchers shares one OSDC cloud. Some are hoarders:
//! they grab several times the cores they actively use and never release
//! them. We run two three-month regimes — accounting off and accounting
//! on — where, under accounting, a hoarder reacts to a non-zero monthly
//! invoice by right-sizing. Measured: idle-held core-hours (waste) and
//! boot requests rejected for lack of capacity.

use osdc_compute::{CloudController, ImageId, InstanceId};
use osdc_sim::{SimDuration, SimRng, SimTime, TenantId};
use osdc_tukey::billing::{BillingService, Rates};

use crate::harness::{Failure, HarnessCtx, OrFail, RunResult};
use crate::{outln, row};

const SEED: u64 = 2012;
const DAYS: u64 = 90;
const USERS: usize = 30;
const HOARDERS: usize = 8;

struct UserState {
    name: String,
    /// Billing's id for `name`.
    id: TenantId,
    hoarder: bool,
    /// Cores of real work per day.
    needed_cores: u32,
    /// VMs currently held.
    held: Vec<InstanceId>,
    right_sized: bool,
}

struct Outcome {
    wasted_core_hours: f64,
    rejected_requests: u32,
    mean_utilization: f64,
}

fn run_regime(billing_enabled: bool, seed: u64) -> Result<Outcome, Failure> {
    let mut rng = SimRng::new(seed);
    // Half a rack: tight enough that hoarded-but-idle capacity visibly
    // squeezes out legitimate requests.
    let hosts = (0..18)
        .map(|i| osdc_compute::Host::osdc_standard(osdc_compute::HostId(i), format!("h{i}")))
        .collect();
    let mut cloud = CloudController::new("adler-slice", hosts); // 144 cores
    let mut billing = BillingService::new(Rates {
        per_core_hour: 0.05,
        per_tb_day: 0.0,
        free_core_hours: 200.0,
        free_tb_days: 0.0,
    });
    let mut users: Vec<UserState> = (0..USERS)
        .map(|i| UserState {
            name: format!("user{i}"),
            id: billing.user_id(&format!("user{i}")),
            hoarder: i < HOARDERS,
            needed_cores: rng.range_inclusive(1, 4) as u32,
            held: Vec::new(),
            right_sized: false,
        })
        .collect();

    let mut wasted = 0.0f64;
    let mut rejected = 0u32;
    let mut util_sum = 0.0f64;

    for day in 0..DAYS {
        let now = SimTime::ZERO + SimDuration::from_days(day);
        // Users adjust holdings each morning.
        for u in &mut users {
            let target_vms = if u.hoarder && !u.right_sized {
                // Grab 4× the need "to have capacity around".
                u.needed_cores * 4
            } else {
                u.needed_cores
            };
            while (u.held.len() as u32) < target_vms {
                match cloud.boot(&u.name, "vm", "m1.small", ImageId(1), now) {
                    Ok(id) => u.held.push(id),
                    Err(_) => {
                        rejected += 1;
                        break;
                    }
                }
            }
            // Release the excess, newest first.
            let keep = u.held.len().min(target_vms as usize);
            for id in u.held.split_off(keep).into_iter().rev() {
                cloud.terminate(id, now).or_fail("terminate")?;
            }
        }
        // Accounting: holdings change only in the morning, so one delta
        // per user per day bills what a poll every minute would.
        for u in &users {
            let held_cores = cloud.usage(&u.name).cores;
            let idle = held_cores.saturating_sub(u.needed_cores);
            wasted += idle as f64 * 24.0;
            if billing_enabled {
                billing.record_cores_id(u.id, held_cores, now);
            }
        }
        util_sum += cloud.utilization();
        // Month end: invoices arrive; hoarders feel the bill and react.
        if billing_enabled && (day + 1) % 30 == 0 {
            for invoice in billing.close_month_at(now + SimDuration::from_days(1)) {
                if invoice.total_usd > 0.0 {
                    if let Some(u) = users.iter_mut().find(|u| u.name == invoice.user) {
                        u.right_sized = true;
                    }
                }
            }
        }
    }
    Ok(Outcome {
        wasted_core_hours: wasted,
        rejected_requests: rejected,
        mean_utilization: util_sum / DAYS as f64,
    })
}

pub(crate) fn run(ctx: &mut HarnessCtx) -> RunResult {
    ctx.banner(
        "Experiment X3 (§6.4)",
        "billing as a behavioral control: hoarding with and without accounting",
    );
    ctx.seed_line(SEED);
    outln!(
        ctx,
        "{USERS} users ({HOARDERS} hoarders) share a 144-core slice for {DAYS} days\n"
    );

    let without = run_regime(false, SEED)?;
    let with = run_regime(true, SEED)?;

    let widths = [30usize, 18, 18];
    outln!(
        ctx,
        "{}",
        row(&["", "no accounting", "with accounting"], &widths)
    );
    outln!(ctx, "{}", "-".repeat(70));
    outln!(
        ctx,
        "{}",
        row(
            &[
                "idle-held core-hours",
                &format!("{:.0}", without.wasted_core_hours),
                &format!("{:.0}", with.wasted_core_hours),
            ],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &[
                "rejected boot requests",
                &without.rejected_requests.to_string(),
                &with.rejected_requests.to_string(),
            ],
            &widths
        )
    );
    outln!(
        ctx,
        "{}",
        row(
            &[
                "mean allocated fraction",
                &format!("{:.2}", without.mean_utilization),
                &format!("{:.2}", with.mean_utilization),
            ],
            &widths
        )
    );
    outln!(
        ctx,
        "\nwaste reduction from accounting: {:.0}%  (the paper's lesson: \"even basic billing and accounting are effective\")",
        (1.0 - with.wasted_core_hours / without.wasted_core_hours) * 100.0
    );
    Ok(())
}
