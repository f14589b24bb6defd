//! The four workloads. Each puts one group of layers at its centre and
//! touches the others at most at the edge, so a change to one layer
//! shows its gain on one workload and any cost on the rest.

pub mod federation_week;
pub mod paper_replay;
pub mod tenant_month;
pub mod wan_sync;

use crate::measure::{self, Options, RunReport, Workload};

/// Workload names in run order.
pub const NAMES: [&str; 4] = [
    paper_replay::PaperReplay::NAME,
    wan_sync::WanSync::NAME,
    tenant_month::TenantMonth::NAME,
    federation_week::FederationWeek::NAME,
];

/// Run the named workload, or `None` for an unknown name.
pub fn run(name: &str, opts: &Options) -> Option<RunReport> {
    Some(match name {
        paper_replay::PaperReplay::NAME => measure::run::<paper_replay::PaperReplay>(opts),
        wan_sync::WanSync::NAME => measure::run::<wan_sync::WanSync>(opts),
        tenant_month::TenantMonth::NAME => measure::run::<tenant_month::TenantMonth>(opts),
        federation_week::FederationWeek::NAME => {
            measure::run::<federation_week::FederationWeek>(opts)
        }
        _ => return None,
    })
}
