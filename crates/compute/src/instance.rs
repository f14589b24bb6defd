//! Flavors and virtual-machine instances.

use osdc_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::host::HostId;
use crate::image::ImageId;

/// Identifies an instance within one cloud.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

/// A VM size. The set mirrors the EC2-descended flavor family both stacks
/// of the era shipped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceFlavor {
    pub name: String,
    pub vcpus: u32,
    pub ram_mb: u64,
    pub disk_gb: u64,
}

impl InstanceFlavor {
    pub fn standard_set() -> Vec<InstanceFlavor> {
        let mk = |name: &str, vcpus, ram_mb, disk_gb| InstanceFlavor {
            name: name.to_string(),
            vcpus,
            ram_mb,
            disk_gb,
        };
        vec![
            mk("m1.small", 1, 2_048, 20),
            mk("m1.medium", 2, 4_096, 40),
            mk("m1.large", 4, 8_192, 80),
            mk("m1.xlarge", 8, 16_384, 160),
        ]
    }
}

/// Lifecycle states. Their wire spellings (Nova's `ACTIVE`, EC2's
/// `running`, …) belong to the dialect translators in `osdc-providers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    Building,
    Active,
    Shutoff,
    Terminated,
}

/// A provisioned VM.
#[derive(Clone, Debug)]
pub struct Instance {
    pub id: InstanceId,
    pub name: String,
    pub owner: String,
    pub flavor: InstanceFlavor,
    pub image: ImageId,
    pub state: InstanceState,
    pub host: HostId,
    pub launched_at: SimTime,
    /// Set when the instance stops accruing core-hours.
    pub terminated_at: Option<SimTime>,
}

impl Instance {
    /// Whether this instance accrues core-hours at `now` (§6.4 polls
    /// "the number and types of virtual machine a user has provisioned").
    pub fn billable(&self) -> bool {
        matches!(self.state, InstanceState::Building | InstanceState::Active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_set_is_monotone() {
        let flavors = InstanceFlavor::standard_set();
        assert_eq!(flavors.len(), 4);
        for w in flavors.windows(2) {
            assert!(w[0].vcpus < w[1].vcpus);
            assert!(w[0].ram_mb < w[1].ram_mb);
        }
    }

    #[test]
    fn billability() {
        let mk = |state| Instance {
            id: InstanceId(1),
            name: "vm".into(),
            owner: "alice".into(),
            flavor: InstanceFlavor::standard_set()[0].clone(),
            image: ImageId(1),
            state,
            host: HostId(0),
            launched_at: SimTime::ZERO,
            terminated_at: None,
        };
        assert!(mk(InstanceState::Building).billable());
        assert!(mk(InstanceState::Active).billable());
        assert!(!mk(InstanceState::Shutoff).billable());
        assert!(!mk(InstanceState::Terminated).billable());
    }
}
