//! The cloud controller: scheduler, lifecycle, usage snapshots.
//!
//! One `CloudController` models one utility cloud (an OSDC-Adler, an
//! OSDC-Sullivan). Both native API dialects (served by `osdc-providers`)
//! are thin translations over this type, which is the point: the
//! *controller* semantics are common, the *wire formats* are not, and
//! Tukey bridges the difference.

use std::collections::BTreeMap;

use osdc_sim::SimTime;

use crate::host::{Host, HostId};
use crate::image::{ImageId, MachineImage};
use crate::instance::{Instance, InstanceFlavor, InstanceId, InstanceState};

/// Why a boot request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulingError {
    UnknownFlavor(String),
    UnknownImage(ImageId),
    /// No host has room for the flavor.
    NoCapacity {
        requested_cores: u32,
    },
    UnknownInstance(InstanceId),
}

/// Point-in-time usage for one user — what the §6.4 billing poller reads
/// each minute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UsageSnapshot {
    pub instances: u32,
    pub cores: u32,
    pub ram_mb: u64,
}

/// One IaaS cloud.
pub struct CloudController {
    pub name: String,
    hosts: Vec<Host>,
    flavors: Vec<InstanceFlavor>,
    images: BTreeMap<ImageId, MachineImage>,
    instances: BTreeMap<InstanceId, Instance>,
    next_instance: u64,
    next_image: u64,
}

impl CloudController {
    pub fn new(name: impl Into<String>, hosts: Vec<Host>) -> Self {
        let images: BTreeMap<ImageId, MachineImage> = MachineImage::osdc_catalog()
            .into_iter()
            .map(|i| (i.id, i))
            .collect();
        let next_image = images.keys().map(|i| i.0).max().unwrap_or(0) + 1;
        CloudController {
            name: name.into(),
            hosts,
            flavors: InstanceFlavor::standard_set(),
            images,
            instances: BTreeMap::new(),
            next_instance: 1,
            next_image,
        }
    }

    /// Build a cloud of `racks` standard OSDC racks (39 × 8-core servers).
    pub fn with_racks(name: impl Into<String>, racks: usize) -> Self {
        let name = name.into();
        let hosts = (0..racks * 39)
            .map(|i| {
                Host::osdc_standard(HostId(i), format!("{name}-rack{}-server{}", i / 39, i % 39))
            })
            .collect();
        CloudController::new(name, hosts)
    }

    pub fn total_cores(&self) -> u32 {
        self.hosts.iter().map(|h| h.cores).sum()
    }

    pub fn total_disk_gb(&self) -> u64 {
        self.hosts.iter().map(|h| h.disk_gb).sum()
    }

    pub fn allocated_cores(&self) -> u32 {
        self.hosts.iter().map(|h| h.allocated_cores()).sum()
    }

    pub fn utilization(&self) -> f64 {
        self.allocated_cores() as f64 / self.total_cores() as f64
    }

    pub fn flavors(&self) -> &[InstanceFlavor] {
        &self.flavors
    }

    pub fn find_flavor(&self, name: &str) -> Option<&InstanceFlavor> {
        self.flavors.iter().find(|f| f.name == name)
    }

    pub fn images(&self) -> impl Iterator<Item = &MachineImage> {
        self.images.values()
    }

    pub fn image(&self, id: ImageId) -> Option<&MachineImage> {
        self.images.get(&id)
    }

    pub fn register_image(&mut self, mut image: MachineImage) -> ImageId {
        let id = ImageId(self.next_image);
        self.next_image += 1;
        image.id = id;
        self.images.insert(id, image);
        id
    }

    /// Boot an instance: least-loaded host that fits (spreading, the Nova
    /// default weigher of the era).
    pub fn boot(
        &mut self,
        owner: &str,
        name: &str,
        flavor_name: &str,
        image: ImageId,
        now: SimTime,
    ) -> Result<InstanceId, SchedulingError> {
        let flavor = self
            .find_flavor(flavor_name)
            .cloned()
            .ok_or_else(|| SchedulingError::UnknownFlavor(flavor_name.to_string()))?;
        if !self.images.contains_key(&image) {
            return Err(SchedulingError::UnknownImage(image));
        }
        let host_idx = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.fits(flavor.vcpus, flavor.ram_mb, flavor.disk_gb))
            .min_by(|(_, a), (_, b)| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .expect("utilization is finite")
            })
            .map(|(i, _)| i)
            .ok_or(SchedulingError::NoCapacity {
                requested_cores: flavor.vcpus,
            })?;
        assert!(self.hosts[host_idx].allocate(flavor.vcpus, flavor.ram_mb, flavor.disk_gb));
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            id,
            Instance {
                id,
                name: name.to_string(),
                owner: owner.to_string(),
                flavor,
                image,
                state: InstanceState::Active,
                host: self.hosts[host_idx].id,
                launched_at: now,
                terminated_at: None,
            },
        );
        Ok(id)
    }

    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    pub fn instances_of<'a>(&'a self, owner: &'a str) -> impl Iterator<Item = &'a Instance> + 'a {
        self.instances.values().filter(move |i| i.owner == owner)
    }

    pub fn all_instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// Stop a running instance: cores and RAM are released (the paper's
    /// §6.4 billing counts Building/Active only), but the root disk stays
    /// allocated on the host, as both stacks of the era did.
    pub fn stop(&mut self, id: InstanceId, now: SimTime) -> Result<(), SchedulingError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(SchedulingError::UnknownInstance(id))?;
        if inst.state != InstanceState::Active && inst.state != InstanceState::Building {
            return Ok(()); // stop is idempotent on non-running states
        }
        inst.state = InstanceState::Shutoff;
        let host = inst.host;
        let (c, r) = (inst.flavor.vcpus, inst.flavor.ram_mb);
        self.hosts[host.0].release(c, r, 0);
        let _ = now;
        Ok(())
    }

    /// Restart a stopped instance on its original host (disk is still
    /// there); fails with `NoCapacity` if the cores have been given away.
    pub fn start(&mut self, id: InstanceId, now: SimTime) -> Result<(), SchedulingError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(SchedulingError::UnknownInstance(id))?;
        if inst.state != InstanceState::Shutoff {
            return Ok(()); // start is idempotent on running states
        }
        let host = inst.host;
        let (c, r) = (inst.flavor.vcpus, inst.flavor.ram_mb);
        if !self.hosts[host.0].allocate(c, r, 0) {
            return Err(SchedulingError::NoCapacity { requested_cores: c });
        }
        inst.state = InstanceState::Active;
        inst.launched_at = now;
        Ok(())
    }

    pub fn terminate(&mut self, id: InstanceId, now: SimTime) -> Result<(), SchedulingError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(SchedulingError::UnknownInstance(id))?;
        if inst.state == InstanceState::Terminated {
            return Ok(()); // idempotent, as both real APIs are
        }
        let host = inst.host;
        // A Shutoff instance already gave back cores and RAM; only its
        // root disk remains to release.
        let (c, r) = if inst.state == InstanceState::Shutoff {
            (0, 0)
        } else {
            (inst.flavor.vcpus, inst.flavor.ram_mb)
        };
        let d = inst.flavor.disk_gb;
        inst.state = InstanceState::Terminated;
        inst.terminated_at = Some(now);
        self.hosts[host.0].release(c, r, d);
        Ok(())
    }

    /// Hardware failure: the host drops off the network, every instance on
    /// it dies (terminated, resources released), and the scheduler stops
    /// considering it. Returns how many instances were killed.
    pub fn fail_host(&mut self, host: HostId, now: SimTime) -> u32 {
        let doomed: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.host == host && i.state != InstanceState::Terminated)
            .map(|i| i.id)
            .collect();
        let killed = doomed.len() as u32;
        for id in doomed {
            self.terminate(id, now).expect("instance exists");
        }
        self.hosts[host.0].set_up(false);
        killed
    }

    /// Bring a failed host back into the scheduling pool (repaired or
    /// rebooted — its instances are gone either way).
    pub fn restore_host(&mut self, host: HostId) {
        self.hosts[host.0].set_up(true);
    }

    pub fn host_is_up(&self, host: HostId) -> bool {
        self.hosts[host.0].is_up()
    }

    pub fn hosts_up(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_up()).count()
    }

    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Kill one instance out from under its owner (OOM, kernel panic, a
    /// chaos monkey): terminate semantics, without touching the host.
    pub fn kill_instance(&mut self, id: InstanceId, now: SimTime) -> Result<(), SchedulingError> {
        self.terminate(id, now)
    }

    /// Per-minute billing poll: live resources for one user.
    pub fn usage(&self, owner: &str) -> UsageSnapshot {
        let mut snap = UsageSnapshot::default();
        for i in self.instances_of(owner).filter(|i| i.billable()) {
            snap.instances += 1;
            snap.cores += i.flavor.vcpus;
            snap.ram_mb += i.flavor.ram_mb;
        }
        snap
    }

    /// All users with any billable usage right now.
    pub fn active_users(&self) -> Vec<String> {
        let mut users: Vec<String> = self
            .instances
            .values()
            .filter(|i| i.billable())
            .map(|i| i.owner.clone())
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cloud() -> CloudController {
        let hosts = (0..4)
            .map(|i| Host::new(HostId(i), format!("h{i}"), 8, 32_768, 8_000))
            .collect();
        CloudController::new("test-cloud", hosts)
    }

    #[test]
    fn rack_arithmetic_matches_table2() {
        // OSDC-Adler & Sullivan: 1248 cores = 4 racks × 39 × 8.
        let cloud = CloudController::with_racks("adler-sullivan", 4);
        assert_eq!(cloud.total_cores(), 1248);
        // 4 racks × 39 × 8 TB = 1248 TB ≈ the paper's "1.2PB disk".
        assert_eq!(cloud.total_disk_gb(), 1_248_000);
    }

    #[test]
    fn boot_and_terminate_lifecycle() {
        let mut cloud = small_cloud();
        let id = cloud
            .boot("alice", "analysis-1", "m1.large", ImageId(2), SimTime::ZERO)
            .expect("boots");
        let inst = cloud.instance(id).expect("exists");
        assert_eq!(inst.state, InstanceState::Active);
        assert_eq!(cloud.allocated_cores(), 4);
        cloud.terminate(id, SimTime(60)).expect("terminates");
        assert_eq!(
            cloud.instance(id).expect("still listed").state,
            InstanceState::Terminated
        );
        assert_eq!(cloud.allocated_cores(), 0);
        // Idempotent: resources are not double-released.
        cloud.terminate(id, SimTime(61)).expect("idempotent");
        assert_eq!(cloud.allocated_cores(), 0);
    }

    #[test]
    fn scheduler_spreads_load() {
        let mut cloud = small_cloud();
        for i in 0..4 {
            cloud
                .boot(
                    "u",
                    &format!("vm{i}"),
                    "m1.medium",
                    ImageId(1),
                    SimTime::ZERO,
                )
                .expect("boots");
        }
        // Least-loaded spreading: one VM per host.
        let hosts: Vec<HostId> = cloud.all_instances().map(|i| i.host).collect();
        let mut unique = hosts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "VMs should spread: {hosts:?}");
    }

    #[test]
    fn capacity_exhaustion() {
        let mut cloud = small_cloud(); // 32 cores total
        for i in 0..4 {
            cloud
                .boot(
                    "u",
                    &format!("big{i}"),
                    "m1.xlarge",
                    ImageId(1),
                    SimTime::ZERO,
                )
                .expect("boots");
        }
        let err = cloud
            .boot("u", "one-too-many", "m1.small", ImageId(1), SimTime::ZERO)
            .expect_err("full");
        assert_eq!(err, SchedulingError::NoCapacity { requested_cores: 1 });
    }

    #[test]
    fn terminated_capacity_is_reusable() {
        let mut cloud = small_cloud();
        let ids: Vec<InstanceId> = (0..4)
            .map(|i| {
                cloud
                    .boot(
                        "u",
                        &format!("vm{i}"),
                        "m1.xlarge",
                        ImageId(1),
                        SimTime::ZERO,
                    )
                    .expect("boots")
            })
            .collect();
        cloud.terminate(ids[0], SimTime(1)).expect("terminate");
        cloud
            .boot("u", "replacement", "m1.xlarge", ImageId(1), SimTime(2))
            .expect("fits again");
    }

    #[test]
    fn unknown_flavor_and_image_rejected() {
        let mut cloud = small_cloud();
        assert!(matches!(
            cloud.boot("u", "x", "m9.hyper", ImageId(1), SimTime::ZERO),
            Err(SchedulingError::UnknownFlavor(_))
        ));
        assert!(matches!(
            cloud.boot("u", "x", "m1.small", ImageId(999), SimTime::ZERO),
            Err(SchedulingError::UnknownImage(ImageId(999)))
        ));
    }

    #[test]
    fn usage_snapshot_tracks_billables() {
        let mut cloud = small_cloud();
        let a = cloud
            .boot("alice", "a1", "m1.large", ImageId(1), SimTime::ZERO)
            .expect("boots");
        cloud
            .boot("alice", "a2", "m1.small", ImageId(1), SimTime::ZERO)
            .expect("boots");
        cloud
            .boot("bob", "b1", "m1.medium", ImageId(1), SimTime::ZERO)
            .expect("boots");
        let alice = cloud.usage("alice");
        assert_eq!(alice.instances, 2);
        assert_eq!(alice.cores, 5);
        assert_eq!(cloud.usage("bob").cores, 2);
        assert_eq!(
            cloud.active_users(),
            vec!["alice".to_string(), "bob".to_string()]
        );
        cloud.terminate(a, SimTime(9)).expect("terminate");
        assert_eq!(cloud.usage("alice").cores, 1);
    }

    #[test]
    fn stop_releases_cores_but_keeps_disk() {
        let mut cloud = small_cloud();
        let id = cloud
            .boot("alice", "vm", "m1.xlarge", ImageId(1), SimTime::ZERO)
            .expect("boots");
        assert_eq!(cloud.allocated_cores(), 8);
        cloud.stop(id, SimTime(1)).expect("stops");
        assert_eq!(
            cloud.instance(id).expect("exists").state,
            InstanceState::Shutoff
        );
        assert_eq!(cloud.allocated_cores(), 0, "cores returned");
        assert!(
            !cloud.instance(id).expect("exists").billable(),
            "§6.4: stopped VMs stop billing"
        );
        // Stop is idempotent.
        cloud.stop(id, SimTime(2)).expect("idempotent");
        assert_eq!(cloud.allocated_cores(), 0);
        // Restart re-claims cores on the same host.
        cloud.start(id, SimTime(3)).expect("starts");
        assert_eq!(cloud.allocated_cores(), 8);
        assert_eq!(
            cloud.instance(id).expect("exists").state,
            InstanceState::Active
        );
    }

    #[test]
    fn start_fails_when_host_cores_taken() {
        // One-host cloud: stop a VM, fill the host, then try to restart.
        let hosts = vec![Host::new(HostId(0), "h0", 8, 32_768, 8_000)];
        let mut cloud = CloudController::new("tiny", hosts);
        let parked = cloud
            .boot("alice", "parked", "m1.xlarge", ImageId(1), SimTime::ZERO)
            .expect("boots");
        cloud.stop(parked, SimTime(1)).expect("stops");
        cloud
            .boot("bob", "squatter", "m1.xlarge", ImageId(1), SimTime(2))
            .expect("boots into the freed cores");
        let err = cloud.start(parked, SimTime(3)).expect_err("cores gone");
        assert_eq!(err, SchedulingError::NoCapacity { requested_cores: 8 });
        assert_eq!(
            cloud.instance(parked).expect("exists").state,
            InstanceState::Shutoff
        );
    }

    #[test]
    fn terminate_after_stop_releases_disk_only_once() {
        let mut cloud = small_cloud();
        let id = cloud
            .boot("alice", "vm", "m1.large", ImageId(1), SimTime::ZERO)
            .expect("boots");
        cloud.stop(id, SimTime(1)).expect("stops");
        cloud.terminate(id, SimTime(2)).expect("terminates");
        assert_eq!(cloud.allocated_cores(), 0);
        // Everything is reusable afterwards: fill the cloud completely.
        for i in 0..4 {
            cloud
                .boot("x", &format!("vm{i}"), "m1.xlarge", ImageId(1), SimTime(3))
                .expect("full capacity available");
        }
    }

    #[test]
    fn failed_host_kills_instances_and_leaves_pool() {
        let mut cloud = small_cloud();
        let ids: Vec<InstanceId> = (0..4)
            .map(|i| {
                cloud
                    .boot("u", &format!("vm{i}"), "m1.xlarge", ImageId(1), SimTime(0))
                    .expect("boots")
            })
            .collect();
        let victim_host = cloud.instance(ids[0]).expect("exists").host;
        let killed = cloud.fail_host(victim_host, SimTime(5));
        assert_eq!(killed, 1, "spread placement put one VM here");
        assert_eq!(
            cloud.instance(ids[0]).expect("listed").state,
            InstanceState::Terminated
        );
        assert_eq!(cloud.hosts_up(), 3);
        // Full-cloud boot pressure now fails: the down host takes no work.
        let err = cloud
            .boot("u", "fits-nowhere", "m1.small", ImageId(1), SimTime(6))
            .expect_err("3 survivors are full with xlarge VMs");
        assert_eq!(err, SchedulingError::NoCapacity { requested_cores: 1 });
        cloud.restore_host(victim_host);
        assert_eq!(cloud.hosts_up(), 4);
        cloud
            .boot("u", "recovered", "m1.xlarge", ImageId(1), SimTime(7))
            .expect("restored host schedules again");
    }

    #[test]
    fn kill_instance_releases_resources() {
        let mut cloud = small_cloud();
        let id = cloud
            .boot("u", "vm", "m1.large", ImageId(1), SimTime(0))
            .expect("boots");
        cloud.kill_instance(id, SimTime(1)).expect("killed");
        assert_eq!(cloud.allocated_cores(), 0);
        assert_eq!(
            cloud.instance(id).expect("listed").state,
            InstanceState::Terminated
        );
    }

    #[test]
    fn imported_image_is_bootable() {
        let mut cloud = small_cloud();
        let bundle = MachineImage::osdc_catalog()[1]
            .export_bundle()
            .expect("exportable");
        let img = MachineImage::import_bundle(&bundle, ImageId(0)).expect("parses");
        let id = cloud.register_image(img);
        cloud
            .boot("alice", "from-aws", "m1.small", id, SimTime::ZERO)
            .expect("boots from imported image");
    }
}
