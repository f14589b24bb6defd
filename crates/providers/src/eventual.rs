//! "Lagoon" — a deliberately weird provider: eventual consistency.
//!
//! Lagoon speaks plain Nova REST/JSON (it reuses the
//! [`crate::openstack`] translator verbatim); its weirdness is temporal.
//! Mutations execute immediately and their *direct* responses are
//! consistent, but list/describe render the world as it stood `lag` ago:
//! a freshly launched instance is invisible for the window, and a
//! terminated one lingers in listings looking alive. Routers that trust
//! a listing to dedupe launches double-boot here — which is exactly what
//! the client-token idempotency contract and the audit oracle exist to
//! catch. Writes run on `provider::serve`; the provider adds
//! only the lagged read view.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use osdc_compute::cloud::CloudController;
use osdc_compute::instance::Instance;
use osdc_sim::{SimDuration, SimTime};

use crate::canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, InstanceRecord,
    ProviderError,
};
use crate::openstack::{self, ResponseKind};
use crate::provider::{billable_ground_truth, record_of, serve, CapabilityDescriptor, Provider};

/// The lagoon provider: a strong backend behind a lagging read path.
pub struct EventualProvider {
    name: String,
    pub cloud: CloudController,
    aliases: AliasTables,
    lag: SimDuration,
}

impl EventualProvider {
    pub fn new(
        name: impl Into<String>,
        cloud: CloudController,
        aliases: AliasTables,
        lag: SimDuration,
    ) -> Self {
        EventualProvider {
            name: name.into(),
            cloud,
            aliases,
            lag,
        }
    }

    pub fn lag(&self) -> SimDuration {
        self.lag
    }

    /// Render one instance as the read path sees it at `now`: a write
    /// becomes visible only once `lag` has elapsed since it happened.
    fn record_as_of(&self, inst: &Instance, now: SimTime) -> Option<InstanceRecord> {
        if inst.launched_at + self.lag > now {
            return None; // launch not yet visible
        }
        match inst.terminated_at {
            // Termination old enough to have propagated: gone from reads.
            Some(t) if t + self.lag <= now => None,
            // Terminated inside the window: reads still say it is up.
            Some(_) => Some(InstanceRecord {
                status: CanonicalStatus::Active,
                ..record_of(inst)
            }),
            None => Some(record_of(inst)),
        }
    }

    /// `user`'s instances as the read path sees them at `now`, in id
    /// order.
    fn lagged_view(&self, user: &str, now: SimTime) -> Vec<InstanceRecord> {
        self.cloud
            .instances_of(user)
            .filter_map(|i| self.record_as_of(i, now))
            .collect()
    }
}

impl Provider for EventualProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn descriptor(&self) -> CapabilityDescriptor {
        CapabilityDescriptor {
            api_latency: SimDuration::from_millis(45),
            page_size: None,
        }
    }

    fn aliases(&self) -> &AliasTables {
        &self.aliases
    }

    fn call(
        &mut self,
        user: &str,
        req: &CanonicalRequest,
        now: SimTime,
    ) -> Result<CanonicalResponse, ProviderError> {
        let wire = openstack::encode_request(req, &self.aliases)?;
        let server_req = openstack::decode_request(&wire, &AliasTables::default())?;
        // Reads render the lagged view; writes, including the client-token
        // dedupe, stay strongly consistent — lagoon loses reads, not
        // writes.
        let resp = match server_req {
            CanonicalRequest::ListInstances => {
                CanonicalResponse::Instances(self.lagged_view(user, now))
            }
            CanonicalRequest::DescribeInstance { id } => CanonicalResponse::Instance(
                self.lagged_view(user, now)
                    .into_iter()
                    .find(|r| r.id == id)
                    .ok_or_else(|| ProviderError::Backend(format!("not found: instance {id}")))?,
            ),
            _ => serve(&mut self.cloud, user, &server_req, now)?,
        };
        openstack::decode_response(&ResponseKind::of(req), &openstack::encode_response(&resp))
    }

    fn ground_truth(&self) -> Vec<(String, InstanceRecord)> {
        billable_ground_truth(&self.cloud)
    }

    fn roundtrip_request(&self, req: &CanonicalRequest) -> Result<CanonicalRequest, ProviderError> {
        openstack::decode_request(
            &openstack::encode_request(req, &self.aliases)?,
            &self.aliases,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn lagoon(lag_secs: u64) -> EventualProvider {
        let mut aliases = AliasTables::default();
        aliases.flavors.insert("small".into(), "m1.small".into());
        aliases.images.insert("ubuntu-base".into(), 1);
        EventualProvider::new(
            "lagoon",
            CloudController::with_racks("lagoon", 1),
            aliases,
            SimDuration::from_secs(lag_secs),
        )
    }

    fn launch(name: &str) -> CanonicalRequest {
        CanonicalRequest::LaunchInstance {
            name: name.into(),
            flavor: "small".into(),
            image: 1,
        }
    }

    fn listing(p: &mut EventualProvider, now_secs: u64) -> Vec<InstanceRecord> {
        let CanonicalResponse::Instances(recs) = p
            .call(
                "alice",
                &CanonicalRequest::ListInstances,
                SimTime(now_secs * SEC),
            )
            .expect("lists")
        else {
            panic!()
        };
        recs
    }

    #[test]
    fn fresh_launch_is_invisible_until_the_lag_passes() {
        let mut p = lagoon(30);
        p.call("alice", &launch("vm1"), SimTime(10 * SEC))
            .expect("launches");
        assert!(listing(&mut p, 15).is_empty(), "inside the lag window");
        assert_eq!(listing(&mut p, 41).len(), 1, "window passed");
    }

    #[test]
    fn terminated_instance_lingers_looking_alive() {
        let mut p = lagoon(30);
        let CanonicalResponse::Launched(rec) = p
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        p.call(
            "alice",
            &CanonicalRequest::TerminateInstance { id: rec.id },
            SimTime(100 * SEC),
        )
        .expect("terminates");
        assert!(p.ground_truth().is_empty(), "truth is immediate");
        let ghosts = listing(&mut p, 110);
        assert_eq!(ghosts.len(), 1, "read path still shows it");
        assert_eq!(ghosts[0].status, CanonicalStatus::Active);
        assert!(listing(&mut p, 131).is_empty(), "lag passed, ghost gone");
    }

    #[test]
    fn writes_stay_strongly_consistent() {
        let mut p = lagoon(3600);
        let CanonicalResponse::Launched(a) = p
            .call("alice", &launch("vm1"), SimTime::ZERO)
            .expect("launches")
        else {
            panic!()
        };
        // Token dedupe works even while the listing shows nothing.
        assert!(listing(&mut p, 1).is_empty());
        let CanonicalResponse::Launched(b) = p
            .call("alice", &launch("vm1"), SimTime(SEC))
            .expect("relaunches")
        else {
            panic!()
        };
        assert_eq!(a.id, b.id, "no double boot through the fog");
    }
}
