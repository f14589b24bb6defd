//! Standard federation assembly: the five OSDC providers by name.
//!
//! The audit oracle, the `exp_providers` grid, the chaos campaign's
//! `adler`/`sullivan` pair and the unit tests all need the same fleet
//! wired the same way — one registry, providers drawn from the default
//! catalog set, each speaking its own dialect:
//!
//! | name       | dialect                     | weirdness                |
//! |------------|-----------------------------|--------------------------|
//! | `adler`    | OpenStack REST/JSON         | none (classic)           |
//! | `sullivan` | Eucalyptus EC2 query/XML    | none (classic)           |
//! | `spotmart` | REST/JSON                   | spot market, preemption  |
//! | `lagoon`   | REST/JSON                   | eventually consistent    |
//! | `pagely`   | REST/JSON, paginated        | page-boundary listings   |
//!
//! Every provider shares the unified alias vocabulary
//! (`small`/`medium`/`large`/`xlarge` → `m1.*`, `ubuntu-base` → image 1)
//! so a launch can land anywhere and the router's choice is purely
//! price and health.

use osdc_compute::cloud::CloudController;
use osdc_sim::SimDuration;
use osdc_telemetry::Telemetry;

use crate::canonical::AliasTables;
use crate::pricing::{osdc_default_catalogs, PricingCatalog};
use crate::provider::Provider;
use crate::registry::ProviderRegistry;

/// The unified alias vocabulary every fleet member understands.
pub fn osdc_aliases() -> AliasTables {
    let mut t = AliasTables::default();
    for (unified, native) in [
        ("small", "m1.small"),
        ("medium", "m1.medium"),
        ("large", "m1.large"),
        ("xlarge", "m1.xlarge"),
    ] {
        t.flavors.insert(unified.into(), native.into());
    }
    t.images.insert("ubuntu-base".into(), 1);
    t
}

/// Read-propagation lag of the `lagoon` provider.
pub const LAGOON_LAG_SECS: u64 = 90;

/// Listing page size of the `pagely` provider.
pub const PAGELY_PAGE_SIZE: usize = 3;

/// Build a registry holding the named subset of the standard fleet, in
/// the given order.
///
/// # Panics
///
/// On a name outside the five rows above: the mix vocabulary is fixed,
/// so an unknown name is a caller's typo, refused loudly.
pub fn osdc_fleet(mix: &[&str], tele: Telemetry, seed: u64) -> ProviderRegistry {
    let catalogs = osdc_default_catalogs();
    let mut registry = ProviderRegistry::new(tele, seed);
    for &name in mix {
        let Some((provider, catalog)) = catalogs
            .iter()
            .find(|c| c.provider == name)
            .and_then(|c| Some((member(name, c, seed)?, c.clone())))
        else {
            unknown_member(name)
        };
        registry.register(provider, catalog);
    }
    registry
}

/// Fleet member `name` on a fresh one-rack cloud, or `None` for a name
/// outside the fleet (or, which the default catalogs never are, a
/// spotmart catalog without a `small` rate).
fn member(name: &str, catalog: &PricingCatalog, seed: u64) -> Option<Provider> {
    let cloud = CloudController::with_racks(name, 1);
    Some(match name {
        "adler" => Provider::openstack(name, cloud, osdc_aliases()),
        "sullivan" => Provider::eucalyptus(name, cloud, osdc_aliases()),
        // The console's standing bid is the on-demand column.
        "spotmart" => Provider::spot(
            name,
            cloud,
            osdc_aliases(),
            seed ^ 0x5907_1234,
            catalog.spot_floor_usd,
            catalog.spot_ceiling_usd,
            catalog.core_hour_rate("small")?,
        ),
        "lagoon" => Provider::lagged(
            name,
            cloud,
            osdc_aliases(),
            SimDuration::from_secs(LAGOON_LAG_SECS),
        ),
        "pagely" => Provider::paged(name, cloud, osdc_aliases(), PAGELY_PAGE_SIZE),
        _ => return None,
    })
}

// Refusing an unknown member loudly is `osdc_fleet`'s contract
// (`unknown_members_are_loud`); every member's default catalog exists
// and prices `small` (`default_catalogs_cover_all_providers`).
#[allow(clippy::panic)]
fn unknown_member(name: &str) -> ! {
    panic!("unknown fleet member {name:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fleet_assembles_in_mix_order() {
        let reg = osdc_fleet(
            &["pagely", "adler", "spotmart", "lagoon", "sullivan"],
            Telemetry::disabled(),
            7,
        );
        assert_eq!(
            reg.names(),
            vec!["pagely", "adler", "spotmart", "lagoon", "sullivan"]
        );
        for name in reg.names() {
            assert!(reg.catalog(&name).is_some(), "{name} has a catalog");
            assert!(reg.aliases(&name).is_some(), "{name} has aliases");
        }
        assert!(reg.spot_price("spotmart").is_some());
    }

    #[test]
    #[should_panic(expected = "unknown fleet member")]
    fn unknown_members_are_loud() {
        osdc_fleet(&["tempest"], Telemetry::disabled(), 7);
    }
}
