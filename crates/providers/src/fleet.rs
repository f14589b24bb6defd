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
use crate::eventual::EventualProvider;
use crate::paged::PagedProvider;
use crate::pricing::osdc_default_catalogs;
use crate::provider::ClassicProvider;
use crate::registry::ProviderRegistry;
use crate::spot::SpotProvider;

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
/// the given order. Unknown names panic — the mix vocabulary is the
/// five rows above.
pub fn osdc_fleet(mix: &[&str], tele: Telemetry, seed: u64) -> ProviderRegistry {
    let catalogs = osdc_default_catalogs();
    let catalog = |name: &str| {
        catalogs
            .iter()
            .find(|c| c.provider == name)
            .unwrap_or_else(|| panic!("no default catalog for provider {name:?}"))
            .clone()
    };
    let mut registry = ProviderRegistry::new(tele, seed);
    for &name in mix {
        let cloud = CloudController::with_racks(name, 1);
        match name {
            "adler" => registry.register(
                Box::new(ClassicProvider::openstack(name, cloud, osdc_aliases())),
                catalog(name),
            ),
            "sullivan" => registry.register(
                Box::new(ClassicProvider::eucalyptus(name, cloud, osdc_aliases())),
                catalog(name),
            ),
            "spotmart" => {
                // The console's standing bid is the on-demand column.
                let cat = catalog(name);
                let bid = cat.core_hour_rate("small").expect("priced");
                let (floor, ceiling) = (cat.spot_floor_usd, cat.spot_ceiling_usd);
                registry.register(
                    Box::new(SpotProvider::new(
                        name,
                        cloud,
                        osdc_aliases(),
                        seed ^ 0x5907_1234,
                        floor,
                        ceiling,
                        bid,
                    )),
                    cat,
                );
            }
            "lagoon" => registry.register(
                Box::new(EventualProvider::new(
                    name,
                    cloud,
                    osdc_aliases(),
                    SimDuration::from_secs(LAGOON_LAG_SECS),
                )),
                catalog(name),
            ),
            "pagely" => registry.register(
                Box::new(PagedProvider::new(
                    name,
                    cloud,
                    osdc_aliases(),
                    PAGELY_PAGE_SIZE,
                )),
                catalog(name),
            ),
            other => panic!("unknown fleet member {other:?}"),
        }
    }
    registry
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
        assert!(reg.descriptor("spotmart").expect("known").spot);
        assert_eq!(
            reg.descriptor("pagely").expect("known").page_size,
            Some(PAGELY_PAGE_SIZE)
        );
    }

    #[test]
    #[should_panic(expected = "unknown fleet member")]
    fn unknown_members_are_loud() {
        osdc_fleet(&["tempest"], Telemetry::disabled(), 7);
    }
}
