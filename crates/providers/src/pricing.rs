//! Pricing catalogs: what each provider charges, in reviewable JSON.
//!
//! A catalog is plain data — serializable so the default set can live as
//! a checked-in snapshot (`data/pricing_catalogs.json`) that makes any
//! price edit show up in a review diff. Rates are $/core-hour in the
//! unified flavor vocabulary; spot markets additionally publish their
//! floor/ceiling band, inside which the live price walks.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Price of one unified flavor on one provider.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlavorPrice {
    pub vcpus: u32,
    pub per_core_hour_usd: f64,
}

/// One provider's price list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PricingCatalog {
    pub provider: String,
    pub currency: String,
    /// Flat fee per API call (metering every translated request).
    pub per_call_usd: f64,
    /// Unified flavor name → price.
    pub flavors: BTreeMap<String, FlavorPrice>,
    /// Spot markets only: the band the live price walks inside.
    #[serde(default)]
    pub spot_floor_usd: f64,
    #[serde(default)]
    pub spot_ceiling_usd: f64,
}

impl PricingCatalog {
    pub fn is_spot(&self) -> bool {
        self.spot_ceiling_usd > 0.0
    }

    pub fn vcpus(&self, flavor: &str) -> Option<u32> {
        self.flavors.get(flavor).map(|f| f.vcpus)
    }

    /// On-demand $/core-hour for a flavor, if priced here at all.
    pub fn core_hour_rate(&self, flavor: &str) -> Option<f64> {
        self.flavors.get(flavor).map(|f| f.per_core_hour_usd)
    }

    /// The rate actually charged right now: the live spot price when one
    /// is quoted, the list rate otherwise.
    pub fn effective_rate(&self, flavor: &str, spot_price: Option<f64>) -> Option<f64> {
        let list = self.core_hour_rate(flavor)?;
        Some(match spot_price {
            Some(p) if self.is_spot() => p,
            _ => list,
        })
    }
}

fn catalog(
    provider: &str,
    per_call_usd: f64,
    per_core_hour: [f64; 4],
    spot_band: Option<(f64, f64)>,
) -> PricingCatalog {
    let sizes = [("small", 1u32), ("medium", 2), ("large", 4), ("xlarge", 8)];
    let flavors = sizes
        .iter()
        .zip(per_core_hour)
        .map(|((name, vcpus), rate)| {
            (
                name.to_string(),
                FlavorPrice {
                    vcpus: *vcpus,
                    per_core_hour_usd: rate,
                },
            )
        })
        .collect();
    let (spot_floor_usd, spot_ceiling_usd) = spot_band.unwrap_or((0.0, 0.0));
    PricingCatalog {
        provider: provider.to_string(),
        currency: "USD".to_string(),
        per_call_usd,
        flavors,
        spot_floor_usd,
        spot_ceiling_usd,
    }
}

/// The default OSDC federation price list, one catalog per provider.
/// Keep in sync with `data/pricing_catalogs.json` (the snapshot test
/// fails otherwise).
pub fn osdc_default_catalogs() -> Vec<PricingCatalog> {
    vec![
        // The two classic utility clouds: list-priced, slight volume
        // discount on bigger flavors.
        catalog("adler", 0.0002, [0.08, 0.078, 0.075, 0.072], None),
        catalog("sullivan", 0.0001, [0.075, 0.073, 0.07, 0.068], None),
        // Spotmart: cheap while the market is calm, preemptible. The
        // on-demand column doubles as the console's standing bid.
        catalog(
            "spotmart",
            0.0001,
            [0.06, 0.06, 0.06, 0.06],
            Some((0.015, 0.14)),
        ),
        // Lagoon: cheapest list price, eventually consistent reads.
        catalog("lagoon", 0.0001, [0.05, 0.05, 0.05, 0.05], None),
        // Pagely: mid-market, paginated listings.
        catalog("pagely", 0.0003, [0.065, 0.064, 0.062, 0.06], None),
    ]
}

/// Serialize catalogs exactly as the checked-in snapshot stores them.
// A catalog is strings, numbers and string-keyed maps, which always
// serialize (the snapshot test renders the default set).
#[allow(clippy::expect_used)]
pub fn render_catalogs(catalogs: &[PricingCatalog]) -> String {
    let mut s = serde_json::to_string_pretty(&catalogs.to_vec()).expect("catalogs serialize");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalogs_cover_all_providers() {
        let cats = osdc_default_catalogs();
        let names: Vec<&str> = cats.iter().map(|c| c.provider.as_str()).collect();
        assert_eq!(
            names,
            vec!["adler", "sullivan", "spotmart", "lagoon", "pagely"]
        );
        for c in &cats {
            assert_eq!(c.flavors.len(), 4, "{}", c.provider);
            assert!(c.per_call_usd > 0.0);
        }
        assert!(cats[2].is_spot());
        assert!(!cats[0].is_spot());
    }

    #[test]
    fn effective_rate_prefers_live_spot_price() {
        let cats = osdc_default_catalogs();
        let spot = &cats[2];
        assert_eq!(spot.effective_rate("small", Some(0.021)), Some(0.021));
        let fixed = &cats[0];
        assert_eq!(fixed.effective_rate("small", Some(0.021)), Some(0.08));
        assert_eq!(fixed.effective_rate("m9.hyper", None), None);
    }

    #[test]
    fn catalogs_roundtrip_through_json() {
        let cats = osdc_default_catalogs();
        let json = render_catalogs(&cats);
        let back: Vec<PricingCatalog> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, cats);
    }
}
