//! osdc-providers: the pluggable provider runtime for the OSDC federation.
//!
//! The Tukey middleware (crates/tukey) proved the thesis on two dialects:
//! one canonical intent, per-cloud translators, byte-faithful wire formats.
//! This crate generalizes that design into a runtime other subsystems can
//! build on:
//!
//! * [`canonical`] — provider-neutral request/response types, alias
//!   tables mapping unified flavor/image names onto native ones, and a
//!   typed [`canonical::ProviderError`].
//! * [`wire`] — the wire-level envelope ([`wire::WireRequest`] /
//!   [`wire::WireResponse`]) plus the shared XML/query-string parsers.
//! * One translator module per dialect, each holding both halves as pure
//!   functions — the client half (`encode_request`, `decode_response`)
//!   and the server half (`decode_request`, `encode_response`):
//!   [`openstack`] (Nova REST/JSON), [`eucalyptus`] (EC2 query/XML),
//!   [`spot`] (a spot market with preemption), [`paged`]
//!   (cursor-paginated JSON). [`eventual`] reuses the Nova translator but
//!   lags its read path.
//! * [`provider`] — the [`provider::Provider`] trait (capability
//!   descriptor, canonical `call`, ground-truth introspection for
//!   audits), `provider::serve`, the one canonical backend over an
//!   `osdc-compute` `CloudController` (client-token idempotency and the
//!   owner check live there), and [`provider::ClassicProvider`], the two
//!   original Tukey dialects on the trait. Every provider's `call` runs
//!   encode → decode → `serve` → encode → decode, and Tukey's translation
//!   proxy runs one `ClassicProvider` per mapped cloud, so
//!   `Provider::call` is the workspace's one encode → serve → decode
//!   path.
//! * [`pricing`] — per-provider pricing catalogs; the checked-in
//!   snapshot lives at `data/pricing_catalogs.json`.
//! * [`registry`] — [`registry::ProviderRegistry`]: the provider table
//!   with per-call metering (telemetry counters + a usage/cost ledger)
//!   and the chaos gate (API outage / timeout / lost-response / error
//!   injection). It is the federation's only API fault gate: the
//!   failover experiments and the `osdc-chaos` campaign both drive it.
//! * [`router`] — [`router::FailoverRouter`]: cheapest-capable-first
//!   launch placement with failover, suspect cooldowns, an orphan book
//!   for timed-out mutations, reconcile, and assignment-driven billing
//!   accrual that makes double-billing structurally impossible.
//!
//! The compat gate: `figure1_tukey` must produce byte-identical
//! same-seed artifacts with the console's OpenStack and Eucalyptus
//! clouds served through [`provider::ClassicProvider`].

pub mod canonical;
pub mod eucalyptus;
pub mod eventual;
pub mod fleet;
pub mod openstack;
pub mod paged;
pub mod pricing;
pub mod provider;
pub mod registry;
pub mod router;
pub mod spot;
pub mod wire;

pub use canonical::{
    AliasTables, CanonicalRequest, CanonicalResponse, CanonicalStatus, FlavorRecord, ImageRecord,
    InstanceRecord, ProviderError,
};
pub use fleet::{osdc_aliases, osdc_fleet};
pub use pricing::{osdc_default_catalogs, render_catalogs, PricingCatalog};
pub use provider::{CapabilityDescriptor, ClassicProvider, Provider};
pub use registry::{ApiHealth, ProviderRegistry, ProviderUsage, UsageLedger};
pub use router::{Assignment, FailoverRouter, RouterScorecard};
pub use wire::{WireRequest, WireResponse};
