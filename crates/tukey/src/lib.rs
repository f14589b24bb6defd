//! # osdc-tukey — the paper's primary contribution (§5, §6, Figure 1)
//!
//! "All of the OSDC user services are tied together by Tukey, an
//! application we have developed to provide a centralized and intuitive
//! web interface for accessing public and private cloud services." Tukey
//! is two layers:
//!
//! * **Tukey Console** ([`console`]) — the Django-descended web
//!   application: login, VM provisioning with usage and billing pages,
//!   file-sharing management, public-dataset management. Here it is a
//!   request router over typed operations, one per console page.
//! * **Tukey Middleware** ([`translation`], [`auth`]) — "HTTP based
//!   proxies for authentication and API translations that sit between the
//!   Tukey web application and the cloud software stacks." Authentication
//!   accepts Shibboleth or OpenID ([`auth`]), looks up the cloud
//!   credentials associated with the identifier ([`credentials`]), and
//!   the translation proxies "take in requests based on the OpenStack API
//!   and then issue commands to each cloud based on mappings outlined in
//!   configuration files" — reproduced literally: [`translation`] builds
//!   one `osdc-providers` `Provider` (OpenStack or Eucalyptus
//!   dialect over an `osdc-compute` cloud) per serde-loaded mapping
//!   config, sends every request through the provider runtime's one
//!   encode → serve → decode path, and aggregates per-cloud results,
//!   tagged by cloud name, into OpenStack-format JSON. The proxy carries
//!   no fault or retry layer of its own; API faults live in the
//!   provider registry.
//!
//! The OSDC user services of §6 complete the crate: [`ark`] (dataset
//! identifiers with inflection resolution), [`sharing`] (users, groups,
//! hierarchical file-collections, WebDAV-style access), [`catalog`]
//! (curated public datasets), and [`billing`] (event-driven core-hour
//! and storage accrual, monthly invoices).

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ark;
pub mod auth;
pub mod billing;
pub mod catalog;
pub mod channel;
pub mod console;
pub mod credentials;
pub mod sharing;
pub mod translation;

pub use ark::{Ark, ArkService, Inflection};
pub use auth::{AuthError, AuthProxy, Identity, OpenIdProvider, ShibbolethIdp};
pub use billing::{BillingService, Invoice, Rates};
pub use catalog::{DatasetCatalog, DatasetRecord};
pub use channel::{channel_pair, ChannelError, SealedMessage, SecureChannel};
pub use console::{ConsoleError, SessionToken, TukeyConsole};
pub use credentials::{CloudCredential, CredentialVault};
pub use sharing::{CollectionId, FileSharingService, Permission, ShareError};
pub use translation::{CloudMapping, CloudStackKind, ProxyError, TranslationProxy};
