//! Canonical request/response vocabulary shared by every provider.
//!
//! Tukey's translation layer (§5.2) exists so the console can speak one
//! language while each cloud speaks its own. The canonical types here are
//! that one language, factored out of `osdc-tukey` so any number of
//! provider dialects can translate to and from it. Translators are pure
//! `encode_*`/`decode_*` functions over these types (one module per
//! provider); everything stateful — registries, pricing, failover — is
//! built on top.

use std::collections::BTreeMap;

/// A provider-agnostic console request. Flavor and image names are
/// *unified* names; each provider's alias tables map them to native
/// identifiers at encode time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonicalRequest {
    /// List every instance the calling user owns.
    ListInstances,
    /// Launch one instance. `name` doubles as the client token: a
    /// provider that sees the same live name again returns the existing
    /// instance instead of double-booting.
    LaunchInstance {
        name: String,
        flavor: String,
        image: u64,
    },
    /// Terminate by native instance id.
    TerminateInstance {
        id: u64,
    },
    /// Describe one instance by native id.
    DescribeInstance {
        id: u64,
    },
    ListFlavors,
    ListImages,
}

/// Instance lifecycle states in the canonical vocabulary.
///
/// Each dialect spells them in one `STATUS_WORDS` table of its codec
/// module, indexed in declaration order and read both ways through
/// `word` and `from_word`. The spot market adds `Preempted`, which no
/// 2012 stack had a word for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CanonicalStatus {
    Build,
    Active,
    Shutoff,
    Terminated,
    Preempted,
}

impl CanonicalStatus {
    /// Every status, in declaration order: the order of a dialect's
    /// word table.
    pub(crate) const ALL: [CanonicalStatus; 5] = [
        CanonicalStatus::Build,
        CanonicalStatus::Active,
        CanonicalStatus::Shutoff,
        CanonicalStatus::Terminated,
        CanonicalStatus::Preempted,
    ];

    /// This status's word in a dialect's table.
    pub(crate) fn word(self, words: &[&'static str; 5]) -> &'static str {
        words[self as usize]
    }

    /// The status a dialect's table spells `word`. A word outside the
    /// table is a [`ProviderError::Translation`] naming it as a `what`
    /// (`"ec2 state"`, say).
    pub(crate) fn from_word(
        words: &[&str; 5],
        word: &str,
        what: &str,
    ) -> Result<CanonicalStatus, ProviderError> {
        words
            .iter()
            .position(|w| *w == word)
            .map(|i| CanonicalStatus::ALL[i])
            .ok_or_else(|| ProviderError::Translation(format!("unknown {what} {word:?}")))
    }
}

/// One instance, as every dialect describes it after decoding.
///
/// `vcpus` and `image` are `None` when a dialect's wire format does not
/// carry them (the EC2-query describe response, for one) — the
/// OpenStack-format rendering omits the missing fields, which is exactly
/// how the pre-runtime Tukey proxy behaved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceRecord {
    pub id: u64,
    pub name: String,
    pub status: CanonicalStatus,
    pub flavor: String,
    pub vcpus: Option<u32>,
    pub image: Option<u64>,
}

/// One flavor, canonically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlavorRecord {
    pub name: String,
    pub vcpus: u32,
    pub ram_mb: u64,
    pub disk_gb: u64,
}

/// One machine image, canonically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageRecord {
    pub id: u64,
    pub name: String,
}

/// A provider-agnostic response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonicalResponse {
    Instances(Vec<InstanceRecord>),
    Launched(InstanceRecord),
    Terminated { id: u64 },
    Instance(InstanceRecord),
    Flavors(Vec<FlavorRecord>),
    Images(Vec<ImageRecord>),
}

/// Unified → native alias tables, the per-cloud "configuration file" of
/// §5.2 in canonical form. Unmapped names pass through unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AliasTables {
    pub flavors: BTreeMap<String, String>,
    pub images: BTreeMap<String, u64>,
}

impl AliasTables {
    pub fn native_flavor<'a>(&'a self, unified: &'a str) -> &'a str {
        self.flavors
            .get(unified)
            .map(String::as_str)
            .unwrap_or(unified)
    }

    pub fn native_image(&self, unified: &str) -> Option<u64> {
        self.images.get(unified).copied()
    }

    /// Reverse-map a native flavor name to its unified name (first match
    /// in table order; the name itself when unmapped). Used by the server
    /// half of every dialect when decoding inbound requests.
    pub fn unified_flavor(&self, native: &str) -> String {
        self.flavors
            .iter()
            .find(|(_, n)| n.as_str() == native)
            .map(|(u, _)| u.clone())
            .unwrap_or_else(|| native.to_string())
    }
}

/// Why a translation or provider call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProviderError {
    /// The request cannot be expressed in this provider's dialect.
    Unsupported(String),
    /// A wire payload failed to decode (malformed XML/JSON, missing
    /// fields, a status word outside the dialect's vocabulary).
    Translation(String),
    /// A deterministic backend failure (bad flavor, no capacity, unknown
    /// instance) — retrying cannot help.
    Backend(String),
    /// A clean injected API-plane error (chaos `error_prob`): the call
    /// failed before the backend saw it, so the request was definitely
    /// *not* executed — unlike [`ProviderError::Timeout`].
    Api { provider: String },
    /// The call hung past the client timeout. The response is lost: the
    /// backend may or may not have executed the request.
    Timeout { provider: String },
    /// The provider's API endpoint is down (chaos outage window).
    Outage { provider: String },
    /// No registered provider by that name.
    UnknownProvider(String),
    /// The unified image name has no alias on this provider.
    UnknownImage(String),
}

impl std::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProviderError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ProviderError::Translation(why) => write!(f, "translation: {why}"),
            ProviderError::Backend(why) => write!(f, "backend: {why}"),
            ProviderError::Api { provider } => write!(f, "injected api error: {provider}"),
            ProviderError::Timeout { provider } => write!(f, "timeout: {provider}"),
            ProviderError::Outage { provider } => write!(f, "outage: {provider}"),
            ProviderError::UnknownProvider(p) => write!(f, "unknown provider: {p}"),
            ProviderError::UnknownImage(i) => write!(f, "unknown image: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_spellings_roundtrip() {
        for words in [
            &crate::openstack::STATUS_WORDS,
            &crate::eucalyptus::STATUS_WORDS,
            &crate::spot::STATUS_WORDS,
            &crate::paged::STATUS_WORDS,
        ] {
            for s in CanonicalStatus::ALL {
                assert_eq!(
                    CanonicalStatus::from_word(words, s.word(words), "status"),
                    Ok(s)
                );
            }
            assert!(matches!(
                CanonicalStatus::from_word(words, "melted", "status"),
                Err(ProviderError::Translation(_))
            ));
        }
    }

    #[test]
    fn alias_tables_pass_unmapped_through() {
        let mut t = AliasTables::default();
        t.flavors.insert("small".into(), "m1.small".into());
        t.images.insert("ubuntu".into(), 7);
        assert_eq!(t.native_flavor("small"), "m1.small");
        assert_eq!(t.native_flavor("m1.large"), "m1.large");
        assert_eq!(t.native_image("ubuntu"), Some(7));
        assert_eq!(t.native_image("windows"), None);
    }
}
