//! ARK dataset identifiers (§6.1).
//!
//! "As part of our efforts to provide persistent, long-term access to
//! scientific data we have developed a cloud service that provides IDs to
//! datasets based upon ARK Keys. We obtained a registered Name Assigning
//! Authority Number (NAAN) and have begun assigning ARKs to the data in
//! the OSDC. Currently, the key service can resolve persistent
//! identifiers and provide metadata based on ARK inflections."
//!
//! Per the ARK scheme (Kunze & Rodgers): an identifier looks like
//! `ark:/NAAN/Name[Qualifier]`; appending `?` asks for a brief metadata
//! record, `??` for the full record including the persistence commitment.
//! Names here carry a NOID-style check character so single-character
//! typos are caught at parse time.

use std::collections::BTreeMap;

use parking_lot::RwLock;

/// The betanumeric alphabet NOID check characters are computed over.
const BETANUMERIC: &[u8] = b"0123456789bcdfghjkmnpqrstvwxz";

/// A parsed ARK.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ark {
    pub naan: String,
    pub name: String,
}

impl Ark {
    pub fn to_uri(&self) -> String {
        format!("ark:/{}/{}", self.naan, self.name)
    }
}

impl std::fmt::Display for Ark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_uri())
    }
}

/// What a resolver request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inflection {
    /// Bare ARK: resolve to the object's access location.
    Access,
    /// `?` — brief metadata.
    BriefMetadata,
    /// `??` — full metadata + persistence commitment.
    FullMetadata,
}

/// Metadata held per assigned ARK (ERC-style kernel elements).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArkRecord {
    pub who: String,
    pub what: String,
    pub when: String,
    /// Access location within the OSDC (volume path or URL).
    pub where_: String,
    /// The persistence commitment statement (returned on `??`).
    pub commitment: String,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArkError {
    Malformed(String),
    /// Check character mismatch — likely a transcription typo.
    CheckFailed(String),
    NotAssigned(String),
}

fn betanumeric_index(c: u8) -> Option<u64> {
    BETANUMERIC.iter().position(|&b| b == c).map(|i| i as u64)
}

/// NOID check character over `naan/name` (weighted mod-29 sum).
fn check_char(naan: &str, name: &str) -> char {
    let s = format!("{naan}/{name}");
    let sum: u64 = s
        .bytes()
        .enumerate()
        .map(|(i, b)| (i as u64 + 1) * betanumeric_index(b).unwrap_or(0))
        .sum();
    BETANUMERIC[(sum % 29) as usize] as char
}

/// The OSDC key service: mints, parses and resolves ARKs.
///
/// ```
/// use osdc_tukey::ark::{ArkRecord, ArkService, Inflection};
///
/// let svc = ArkService::new("31807", "b2");
/// let ark = svc.mint(ArkRecord {
///     who: "OSDC".into(),
///     what: "1000 Genomes".into(),
///     when: "2012".into(),
///     where_: "/glusterfs/public/1000genomes".into(),
///     commitment: "replicated on OSDC-Root".into(),
/// });
/// // The bare ARK resolves to the access location...
/// assert_eq!(svc.resolve(&ark.to_uri()).unwrap(), "/glusterfs/public/1000genomes");
/// // ...and the `?` inflection returns brief metadata.
/// let (parsed, inflection) = ArkService::parse(&format!("{ark}?")).unwrap();
/// assert_eq!(parsed, ark);
/// assert_eq!(inflection, Inflection::BriefMetadata);
/// ```
pub struct ArkService {
    /// The registered Name Assigning Authority Number.
    pub naan: String,
    /// Shoulder prefixed to minted names (sub-namespace convention).
    pub shoulder: String,
    records: RwLock<BTreeMap<Ark, ArkRecord>>,
    counter: RwLock<u64>,
}

impl ArkService {
    pub fn new(naan: impl Into<String>, shoulder: impl Into<String>) -> Self {
        ArkService {
            naan: naan.into(),
            shoulder: shoulder.into(),
            records: RwLock::new(BTreeMap::new()),
            counter: RwLock::new(0),
        }
    }

    /// Mint a fresh ARK for a dataset and bind its record.
    pub fn mint(&self, record: ArkRecord) -> Ark {
        let mut counter = self.counter.write();
        *counter += 1;
        // Betanumeric base-29 rendering of the counter, least significant
        // digit first.
        let mut n = *counter;
        let mut digits = Vec::new();
        while n > 0 {
            digits.push(char::from(BETANUMERIC[(n % 29) as usize]));
            n /= 29;
        }
        let mut base = self.shoulder.clone();
        base.extend(digits.iter().rev());
        let check = check_char(&self.naan, &base);
        let ark = Ark {
            naan: self.naan.clone(),
            name: format!("{base}{check}"),
        };
        self.records.write().insert(ark.clone(), record);
        ark
    }

    /// Parse an ARK URI, optionally carrying an inflection. Validates the
    /// check character for names minted by this service's conventions.
    pub fn parse(uri: &str) -> Result<(Ark, Inflection), ArkError> {
        let (body, inflection) = if let Some(b) = uri.strip_suffix("??") {
            (b, Inflection::FullMetadata)
        } else if let Some(b) = uri.strip_suffix('?') {
            (b, Inflection::BriefMetadata)
        } else {
            (uri, Inflection::Access)
        };
        let rest = body
            .strip_prefix("ark:/")
            .or_else(|| body.strip_prefix("ark:"))
            .ok_or_else(|| ArkError::Malformed(uri.to_string()))?;
        let (naan, name) = rest
            .split_once('/')
            .ok_or_else(|| ArkError::Malformed(uri.to_string()))?;
        if naan.is_empty() || name.is_empty() {
            return Err(ArkError::Malformed(uri.to_string()));
        }
        // Validate the trailing check character.
        let (base, check) = name.split_at(name.len() - 1);
        if check_char(naan, base).to_string() != check {
            return Err(ArkError::CheckFailed(uri.to_string()));
        }
        Ok((
            Ark {
                naan: naan.to_string(),
                name: name.to_string(),
            },
            inflection,
        ))
    }

    /// Resolve an ARK URI per its inflection.
    pub fn resolve(&self, uri: &str) -> Result<String, ArkError> {
        let (ark, inflection) = Self::parse(uri)?;
        let records = self.records.read();
        let record = records
            .get(&ark)
            .ok_or_else(|| ArkError::NotAssigned(ark.to_uri()))?;
        Ok(match inflection {
            Inflection::Access => record.where_.clone(),
            Inflection::BriefMetadata => format!(
                "erc:\nwho: {}\nwhat: {}\nwhen: {}\nwhere: {}",
                record.who, record.what, record.when, record.where_
            ),
            Inflection::FullMetadata => format!(
                "erc:\nwho: {}\nwhat: {}\nwhen: {}\nwhere: {}\ncommitment: {}",
                record.who, record.what, record.when, record.where_, record.commitment
            ),
        })
    }

    pub fn assigned_count(&self) -> usize {
        self.records.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(what: &str, where_: &str) -> ArkRecord {
        ArkRecord {
            who: "OSDC".into(),
            what: what.into(),
            when: "2012".into(),
            where_: where_.into(),
            commitment: "persistent: OSDC-Root replicated, reviewed annually".into(),
        }
    }

    fn service() -> ArkService {
        ArkService::new("31807", "b2")
    }

    #[test]
    fn mint_parse_roundtrip() {
        let svc = service();
        let ark = svc.mint(record("1000 Genomes", "/glusterfs/public/1000genomes"));
        assert!(ark.to_uri().starts_with("ark:/31807/b2"));
        let (parsed, inflection) = ArkService::parse(&ark.to_uri()).expect("parses");
        assert_eq!(parsed, ark);
        assert_eq!(inflection, Inflection::Access);
    }

    #[test]
    fn minted_ids_are_unique() {
        let svc = service();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            let ark = svc.mint(record(&format!("ds{i}"), "/x"));
            assert!(seen.insert(ark.to_uri()), "duplicate mint");
        }
        assert_eq!(svc.assigned_count(), 100);
    }

    #[test]
    fn inflections_resolve_differently() {
        let svc = service();
        let ark = svc.mint(record("EO-1 Hyperion L0", "/glusterfs/matsu/eo1"));
        let access = svc.resolve(&ark.to_uri()).expect("access");
        assert_eq!(access, "/glusterfs/matsu/eo1");
        let brief = svc.resolve(&format!("{}?", ark.to_uri())).expect("brief");
        assert!(brief.contains("what: EO-1 Hyperion L0"));
        assert!(!brief.contains("commitment"));
        let full = svc.resolve(&format!("{}??", ark.to_uri())).expect("full");
        assert!(full.contains("commitment: persistent"));
    }

    #[test]
    fn typo_is_caught_by_check_character() {
        let svc = service();
        let ark = svc.mint(record("ds", "/x"));
        let uri = ark.to_uri();
        // Corrupt one betanumeric character of the name body.
        let mut chars: Vec<char> = uri.chars().collect();
        let idx = uri.len() - 2;
        chars[idx] = if chars[idx] == 'b' { 'c' } else { 'b' };
        let corrupted: String = chars.into_iter().collect();
        assert!(matches!(
            ArkService::parse(&corrupted),
            Err(ArkError::CheckFailed(_))
        ));
    }

    #[test]
    fn malformed_uris_rejected() {
        for bad in [
            "http://x",
            "ark:",
            "ark:/",
            "ark:/31807",
            "ark:/31807/",
            "ark://x",
        ] {
            assert!(
                matches!(
                    ArkService::parse(bad),
                    Err(ArkError::Malformed(_) | ArkError::CheckFailed(_))
                ),
                "{bad} should fail"
            );
        }
    }

    #[test]
    fn unassigned_ark_reports_not_assigned() {
        let svc = service();
        // A *valid* ARK (correct check char) that was never minted here.
        let check = super::check_char("99999", "b2x");
        let uri = format!("ark:/99999/b2x{check}");
        assert!(matches!(svc.resolve(&uri), Err(ArkError::NotAssigned(_))));
    }

    #[test]
    fn parse_accepts_no_slash_prefix_form() {
        let svc = service();
        let ark = svc.mint(record("ds", "/x"));
        let compact = ark.to_uri().replace("ark:/", "ark:");
        assert!(ArkService::parse(&compact).is_ok());
    }
}
