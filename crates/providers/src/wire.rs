//! Wire-level request/response containers and shared parsing helpers.
//!
//! A translator never sees sockets; it sees a [`WireRequest`] going out
//! and a [`WireResponse`] coming back. The three container shapes cover
//! every dialect in the runtime: Nova-style REST (method + path + JSON
//! body), EC2 query strings with XML-ish replies, and paginated JSON
//! documents chained by a page token.

use serde_json::Value;

use crate::canonical::ProviderError;

/// One outbound native-API call.
#[derive(Clone, Debug, PartialEq)]
pub enum WireRequest {
    /// REST: `method path` plus an optional JSON body.
    Rest {
        method: String,
        path: String,
        body: Option<Value>,
    },
    /// EC2 query dialect: a flat `Action=...&Key=Value` string.
    Query(String),
}

impl WireRequest {
    pub fn rest(method: &str, path: impl Into<String>, body: Option<Value>) -> WireRequest {
        WireRequest::Rest {
            method: method.to_string(),
            path: path.into(),
            body,
        }
    }
}

/// One inbound native-API reply.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    Json(Value),
    Xml(String),
}

/// Pull every `<tag>value</tag>` occurrence out of an XML-ish document.
/// (The 2012 Eucalyptus replies are flat enough that this is the whole
/// parser — exactly the one the original Tukey proxy used.)
pub fn xml_values<'a>(xml: &'a str, tag: &str) -> Vec<&'a str> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let mut out = Vec::new();
    let mut rest = xml;
    while let Some(start) = rest.find(&open) {
        let after = &rest[start + open.len()..];
        match after.find(&close) {
            Some(end) => {
                out.push(&after[..end]);
                rest = &after[end + close.len()..];
            }
            None => break,
        }
    }
    out
}

/// Parse a `Key=Value&Key=Value` query string into pairs. Later
/// duplicates win, as EC2 front ends of the era behaved.
pub fn parse_query(query: &str) -> std::collections::BTreeMap<&str, &str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

/// Read an optional JSON count (`vcpus`, `cores`) as a `u32`. A missing
/// or non-integer field is `None`; a value past `u32::MAX` is a
/// [`ProviderError::Translation`], never a silent wrap.
pub(crate) fn json_u32(v: &Value, field: &str) -> Result<Option<u32>, ProviderError> {
    v.as_u64()
        .map(|n| {
            u32::try_from(n)
                .map_err(|_| ProviderError::Translation(format!("{field} {n} is out of range")))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_extraction() {
        let xml = "<a><instanceId>i-1</instanceId><x/><instanceId>i-2</instanceId></a>";
        assert_eq!(xml_values(xml, "instanceId"), vec!["i-1", "i-2"]);
        assert!(xml_values(xml, "missing").is_empty());
        assert!(xml_values("<open>unclosed", "open").is_empty());
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("Action=RunInstances&ImageId=emi-01&Blank");
        assert_eq!(q.get("Action"), Some(&"RunInstances"));
        assert_eq!(q.get("ImageId"), Some(&"emi-01"));
        assert_eq!(q.get("Blank"), None);
    }
}
