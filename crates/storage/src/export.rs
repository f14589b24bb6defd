//! The Samba-style permission gate in front of GlusterFS shares (§7.1).
//!
//! "Since users have root access on their virtual machines we cannot allow
//! them to mount the GlusterFS shares directly, as the current
//! implementation of GlusterFS would allow them root access on the whole
//! share. Therefore, the GlusterFS shares are exported to the virtual
//! machine using Samba, which controls the permissions."
//!
//! The gate authenticates *cloud* credentials — a VM-local uid of 0 buys
//! nothing — and authorizes each operation against per-prefix access
//! rules before it reaches the volume.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use crate::file::FileData;
use crate::volume::{Volume, VolumeError};

/// What an operation wants to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Why an exported operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExportError {
    /// Unknown user or wrong password.
    AuthenticationFailed,
    /// Authenticated but not permitted on this path.
    PermissionDenied,
    /// The request named a path the export cannot interpret. Typed so
    /// randomized drivers and remote callers get a diagnosis instead of
    /// a panic (the same treatment `Volume::try_new` gave volume shapes).
    MalformedPath(PathError),
    /// Underlying volume error.
    Volume(VolumeError),
}

/// What is wrong with a share path or access-rule prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathError {
    Empty,
    /// Share paths are absolute: they must start with `/`.
    NotAbsolute,
    /// A `.` or `..` segment — the Samba-era traversal escape.
    DotSegment,
    /// An empty segment (`//`) hashes differently from its collapsed
    /// form and would split one file across placement buckets.
    EmptySegment,
    /// An embedded NUL, which the era's C path handling truncates at.
    NulByte,
    /// A trailing `/` on a *file* path (legal on rule prefixes).
    TrailingSlash,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Empty => write!(f, "path is empty"),
            PathError::NotAbsolute => write!(f, "path is not absolute"),
            PathError::DotSegment => write!(f, "path contains a `.`/`..` segment"),
            PathError::EmptySegment => write!(f, "path contains an empty `//` segment"),
            PathError::NulByte => write!(f, "path contains a NUL byte"),
            PathError::TrailingSlash => write!(f, "file path ends with `/`"),
        }
    }
}

impl std::error::Error for PathError {}

/// Validate a file path for export operations.
pub fn validate_path(path: &str) -> Result<(), PathError> {
    validate(path, false)
}

/// Validate an access-rule prefix: like a file path, but a trailing `/`
/// is legal (it scopes the rule to a directory subtree).
pub fn validate_prefix(prefix: &str) -> Result<(), PathError> {
    validate(prefix, true)
}

fn validate(path: &str, allow_trailing_slash: bool) -> Result<(), PathError> {
    if path.is_empty() {
        return Err(PathError::Empty);
    }
    if path.contains('\0') {
        return Err(PathError::NulByte);
    }
    let Some(rest) = path.strip_prefix('/') else {
        return Err(PathError::NotAbsolute);
    };
    let rest = if allow_trailing_slash {
        rest.strip_suffix('/').unwrap_or(rest)
    } else if rest.ends_with('/') || rest.is_empty() {
        return Err(PathError::TrailingSlash);
    } else {
        rest
    };
    for segment in rest.split('/') {
        match segment {
            "" if rest.is_empty() => {} // bare "/" prefix
            "" => return Err(PathError::EmptySegment),
            "." | ".." => return Err(PathError::DotSegment),
            _ => {}
        }
    }
    Ok(())
}

#[derive(Clone, Debug, Default)]
struct PrefixRule {
    read_users: Vec<String>,
    write_users: Vec<String>,
    /// World-readable (the public-dataset shares of §6.3).
    public_read: bool,
}

/// A Samba-like export of one volume.
///
/// Interior mutability with a `parking_lot::RwLock` (per the workspace
/// guides) because many simulated VMs call concurrently in the examples.
pub struct SambaExport {
    volume: RwLock<Volume>,
    /// username → password digest (MD5 of the password — era-appropriate).
    accounts: RwLock<BTreeMap<String, [u8; 16]>>,
    /// Longest-prefix-match access rules.
    rules: RwLock<BTreeMap<String, PrefixRule>>,
}

impl SambaExport {
    pub fn new(volume: Volume) -> Self {
        SambaExport {
            volume: RwLock::new(volume),
            accounts: RwLock::new(BTreeMap::new()),
            rules: RwLock::new(BTreeMap::new()),
        }
    }

    pub fn add_account(&self, user: &str, password: &str) {
        self.accounts
            .write()
            .insert(user.to_string(), osdc_crypto::md5::md5(password.as_bytes()));
    }

    /// Grant `user` access under `prefix`.
    ///
    /// # Panics
    ///
    /// On a malformed prefix: administrative configuration code passes
    /// literals, so a bad one is a bug in the caller. Use
    /// [`SambaExport::try_grant`] when the prefix comes from untrusted
    /// input (the same split as `Volume::new`/`try_new`).
    #[allow(clippy::panic)]
    pub fn grant(&self, prefix: &str, user: &str, kind: AccessKind) {
        self.try_grant(prefix, user, kind)
            .unwrap_or_else(|e| panic!("malformed grant prefix {prefix:?}: {e}"));
    }

    /// Fallible [`SambaExport::grant`]: rejects malformed prefixes with a
    /// typed error instead of panicking.
    pub fn try_grant(&self, prefix: &str, user: &str, kind: AccessKind) -> Result<(), PathError> {
        validate_prefix(prefix)?;
        let mut rules = self.rules.write();
        let rule = rules.entry(prefix.to_string()).or_default();
        let list = match kind {
            AccessKind::Read => &mut rule.read_users,
            AccessKind::Write => &mut rule.write_users,
        };
        if !list.iter().any(|u| u == user) {
            list.push(user.to_string());
        }
        Ok(())
    }

    /// Mark a prefix world-readable (public datasets).
    ///
    /// # Panics
    ///
    /// On a malformed prefix, as [`SambaExport::grant`] does; untrusted
    /// prefixes go through [`SambaExport::try_make_public`].
    #[allow(clippy::panic)]
    pub fn make_public(&self, prefix: &str) {
        self.try_make_public(prefix)
            .unwrap_or_else(|e| panic!("malformed public prefix {prefix:?}: {e}"));
    }

    /// Fallible [`SambaExport::make_public`].
    pub fn try_make_public(&self, prefix: &str) -> Result<(), PathError> {
        validate_prefix(prefix)?;
        self.rules
            .write()
            .entry(prefix.to_string())
            .or_default()
            .public_read = true;
        Ok(())
    }

    fn authenticate(&self, user: &str, password: &str) -> Result<(), ExportError> {
        match self.accounts.read().get(user) {
            Some(digest) if *digest == osdc_crypto::md5::md5(password.as_bytes()) => Ok(()),
            _ => Err(ExportError::AuthenticationFailed),
        }
    }

    fn authorize(&self, user: &str, path: &str, kind: AccessKind) -> Result<(), ExportError> {
        let rules = self.rules.read();
        // Longest matching prefix wins; any matching prefix granting the
        // access suffices (write implies read).
        let mut allowed = false;
        for (prefix, rule) in rules.iter() {
            if !path.starts_with(prefix.as_str()) {
                continue;
            }
            let hit = match kind {
                AccessKind::Read => {
                    rule.public_read
                        || rule.read_users.iter().any(|u| u == user)
                        || rule.write_users.iter().any(|u| u == user)
                }
                AccessKind::Write => rule.write_users.iter().any(|u| u == user),
            };
            allowed |= hit;
        }
        if allowed {
            Ok(())
        } else {
            Err(ExportError::PermissionDenied)
        }
    }

    /// Authorization check without authentication or data movement: does
    /// `user` hold `kind` access to `path` under the current rules? Used
    /// by the sharing layer to decide whether a grantor may delegate.
    pub fn check_access(&self, user: &str, path: &str, kind: AccessKind) -> bool {
        validate_path(path).is_ok() && self.authorize(user, path, kind).is_ok()
    }

    /// Authenticated read. A VM-local root uid is irrelevant: only the
    /// cloud credential matters.
    pub fn read(&self, user: &str, password: &str, path: &str) -> Result<FileData, ExportError> {
        validate_path(path).map_err(ExportError::MalformedPath)?;
        self.authenticate(user, password)?;
        self.authorize(user, path, AccessKind::Read)?;
        self.volume
            .read()
            .read(path)
            .map(|(data, _)| data)
            .map_err(ExportError::Volume)
    }

    /// Authenticated write; the file is owned by the authenticated user.
    pub fn write(
        &self,
        user: &str,
        password: &str,
        path: &str,
        data: FileData,
    ) -> Result<(), ExportError> {
        validate_path(path).map_err(ExportError::MalformedPath)?;
        self.authenticate(user, password)?;
        self.authorize(user, path, AccessKind::Write)?;
        self.volume
            .write()
            .write(path, data, user)
            .map_err(ExportError::Volume)
    }

    /// Listing honours read permission per path.
    pub fn list(&self, user: &str, password: &str) -> Result<Vec<String>, ExportError> {
        self.authenticate(user, password)?;
        let vol = self.volume.read();
        Ok(vol
            .list()
            .into_iter()
            .filter(|p| self.authorize(user, p, AccessKind::Read).is_ok())
            .collect())
    }

    /// Escape hatch for administrative tasks (backup, billing sweeps).
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut Volume) -> R) -> R {
        f(&mut self.volume.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::GlusterVersion;

    fn export() -> SambaExport {
        let vol = Volume::new("vol", GlusterVersion::V3_3, 2, 2, 1 << 30, 1);
        let e = SambaExport::new(vol);
        e.add_account("alice", "pw-a");
        e.add_account("bob", "pw-b");
        e.grant("/projects/genomics", "alice", AccessKind::Write);
        e.grant("/projects/genomics", "bob", AccessKind::Read);
        e
    }

    #[test]
    fn owner_writes_reader_reads() {
        let e = export();
        e.write(
            "alice",
            "pw-a",
            "/projects/genomics/run1.bam",
            FileData::bytes(b"reads".to_vec()),
        )
        .expect("alice can write");
        let data = e
            .read("bob", "pw-b", "/projects/genomics/run1.bam")
            .expect("bob can read");
        assert_eq!(data, FileData::bytes(b"reads".to_vec()));
    }

    #[test]
    fn reader_cannot_write() {
        let e = export();
        let err = e
            .write(
                "bob",
                "pw-b",
                "/projects/genomics/x",
                FileData::bytes(vec![1]),
            )
            .expect_err("bob is read-only");
        assert_eq!(err, ExportError::PermissionDenied);
    }

    #[test]
    fn wrong_password_is_auth_failure_even_for_vm_root() {
        let e = export();
        // "root" on the VM has no cloud account: authentication, not
        // authorization, rejects — the Samba gate's whole purpose.
        assert_eq!(
            e.read("root", "", "/projects/genomics/run1.bam")
                .unwrap_err(),
            ExportError::AuthenticationFailed
        );
        assert_eq!(
            e.read("alice", "wrong", "/projects/genomics/run1.bam")
                .unwrap_err(),
            ExportError::AuthenticationFailed
        );
    }

    #[test]
    fn unrelated_prefix_denied() {
        let e = export();
        e.grant("/projects/climate", "bob", AccessKind::Write);
        assert_eq!(
            e.write(
                "alice",
                "pw-a",
                "/projects/climate/t.nc",
                FileData::bytes(vec![0])
            )
            .unwrap_err(),
            ExportError::PermissionDenied
        );
    }

    #[test]
    fn public_datasets_readable_by_any_account() {
        let e = export();
        e.grant("/public", "alice", AccessKind::Write);
        e.write(
            "alice",
            "pw-a",
            "/public/1000genomes/chr1",
            FileData::bytes(vec![7]),
        )
        .expect("curator writes");
        e.make_public("/public");
        e.read("bob", "pw-b", "/public/1000genomes/chr1")
            .expect("public read");
        // But still not writable by others.
        assert_eq!(
            e.write(
                "bob",
                "pw-b",
                "/public/1000genomes/chr1",
                FileData::bytes(vec![8])
            )
            .unwrap_err(),
            ExportError::PermissionDenied
        );
    }

    #[test]
    fn listing_is_permission_filtered() {
        let e = export();
        e.grant("/private/alice", "alice", AccessKind::Write);
        e.write(
            "alice",
            "pw-a",
            "/private/alice/secret",
            FileData::bytes(vec![1]),
        )
        .expect("write ok");
        e.write(
            "alice",
            "pw-a",
            "/projects/genomics/shared",
            FileData::bytes(vec![2]),
        )
        .expect("write ok");
        let bob_sees = e.list("bob", "pw-b").expect("list ok");
        assert_eq!(bob_sees, vec!["/projects/genomics/shared".to_string()]);
        let alice_sees = e.list("alice", "pw-a").expect("list ok");
        assert_eq!(alice_sees.len(), 2);
    }

    #[test]
    fn malformed_paths_are_typed_errors_not_panics() {
        let e = export();
        let cases: &[(&str, PathError)] = &[
            ("", PathError::Empty),
            ("projects/genomics/x", PathError::NotAbsolute),
            ("/projects/../etc/passwd", PathError::DotSegment),
            ("/projects/./x", PathError::DotSegment),
            ("/projects//x", PathError::EmptySegment),
            ("/projects/genomics/x\0.bam", PathError::NulByte),
            ("/projects/genomics/", PathError::TrailingSlash),
            ("/", PathError::TrailingSlash),
        ];
        for (path, expected) in cases {
            assert_eq!(
                e.read("alice", "pw-a", path).unwrap_err(),
                ExportError::MalformedPath(*expected),
                "read {path:?}"
            );
            assert_eq!(
                e.write("alice", "pw-a", path, FileData::bytes(vec![1]))
                    .unwrap_err(),
                ExportError::MalformedPath(*expected),
                "write {path:?}"
            );
        }
    }

    #[test]
    fn malformed_path_rejected_before_credentials_are_consulted() {
        // The gate diagnoses the request shape even for unknown users —
        // a malformed path can never reach the volume layer.
        let e = export();
        assert_eq!(
            e.read("nobody", "", "/a/../b").unwrap_err(),
            ExportError::MalformedPath(PathError::DotSegment)
        );
    }

    #[test]
    fn rule_prefixes_allow_trailing_slash_but_not_traversal() {
        let e = export();
        assert_eq!(e.try_grant("/public/", "bob", AccessKind::Read), Ok(()));
        assert_eq!(e.try_make_public("/"), Ok(()));
        assert_eq!(
            e.try_grant("/public/../secret", "bob", AccessKind::Read),
            Err(PathError::DotSegment)
        );
        assert_eq!(e.try_make_public(""), Err(PathError::Empty));
        assert_eq!(e.try_make_public("public"), Err(PathError::NotAbsolute));
    }

    #[test]
    #[should_panic(expected = "malformed grant prefix")]
    fn infallible_grant_panics_with_diagnosis() {
        export().grant("relative/path", "alice", AccessKind::Read);
    }

    #[test]
    fn check_access_reflects_rules_without_authentication() {
        let e = export();
        assert!(e.check_access("alice", "/projects/genomics/run1.bam", AccessKind::Write));
        assert!(e.check_access("bob", "/projects/genomics/run1.bam", AccessKind::Read));
        assert!(!e.check_access("bob", "/projects/genomics/run1.bam", AccessKind::Write));
        assert!(!e.check_access("alice", "/projects/../x", AccessKind::Read));
    }

    #[test]
    fn volume_errors_pass_through() {
        let e = export();
        assert_eq!(
            e.read("alice", "pw-a", "/projects/genomics/missing")
                .unwrap_err(),
            ExportError::Volume(VolumeError::NotFound)
        );
    }
}
