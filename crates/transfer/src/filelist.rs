//! File-list walking and change detection, rsync-style.
//!
//! Before any bytes move, rsync exchanges a file list and decides which
//! files need work. The default "quick check" compares size and mtime; the
//! paranoid mode compares full checksums. Both are implemented here over
//! the in-memory tree model used throughout the workspace.
//!
//! A list carries content digests only in checksum mode: quick mode never
//! reads them, so a sync session lists its trees without hashing in quick
//! mode and with one [`osdc_crypto::md5::md5_many`] call per tree in
//! checksum mode.

use std::collections::BTreeMap;

use osdc_crypto::md5::md5;

/// Metadata for one file on one side of a sync.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileEntry {
    pub size: u64,
    /// Modification time, seconds since epoch (virtual).
    pub mtime: u64,
    /// Content digest (MD5); populated lazily for checksum mode. `None`
    /// in a quick-mode list, which compares only size and mtime.
    pub digest: Option<[u8; 16]>,
}

impl FileEntry {
    /// The entry for one file, its digest computed.
    pub fn from_content(content: &[u8], mtime: u64) -> Self {
        FileEntry {
            size: content.len() as u64,
            mtime,
            digest: Some(md5(content)),
        }
    }
}

/// A sorted path → entry map (rsync sends the list sorted).
pub type FileList = BTreeMap<String, FileEntry>;

/// How to decide whether a file changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// Size + mtime (rsync default).
    Quick,
    /// Full content digest (`rsync -c`).
    Checksum,
}

/// What the sync plan says to do with each path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanAction {
    /// Present on the source, absent on the target.
    Create,
    /// Present on both but different.
    Update,
    /// Present only on the target (reported; deletion is opt-in, as in
    /// `rsync --delete`).
    ExtraOnTarget,
}

/// Compare source and target lists, producing per-path actions in sorted
/// path order. Unchanged files produce no entry.
pub fn plan_sync(src: &FileList, dst: &FileList, mode: CheckMode) -> Vec<(String, PlanAction)> {
    let mut plan = Vec::new();
    for (path, s) in src {
        match dst.get(path) {
            None => plan.push((path.clone(), PlanAction::Create)),
            Some(d) => {
                let changed = match mode {
                    CheckMode::Quick => s.size != d.size || s.mtime != d.mtime,
                    CheckMode::Checksum => {
                        s.size != d.size
                            || match (&s.digest, &d.digest) {
                                (Some(a), Some(b)) => a != b,
                                // Missing digests force a transfer (safe).
                                _ => true,
                            }
                    }
                };
                if changed {
                    plan.push((path.clone(), PlanAction::Update));
                }
            }
        }
    }
    for path in dst.keys() {
        if !src.contains_key(path) {
            plan.push((path.clone(), PlanAction::ExtraOnTarget));
        }
    }
    plan.sort_by(|a, b| a.0.cmp(&b.0));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(size: u64, mtime: u64) -> FileEntry {
        FileEntry {
            size,
            mtime,
            digest: None,
        }
    }

    #[test]
    fn identical_lists_need_nothing() {
        let mut a = FileList::new();
        a.insert("data/genome.fa".into(), entry(100, 5));
        let b = a.clone();
        assert!(plan_sync(&a, &b, CheckMode::Quick).is_empty());
    }

    #[test]
    fn creates_updates_and_extras() {
        let mut src = FileList::new();
        src.insert("new.dat".into(), entry(10, 1));
        src.insert("changed.dat".into(), entry(20, 9));
        src.insert("same.dat".into(), entry(5, 2));
        let mut dst = FileList::new();
        dst.insert("changed.dat".into(), entry(20, 3));
        dst.insert("same.dat".into(), entry(5, 2));
        dst.insert("stale.dat".into(), entry(7, 1));
        let plan = plan_sync(&src, &dst, CheckMode::Quick);
        assert_eq!(
            plan,
            vec![
                ("changed.dat".to_string(), PlanAction::Update),
                ("new.dat".to_string(), PlanAction::Create),
                ("stale.dat".to_string(), PlanAction::ExtraOnTarget),
            ]
        );
    }

    #[test]
    fn quick_mode_misses_touch_preserving_edits() {
        // Same size, same mtime, different content: the known quick-check
        // blind spot that -c exists for.
        let src_content = b"aaaa";
        let dst_content = b"bbbb";
        let mut src = FileList::new();
        src.insert("f".into(), FileEntry::from_content(src_content, 100));
        let mut dst = FileList::new();
        dst.insert("f".into(), FileEntry::from_content(dst_content, 100));
        assert!(plan_sync(&src, &dst, CheckMode::Quick).is_empty());
        assert_eq!(
            plan_sync(&src, &dst, CheckMode::Checksum),
            vec![("f".to_string(), PlanAction::Update)]
        );
    }

    #[test]
    fn checksum_mode_without_digests_is_conservative() {
        let mut src = FileList::new();
        src.insert("f".into(), entry(4, 1));
        let mut dst = FileList::new();
        dst.insert("f".into(), entry(4, 1));
        assert_eq!(plan_sync(&src, &dst, CheckMode::Checksum).len(), 1);
    }

    #[test]
    fn plan_is_sorted_by_path() {
        let mut src = FileList::new();
        for name in ["z", "a", "m"] {
            src.insert(name.into(), entry(1, 1));
        }
        let dst = FileList::new();
        let plan = plan_sync(&src, &dst, CheckMode::Quick);
        let paths: Vec<&str> = plan.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a", "m", "z"]);
    }
}
