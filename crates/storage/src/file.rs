//! File payloads and metadata.
//!
//! The OSDC holds petabytes; tests hold kilobytes. [`FileData`] lets one
//! code path serve both: `Bytes` carries real content (digested with the
//! workspace MD5, delta-syncable), while `Synthetic` carries only a size
//! and a seed — enough for capacity accounting, placement, billing sweeps
//! and transfer sizing, at zero memory cost per terabyte.

use osdc_crypto::md5::md5;

/// File contents — real or size-only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileData {
    /// Real bytes (small files, test fixtures, metadata documents).
    Bytes(Vec<u8>),
    /// A stand-in for bulk scientific data: `size` bytes whose identity is
    /// `seed`. Two synthetic files are "equal content" iff seeds and sizes
    /// match.
    Synthetic { size: u64, seed: u64 },
}

impl FileData {
    pub fn bytes(data: impl Into<Vec<u8>>) -> Self {
        FileData::Bytes(data.into())
    }

    pub fn synthetic(size: u64, seed: u64) -> Self {
        FileData::Synthetic { size, seed }
    }

    pub fn size(&self) -> u64 {
        match self {
            FileData::Bytes(b) => b.len() as u64,
            FileData::Synthetic { size, .. } => *size,
        }
    }

    /// Content digest: real MD5 for bytes, a deterministic tag for
    /// synthetic payloads (so replica comparison works uniformly).
    pub fn digest(&self) -> [u8; 16] {
        match self {
            FileData::Bytes(b) => md5(b),
            FileData::Synthetic { size, seed } => {
                let mut d = [0u8; 16];
                d[..8].copy_from_slice(&seed.to_le_bytes());
                d[8..].copy_from_slice(&size.to_le_bytes());
                d
            }
        }
    }
}

/// Per-file metadata, as `Volume::read` returns it for the replica it
/// serves (bricks keep the version, digest and interned owner, not this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    pub size: u64,
    /// Owner (cloud username) — §6.4 bills storage per user per day.
    pub owner: String,
    /// Monotone version, bumped on every write (the replicate translator's
    /// freshness arbiter during heal).
    pub version: u64,
    pub digest: [u8; 16],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(FileData::bytes(b"abc".to_vec()).size(), 3);
        assert_eq!(FileData::synthetic(5 << 40, 9).size(), 5 << 40);
    }

    #[test]
    fn digests_discriminate() {
        assert_ne!(
            FileData::bytes(b"a".to_vec()).digest(),
            FileData::bytes(b"b".to_vec()).digest()
        );
        assert_ne!(
            FileData::synthetic(100, 1).digest(),
            FileData::synthetic(100, 2).digest()
        );
        assert_ne!(
            FileData::synthetic(100, 1).digest(),
            FileData::synthetic(101, 1).digest()
        );
        assert_eq!(
            FileData::synthetic(100, 1).digest(),
            FileData::synthetic(100, 1).digest()
        );
    }

    #[test]
    fn real_digest_is_md5() {
        assert_eq!(
            FileData::bytes(b"abc".to_vec()).digest(),
            osdc_crypto::md5::md5(b"abc")
        );
    }
}
