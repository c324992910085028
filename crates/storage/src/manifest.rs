//! The shard manifest: one tiny, checksummed file at the root of a sharded
//! store directory recording how many shards the store was created with.
//!
//! The shard count is *structural*: entities hash-route to
//! `shard = route(id) % shards`, so reopening a store with a different
//! count would silently misroute every lookup. The manifest makes the
//! on-disk layout self-describing — `ShardedEngine::open` trusts the
//! manifest over the caller's requested count and reports a mismatch
//! loudly instead of scattering rows.
//!
//! Format (integers LEB128 varints unless noted):
//!
//! ```text
//! magic   : 8 bytes  "CINDMAN1"
//! shards  : varint shard count (≥ 1)
//! checksum: 8 bytes little-endian FNV-1a 64 of everything before it
//! ```
//!
//! Written with the same crash-safe recipe as snapshots: write
//! `<path>.tmp`, sync, rename into place.

use std::path::Path;

use crate::persist::fnv1a;
use crate::varint;
use crate::vfs::Vfs;
use crate::PersistError;

const MAGIC: &[u8; 8] = b"CINDMAN1";

/// The decoded contents of a shard manifest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Number of shards the store was created with (≥ 1).
    pub shards: usize,
}

impl Manifest {
    /// Serialises the manifest into its complete byte stream.
    fn to_bytes(self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        varint::encode(self.shards as u64, &mut buf);
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes a manifest from its byte stream.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on truncation, checksum mismatch, bad
    /// magic, or a shard count of zero.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(PersistError::Corrupt("manifest truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let tail = <[u8; 8]>::try_from(tail)
            .map_err(|_| PersistError::Corrupt("manifest checksum width"))?;
        if fnv1a(body) != u64::from_le_bytes(tail) {
            return Err(PersistError::Corrupt("manifest checksum mismatch"));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(PersistError::Corrupt("manifest bad magic"));
        }
        let rest = &body[MAGIC.len()..];
        let (shards, n) =
            varint::decode(rest).ok_or(PersistError::Corrupt("manifest varint"))?;
        if n != rest.len() {
            return Err(PersistError::Corrupt("manifest trailing bytes"));
        }
        if shards == 0 {
            return Err(PersistError::Corrupt("manifest zero shards"));
        }
        let shards = usize::try_from(shards)
            .map_err(|_| PersistError::Corrupt("manifest shard count overflow"))?;
        Ok(Manifest { shards })
    }

    /// Writes the manifest to `path` through `vfs` (tmp + sync + rename).
    ///
    /// # Errors
    /// I/O errors from the backend (real or injected).
    pub fn write_to(self, vfs: &dyn Vfs, path: &Path) -> Result<(), PersistError> {
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = vfs.create(&tmp)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, path)?;
        Ok(())
    }

    /// Reads the manifest at `path` through `vfs`, or `None` if the file
    /// does not exist (a fresh or legacy store).
    ///
    /// # Errors
    /// I/O errors, or [`PersistError::Corrupt`] on a damaged manifest.
    pub fn read_from(vfs: &dyn Vfs, path: &Path) -> Result<Option<Self>, PersistError> {
        if !vfs.exists(path) {
            return Ok(None);
        }
        let bytes = vfs.read(path)?;
        Ok(Some(Self::from_bytes(&bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    #[test]
    fn roundtrip() {
        for shards in [1usize, 2, 8, 1000] {
            let m = Manifest { shards };
            let decoded = Manifest::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = Manifest { shards: 4 }.to_bytes();

        let mut bad = bytes.clone();
        bad[9] ^= 0x01; // flip inside the body
        assert!(matches!(
            Manifest::from_bytes(&bad),
            Err(PersistError::Corrupt("manifest checksum mismatch"))
        ));

        assert!(matches!(
            Manifest::from_bytes(&bytes[..4]),
            Err(PersistError::Corrupt("manifest truncated"))
        ));

        // Zero shards is structurally invalid even when well-formed.
        let mut zero = Vec::new();
        zero.extend_from_slice(MAGIC);
        varint::encode(0, &mut zero);
        let sum = fnv1a(&zero);
        zero.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Manifest::from_bytes(&zero),
            Err(PersistError::Corrupt("manifest zero shards"))
        ));
    }

    #[test]
    fn file_roundtrip_and_missing_is_none() {
        let dir = std::env::temp_dir().join("cind_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        let vfs = RealVfs;
        assert!(Manifest::read_from(&vfs, &path).unwrap().is_none());
        Manifest { shards: 8 }.write_to(&vfs, &path).unwrap();
        assert!(!std::path::Path::new(&dir.join("MANIFEST.tmp")).exists());
        let m = Manifest::read_from(&vfs, &path).unwrap().unwrap();
        assert_eq!(m.shards, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
