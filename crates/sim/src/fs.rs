//! A cluster-shared in-memory file system.
//!
//! The paper assumes "a shared storage infrastructure across cluster nodes"
//! (SAN + GFS, §3/§6) and therefore does not include file contents in
//! checkpoint images — only per-process descriptor state (path, offset,
//! flags). `SimFs` plays the SAN: one instance is shared by every node in a
//! simulated cluster, so a pod restarted on a different node sees the same
//! files. Pods get their own namespace via a chroot-style path prefix
//! applied by the pod layer.
//!
//! An optional whole-tree snapshot (the paper's pluggable file-system
//! snapshot hook) supports the `FsSnapshot` image section.
//!
//! ## Crash semantics
//!
//! To let the durable image store (`zapc-store`) be tested against real
//! power-loss behavior, every file carries a **synced watermark**: the
//! prefix of its bytes known to have reached stable storage.
//!
//! * [`SimFs::write`] replaces a file's contents entirely *volatile*
//!   (watermark 0): an in-place overwrite is not crash-safe, which is
//!   exactly why atomic replacement goes through write-to-temp → fsync →
//!   rename.
//! * [`SimFs::fsync`] advances the watermark to the full length.
//! * [`SimFs::rename`] atomically moves a file (replacing any existing
//!   destination) and carries the source's watermark with it — renaming a
//!   file that was never fsynced can therefore leave a *torn* file at the
//!   final path after a crash, as on a real file system.
//! * [`SimFs::crash_unsynced_under`] simulates the power loss: every file
//!   under a prefix is truncated to its watermark; files with nothing
//!   synced disappear entirely.
//!
//! Appends and positional writes leave the watermark where it was (the
//! grown/overwritten suffix is unsynced). Restoring an [`FsSnapshot`]
//! marks the restored bytes durable.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};

use crate::Errno;

/// One stored file: its bytes plus the crash-durability watermark.
#[derive(Debug, Default, Clone)]
struct FileEnt {
    data: Vec<u8>,
    /// Bytes `[0, synced)` survive a crash; the rest is volatile.
    synced: usize,
}

/// Cluster-shared file system. Paths are `/`-separated and always absolute;
/// directories are implicit (created on demand, as in an object store).
#[derive(Debug, Default)]
pub struct SimFs {
    files: RwLock<BTreeMap<String, FileEnt>>,
}

impl SimFs {
    /// Creates an empty shared file system.
    pub fn new() -> Arc<SimFs> {
        Arc::new(SimFs::default())
    }

    fn norm(path: &str) -> String {
        let mut out = String::with_capacity(path.len() + 1);
        if !path.starts_with('/') {
            out.push('/');
        }
        out.push_str(path.trim_end_matches('/'));
        out
    }

    /// Creates (or truncates) a file with `data`. The new contents are
    /// volatile until [`SimFs::fsync`] — see the module docs.
    pub fn write(&self, path: &str, data: &[u8]) {
        self.files
            .write().unwrap()
            .insert(Self::norm(path), FileEnt { data: data.to_vec(), synced: 0 });
    }

    /// Appends to a file, creating it if absent. The appended suffix is
    /// volatile (watermark unchanged).
    pub fn append(&self, path: &str, data: &[u8]) {
        self.files
            .write().unwrap()
            .entry(Self::norm(path))
            .or_default()
            .data
            .extend_from_slice(data);
    }

    /// Reads a whole file.
    pub fn read(&self, path: &str) -> Result<Vec<u8>, Errno> {
        self.read_with(path, <[u8]>::to_vec)
    }

    /// Runs `f` over a whole file's bytes in place — a reader that decodes
    /// them elsewhere copies them once, not twice. Writers wait until `f`
    /// returns.
    pub fn read_with<R>(&self, path: &str, f: impl FnOnce(&[u8]) -> R) -> Result<R, Errno> {
        self.files.read().unwrap().get(&Self::norm(path)).map(|e| f(&e.data)).ok_or(Errno::ENOENT)
    }

    /// Reads `len` bytes at `offset`; short reads at EOF.
    pub fn read_at(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, Errno> {
        let files = self.files.read().unwrap();
        let f = files.get(&Self::norm(path)).ok_or(Errno::ENOENT)?;
        let start = (offset as usize).min(f.data.len());
        let end = (start + len).min(f.data.len());
        Ok(f.data[start..end].to_vec())
    }

    /// Writes `data` at `offset`, growing the file as needed. The touched
    /// range is volatile; the watermark never moves backwards past it
    /// (overwritten synced bytes stay claimable only up to `offset`).
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) {
        let mut files = self.files.write().unwrap();
        let f = files.entry(Self::norm(path)).or_default();
        let end = offset as usize + data.len();
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        f.data[offset as usize..end].copy_from_slice(data);
        f.synced = f.synced.min(offset as usize);
    }

    /// Flushes a file to stable storage: its current bytes survive a crash.
    pub fn fsync(&self, path: &str) -> Result<(), Errno> {
        let mut files = self.files.write().unwrap();
        let f = files.get_mut(&Self::norm(path)).ok_or(Errno::ENOENT)?;
        f.synced = f.data.len();
        Ok(())
    }

    /// Atomically renames `from` to `to`, replacing any existing
    /// destination. The durability watermark travels with the file, so a
    /// rename is only as crash-safe as the fsync that preceded it.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), Errno> {
        let (from, to) = (Self::norm(from), Self::norm(to));
        let mut files = self.files.write().unwrap();
        let ent = files.remove(&from).ok_or(Errno::ENOENT)?;
        files.insert(to, ent);
        Ok(())
    }

    /// Simulates power loss for the subtree under `prefix`: every file is
    /// truncated to its synced watermark, and files with nothing durable
    /// vanish. Returns how many files were torn or lost. Other subtrees
    /// (application data on the SAN) are untouched.
    pub fn crash_unsynced_under(&self, prefix: &str) -> usize {
        let prefix = {
            let mut p = Self::norm(prefix);
            p.push('/');
            p
        };
        let mut files = self.files.write().unwrap();
        let mut affected = 0;
        files.retain(|k, f| {
            if !k.starts_with(&prefix) {
                return true;
            }
            if f.synced < f.data.len() {
                affected += 1;
                f.data.truncate(f.synced);
            }
            f.synced > 0
        });
        affected
    }

    /// File size, if it exists.
    pub fn size(&self, path: &str) -> Result<u64, Errno> {
        self.files
            .read().unwrap()
            .get(&Self::norm(path))
            .map(|f| f.data.len() as u64)
            .ok_or(Errno::ENOENT)
    }

    /// Whether the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().unwrap().contains_key(&Self::norm(path))
    }

    /// Removes a file.
    pub fn unlink(&self, path: &str) -> Result<(), Errno> {
        self.files.write().unwrap().remove(&Self::norm(path)).map(|_| ()).ok_or(Errno::ENOENT)
    }

    /// Lists files under a directory prefix.
    pub fn list(&self, dir: &str) -> Vec<String> {
        let prefix = {
            let mut p = Self::norm(dir);
            if !p.ends_with('/') {
                p.push('/');
            }
            p
        };
        self.files
            .read().unwrap()
            .keys()
            .filter(|k| k.starts_with(&prefix) || prefix == "//")
            .cloned()
            .collect()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.read().unwrap().values().map(|f| f.data.len()).sum()
    }

    /// Snapshot of the subtree under `prefix` (the optional file-system
    /// snapshot of §3/§4).
    pub fn snapshot(&self, prefix: &str) -> FsSnapshot {
        let prefix = Self::norm(prefix);
        let files = self.files.read().unwrap();
        FsSnapshot {
            files: files
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.data.clone()))
                .collect(),
        }
    }

    /// Restores a snapshot (overwrites matching paths). Restored bytes are
    /// durable — a snapshot restore models recovery from stable storage.
    pub fn restore(&self, snap: &FsSnapshot) {
        let mut files = self.files.write().unwrap();
        for (k, v) in &snap.files {
            files.insert(k.clone(), FileEnt { data: v.clone(), synced: v.len() });
        }
    }
}

/// A serializable subtree snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsSnapshot {
    /// `(path, contents)` pairs.
    pub files: Vec<(String, Vec<u8>)>,
}

impl Encode for FsSnapshot {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.files);
    }
}

impl Decode for FsSnapshot {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(FsSnapshot { files: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_unlink() {
        let fs = SimFs::new();
        fs.write("/data/input.dat", b"payload");
        assert_eq!(fs.read("/data/input.dat").unwrap(), b"payload");
        assert_eq!(fs.size("/data/input.dat").unwrap(), 7);
        fs.unlink("/data/input.dat").unwrap();
        assert_eq!(fs.read("/data/input.dat"), Err(Errno::ENOENT));
    }

    #[test]
    fn positional_io() {
        let fs = SimFs::new();
        fs.write_at("/f", 4, b"abcd");
        assert_eq!(fs.size("/f").unwrap(), 8);
        assert_eq!(fs.read_at("/f", 0, 8).unwrap(), b"\0\0\0\0abcd");
        assert_eq!(fs.read_at("/f", 6, 100).unwrap(), b"cd", "short read at EOF");
        fs.write_at("/f", 0, b"XY");
        assert_eq!(fs.read_at("/f", 0, 2).unwrap(), b"XY");
    }

    #[test]
    fn append_accumulates() {
        let fs = SimFs::new();
        fs.append("/log", b"a");
        fs.append("/log", b"b");
        assert_eq!(fs.read("/log").unwrap(), b"ab");
    }

    #[test]
    fn paths_normalized() {
        let fs = SimFs::new();
        fs.write("relative/path", b"x");
        assert!(fs.exists("/relative/path"));
    }

    #[test]
    fn list_by_prefix() {
        let fs = SimFs::new();
        fs.write("/pods/p1/a", b"1");
        fs.write("/pods/p1/b", b"2");
        fs.write("/pods/p2/a", b"3");
        let mut l = fs.list("/pods/p1");
        l.sort();
        assert_eq!(l, vec!["/pods/p1/a".to_string(), "/pods/p1/b".to_string()]);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let fs = SimFs::new();
        fs.write("/pods/p1/state", b"before");
        let snap = fs.snapshot("/pods/p1");
        fs.write("/pods/p1/state", b"mutated");
        fs.restore(&snap);
        assert_eq!(fs.read("/pods/p1/state").unwrap(), b"before");

        // Encode/decode the snapshot itself.
        let mut w = RecordWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(FsSnapshot::decode(&mut r).unwrap(), snap);
    }

    #[test]
    fn shared_across_threads() {
        let fs = SimFs::new();
        let fs2 = Arc::clone(&fs);
        std::thread::spawn(move || fs2.write("/from-other-node", b"hi"))
            .join()
            .unwrap();
        assert!(fs.exists("/from-other-node"));
    }

    #[test]
    fn crash_loses_unsynced_files() {
        let fs = SimFs::new();
        fs.write("/store/a", b"never synced");
        fs.write("/store/b", b"synced");
        fs.fsync("/store/b").unwrap();
        fs.write("/elsewhere/c", b"other subtree");
        let affected = fs.crash_unsynced_under("/store");
        assert_eq!(affected, 1);
        assert!(!fs.exists("/store/a"), "unsynced file vanishes");
        assert_eq!(fs.read("/store/b").unwrap(), b"synced");
        assert!(fs.exists("/elsewhere/c"), "crash is scoped to the prefix");
    }

    #[test]
    fn crash_tears_partially_synced_file() {
        let fs = SimFs::new();
        fs.write("/store/f", b"durable");
        fs.fsync("/store/f").unwrap();
        fs.append("/store/f", b"+volatile");
        fs.crash_unsynced_under("/store");
        assert_eq!(fs.read("/store/f").unwrap(), b"durable", "torn to the watermark");
    }

    #[test]
    fn rename_is_atomic_and_carries_watermark() {
        let fs = SimFs::new();
        fs.write("/store/tmp/x", b"image bytes");
        fs.fsync("/store/tmp/x").unwrap();
        fs.rename("/store/tmp/x", "/store/images/x").unwrap();
        assert!(!fs.exists("/store/tmp/x"));
        fs.crash_unsynced_under("/store");
        assert_eq!(fs.read("/store/images/x").unwrap(), b"image bytes");

        // Renaming without fsync leaves a torn file after a crash.
        fs.write("/store/tmp/y", b"never synced");
        fs.rename("/store/tmp/y", "/store/images/y").unwrap();
        fs.crash_unsynced_under("/store");
        assert!(!fs.exists("/store/images/y"), "unsynced rename does not survive");
    }

    #[test]
    fn overwrite_resets_durability() {
        let fs = SimFs::new();
        fs.write("/store/f", b"v1");
        fs.fsync("/store/f").unwrap();
        fs.write("/store/f", b"v2");
        fs.crash_unsynced_under("/store");
        assert!(!fs.exists("/store/f"), "in-place overwrite is not crash-safe");
    }

    #[test]
    fn rename_missing_source_is_enoent() {
        let fs = SimFs::new();
        assert_eq!(fs.rename("/no/such", "/dst"), Err(Errno::ENOENT));
        assert_eq!(fs.fsync("/no/such"), Err(Errno::ENOENT));
    }
}
