//! Per-process file-descriptor tables.
//!
//! Descriptors can reference sockets (checkpointed by `zapc-netckpt`),
//! shared-storage files (only path/offset/flags are checkpointed — contents
//! live on shared storage, §3), and pipes (buffers checkpointed with the
//! pod). Descriptor numbers, like all identifiers visible to applications,
//! must survive restart unchanged.

use crate::pipe::Pipe;
use std::collections::BTreeMap;
use std::sync::Arc;
use zapc_net::Socket;

/// Descriptor number.
pub type Fd = u32;

/// An open-file description for a shared-storage file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDesc {
    /// Pod-relative path (the pod layer applies the chroot prefix).
    pub path: String,
    /// Current offset.
    pub offset: u64,
    /// Opened in append mode.
    pub append: bool,
}

/// What a descriptor refers to.
#[derive(Debug, Clone)]
pub enum FdKind {
    /// A network socket.
    Socket(Arc<Socket>),
    /// A shared-storage file.
    File(FileDesc),
    /// Read end of a pipe.
    PipeRead(Arc<Pipe>),
    /// Write end of a pipe.
    PipeWrite(Arc<Pipe>),
}

/// One descriptor-table entry.
#[derive(Debug, Clone)]
pub struct FdEntry {
    /// Referent.
    pub kind: FdKind,
}

/// A process's descriptor table.
#[derive(Debug, Default)]
pub struct FdTable {
    entries: BTreeMap<Fd, FdEntry>,
    next: Fd,
}

impl FdTable {
    /// Creates an empty table (fds start at 3, as stdio is not simulated).
    pub fn new() -> Self {
        FdTable { entries: BTreeMap::new(), next: 3 }
    }

    /// Installs `kind` at the lowest free descriptor.
    pub fn insert(&mut self, kind: FdKind) -> Fd {
        while self.entries.contains_key(&self.next) {
            self.next += 1;
        }
        let fd = self.next;
        self.entries.insert(fd, FdEntry { kind });
        self.next += 1;
        fd
    }

    /// Installs `kind` at a *specific* descriptor (restore path: descriptor
    /// numbers must come back exactly as saved).
    pub fn insert_at(&mut self, fd: Fd, kind: FdKind) {
        self.entries.insert(fd, FdEntry { kind });
        self.next = self.next.max(fd + 1);
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> Option<&FdEntry> {
        self.entries.get(&fd)
    }

    /// Mutable lookup (file offsets move on read/write).
    pub fn get_mut(&mut self, fd: Fd) -> Option<&mut FdEntry> {
        self.entries.get_mut(&fd)
    }

    /// Convenience: the socket behind `fd`, if it is one.
    pub fn socket(&self, fd: Fd) -> Option<&Arc<Socket>> {
        match &self.entries.get(&fd)?.kind {
            FdKind::Socket(s) => Some(s),
            _ => None,
        }
    }

    /// Removes a descriptor, returning its entry.
    pub fn remove(&mut self, fd: Fd) -> Option<FdEntry> {
        self.entries.remove(&fd)
    }

    /// Iterates `(fd, entry)` in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FdEntry)> {
        self.entries.iter().map(|(&fd, e)| (fd, e))
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no descriptor is open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_ascending_fds() {
        let mut t = FdTable::new();
        let a = t.insert(FdKind::File(FileDesc { path: "/a".into(), offset: 0, append: false }));
        let b = t.insert(FdKind::File(FileDesc { path: "/b".into(), offset: 0, append: false }));
        assert_eq!((a, b), (3, 4));
    }

    #[test]
    fn remove_frees_then_reuses_lowest() {
        let mut t = FdTable::new();
        let a = t.insert(FdKind::PipeRead(Pipe::new()));
        let _b = t.insert(FdKind::PipeRead(Pipe::new()));
        t.remove(a).unwrap();
        assert!(t.get(a).is_none());
        // Linux-like lowest-free-fd reuse is not required; we only require
        // no collision.
        let c = t.insert(FdKind::PipeRead(Pipe::new()));
        assert!(t.get(c).is_some());
    }

    #[test]
    fn insert_at_exact_fd_for_restore() {
        let mut t = FdTable::new();
        t.insert_at(7, FdKind::File(FileDesc { path: "/x".into(), offset: 5, append: true }));
        assert!(t.get(7).is_some());
        let next = t.insert(FdKind::PipeRead(Pipe::new()));
        assert!(next > 7, "allocator advanced past restored fd");
    }

    #[test]
    fn file_offset_mutable() {
        let mut t = FdTable::new();
        let fd = t.insert(FdKind::File(FileDesc { path: "/f".into(), offset: 0, append: false }));
        if let FdKind::File(f) = &mut t.get_mut(fd).unwrap().kind {
            f.offset = 42;
        }
        match &t.get(fd).unwrap().kind {
            FdKind::File(f) => assert_eq!(f.offset, 42),
            _ => unreachable!(),
        }
    }
}
