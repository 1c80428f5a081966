//! Checkpoint destinations (§4): "The destination can be either a file
//! name or a network address of a receiving Agent. This facilitates direct
//! migration of an application from one set of nodes to another without
//! requiring that the checkpoint data first be written to some
//! intermediary storage."

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Where a pod's checkpoint image goes (or comes from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Uri {
    /// A named slot in the cluster's in-memory image store — the paper's
    /// measurement configuration ("the time to write the checkpoint image
    /// of each pod to memory", §6.2).
    Mem(String),
    /// A slot in the cluster's *durable* image store: the image is staged
    /// under checkpoint id `ckpt` (write-to-temp → fsync → atomic rename)
    /// and becomes part of an application checkpoint only once the
    /// Manager commits a manifest naming it. As an image source, the
    /// image is looked up through checkpoint `ckpt`'s manifest and
    /// digest-verified before restart.
    Store {
        /// Durable checkpoint id (the store directory the image lands in).
        ckpt: u64,
    },
}

impl Uri {
    /// Convenience constructor for memory URIs.
    pub fn mem(label: impl Into<String>) -> Uri {
        Uri::Mem(label.into())
    }
}

/// The in-memory image store shared by a cluster's Agents.
#[derive(Debug, Default)]
pub struct MemStore {
    slots: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Arc<MemStore> {
        Arc::new(MemStore::default())
    }

    /// Stores an image: an owned `Vec<u8>`, or an already-shared
    /// `Arc<Vec<u8>>` without copying.
    pub fn put(&self, label: &str, image: impl Into<Arc<Vec<u8>>>) {
        self.slots.lock().unwrap().insert(label.to_owned(), image.into());
    }

    /// Fetches an image.
    pub fn get(&self, label: &str) -> Option<Arc<Vec<u8>>> {
        self.slots.lock().unwrap().get(label).cloned()
    }

    /// Removes an image; returns whether it existed.
    pub fn remove(&self, label: &str) -> bool {
        self.slots.lock().unwrap().remove(label).is_some()
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().unwrap().is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.slots.lock().unwrap().values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_put_get_remove() {
        let s = MemStore::new();
        s.put("ckpt/pod-1", vec![1, 2, 3]);
        assert_eq!(s.get("ckpt/pod-1").unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(s.total_bytes(), 3);
        assert!(s.remove("ckpt/pod-1"));
        assert!(!s.remove("ckpt/pod-1"));
        assert!(s.get("ckpt/pod-1").is_none());
    }

    #[test]
    fn uri_constructors() {
        assert_eq!(Uri::mem("x"), Uri::Mem("x".into()));
    }
}
