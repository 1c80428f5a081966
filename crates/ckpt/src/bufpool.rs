//! Process-wide byte-buffer pool for the checkpoint hot path.
//!
//! Every payload the dump path produces — process records, memory
//! sections, pre-copy round payloads — is built in a `Vec<u8>`, copied
//! into the image by `ImageWriter::section_bytes` (or framed onto a
//! migration stream), and then dies. Allocating those vectors fresh per
//! checkpoint made allocation the dominant non-memcpy cost once the
//! observer overhead was gone. This pool recycles the allocations across
//! checkpoint invocations:
//!
//! * [`take`] hands out a **cleared** buffer (len 0) with at least the
//!   requested capacity, reusing a pooled allocation when one is big
//!   enough. Byte-identity across reuse is guaranteed by construction —
//!   callers only ever append to an empty buffer, so stale bytes from a
//!   previous checkpoint can never leak into an image (pinned by the
//!   `pooled_buffers_leak_no_stale_bytes` property test).
//! * [`give`] returns a buffer to the pool. Oversized buffers
//!   (> `MAX_RETAINED_CAP`) are dropped so one huge pod can't pin its
//!   peak footprint forever; the pool itself holds at most
//!   `MAX_POOLED` buffers.
//!
//! Ownership rule (see DESIGN.md "Hot path & allocation discipline"):
//! whoever last touches the bytes gives the buffer back. The dump path
//! returns payload buffers after `section_bytes` copies them; live
//! migration recycles round payloads after framing them onto the stream.

use parking_lot::Mutex;

/// Most buffers retained at once; beyond this, [`give`] drops.
const MAX_POOLED: usize = 32;
/// Largest capacity worth retaining (8 MiB). Bigger buffers are freed.
const MAX_RETAINED_CAP: usize = 8 << 20;

static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// A cleared buffer with capacity ≥ `cap`, pooled when possible.
pub fn take(cap: usize) -> Vec<u8> {
    let mut pool = POOL.lock();
    // Prefer the largest pooled buffer that's already big enough; fall
    // back to the largest overall (it will regrow once, then stick).
    let mut best: Option<usize> = None;
    for (i, b) in pool.iter().enumerate() {
        let better = match best {
            Some(j) => {
                let (bc, jc) = (b.capacity(), pool[j].capacity());
                (jc < cap && bc > jc) || (bc >= cap && (jc < cap || bc < jc))
            }
            None => true,
        };
        if better {
            best = Some(i);
        }
    }
    let mut buf = match best {
        Some(i) => pool.swap_remove(i),
        None => Vec::new(),
    };
    drop(pool);
    buf.clear();
    if buf.capacity() < cap {
        buf.reserve(cap - buf.len());
    }
    buf
}

/// Returns a buffer's allocation to the pool (contents are discarded).
pub fn give(mut buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_RETAINED_CAP {
        return;
    }
    buf.clear();
    let mut pool = POOL.lock();
    if pool.len() < MAX_POOLED {
        pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_buffers() {
        let mut b = take(16);
        assert!(b.is_empty());
        b.extend_from_slice(b"stale stale stale");
        give(b);
        let b2 = take(4);
        assert!(b2.is_empty(), "pooled buffer must come back cleared");
    }

    #[test]
    fn capacity_is_reused() {
        let mut b = take(0);
        b.reserve(4096);
        let p = b.as_ptr();
        give(b);
        // Something in the pool now satisfies a 4 KiB request without
        // allocating; it may or may not be the same allocation if other
        // tests run concurrently, so only assert capacity.
        let b2 = take(4096);
        assert!(b2.capacity() >= 4096);
        let _ = p;
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        let b = Vec::with_capacity(MAX_RETAINED_CAP + 1);
        give(b); // must not panic; silently dropped
    }
}
