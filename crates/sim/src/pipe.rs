//! Intra-pod byte pipes.
//!
//! Pipes are interprocess-communication state the library-level
//! checkpointers of §2 famously fail to capture; the pod checkpoint saves
//! pipe buffers wholesale. Pipes never cross pod boundaries (processes in a
//! pod migrate as a group, §3), so no coordination is needed for them.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::{Errno, SysResult};

/// Default pipe capacity (64 KiB, like Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct PipeInner {
    buf: VecDeque<u8>,
    capacity: usize,
    read_closed: bool,
    write_closed: bool,
}

/// A unidirectional in-kernel byte pipe.
#[derive(Debug)]
pub struct Pipe {
    /// Unique id (stable within a checkpoint image).
    pub id: u64,
    inner: Mutex<PipeInner>,
}

static NEXT_PIPE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Pipe {
    /// Creates an empty pipe.
    pub fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            id: NEXT_PIPE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner: Mutex::new(PipeInner {
                buf: VecDeque::new(),
                capacity: PIPE_CAPACITY,
                read_closed: false,
                write_closed: false,
            }),
        })
    }

    /// Writes into the pipe; returns bytes accepted, `EAGAIN` when full,
    /// `EPIPE` when the read end is closed.
    pub fn write(&self, data: &[u8]) -> SysResult<usize> {
        let mut p = self.inner.lock().unwrap();
        if p.read_closed {
            return Err(Errno::EPIPE);
        }
        let room = p.capacity - p.buf.len();
        if room == 0 {
            return Err(Errno::EAGAIN);
        }
        let take = data.len().min(room);
        p.buf.extend(&data[..take]);
        Ok(take)
    }

    /// Reads up to `n` bytes; empty result means EOF (write end closed),
    /// `EAGAIN` means no data yet.
    pub fn read(&self, n: usize) -> SysResult<Vec<u8>> {
        let mut p = self.inner.lock().unwrap();
        if p.buf.is_empty() {
            return if p.write_closed { Ok(Vec::new()) } else { Err(Errno::EAGAIN) };
        }
        let take = n.min(p.buf.len());
        Ok(p.buf.drain(..take).collect())
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// Closes the read end.
    pub fn close_read(&self) {
        self.inner.lock().unwrap().read_closed = true;
    }

    /// Closes the write end.
    pub fn close_write(&self) {
        self.inner.lock().unwrap().write_closed = true;
    }

    /// Whether the write end is closed.
    pub fn write_closed(&self) -> bool {
        self.inner.lock().unwrap().write_closed
    }

    /// Checkpoint extraction: `(buffered bytes, read_closed, write_closed)`.
    pub fn snapshot(&self) -> (Vec<u8>, bool, bool) {
        let p = self.inner.lock().unwrap();
        let (head, tail) = p.buf.as_slices();
        ([head, tail].concat(), p.read_closed, p.write_closed)
    }

    /// Restore path: reinstates buffered data and end states.
    pub fn restore(&self, data: Vec<u8>, read_closed: bool, write_closed: bool) {
        let mut p = self.inner.lock().unwrap();
        p.buf = data.into();
        p.read_closed = read_closed;
        p.write_closed = write_closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let p = Pipe::new();
        assert_eq!(p.write(b"hello").unwrap(), 5);
        assert_eq!(p.read(3).unwrap(), b"hel");
        assert_eq!(p.read(10).unwrap(), b"lo");
        assert_eq!(p.read(10), Err(Errno::EAGAIN));
    }

    #[test]
    fn eof_after_write_close() {
        let p = Pipe::new();
        p.write(b"tail").unwrap();
        p.close_write();
        assert_eq!(p.read(10).unwrap(), b"tail");
        assert_eq!(p.read(10).unwrap(), b"", "EOF");
    }

    #[test]
    fn epipe_after_read_close() {
        let p = Pipe::new();
        p.close_read();
        assert_eq!(p.write(b"x"), Err(Errno::EPIPE));
    }

    #[test]
    fn capacity_enforced() {
        let p = Pipe::new();
        let big = vec![0u8; PIPE_CAPACITY + 100];
        assert_eq!(p.write(&big).unwrap(), PIPE_CAPACITY);
        assert_eq!(p.write(b"x"), Err(Errno::EAGAIN));
        p.read(100).unwrap();
        assert_eq!(p.write(b"x").unwrap(), 1);
    }

    #[test]
    fn snapshot_of_a_wrapped_queue_is_the_logical_stream() {
        let p = Pipe::new();
        p.write(&[1; 40]).unwrap();
        p.read(30).unwrap();
        p.write(&(0..20).collect::<Vec<u8>>()).unwrap();
        assert!(!p.inner.lock().unwrap().buf.as_slices().1.is_empty(), "the ring buffer must wrap");
        let want: Vec<u8> = [vec![1; 10], (0..20).collect()].concat();
        assert_eq!(p.snapshot().0, want);
    }

    #[test]
    fn snapshot_restore() {
        let p = Pipe::new();
        p.write(b"inflight").unwrap();
        p.close_write();
        let (data, rc, wc) = p.snapshot();
        let q = Pipe::new();
        q.restore(data, rc, wc);
        assert_eq!(q.read(100).unwrap(), b"inflight");
        assert_eq!(q.read(100).unwrap(), b"", "write-closed state survived");
    }
}
