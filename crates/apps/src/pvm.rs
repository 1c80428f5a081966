//! minipvm: a master/worker task-farming layer (stands in for PVM 3.4).
//!
//! PVM's model differs from MPI's rank mesh: a master process farms tasks
//! to workers over a star topology. Each master–worker connection is one
//! framed link, the one minimpi uses ([`crate::comm`]), read in order,
//! with tags for ready / task / result / shutdown.

use crate::comm::{Link, Msg};
use zapc_proto::{Decode, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport};
use zapc_sim::{Errno, ProcessCtx, SysResult};

/// Well-known master port.
pub const PVM_PORT: u16 = 6200;

/// Message tags.
pub mod tags {
    /// Worker → master: ready for work (carries worker id).
    pub const READY: u32 = 1;
    /// Master → worker: a task payload.
    pub const TASK: u32 = 2;
    /// Worker → master: a result payload.
    pub const RESULT: u32 = 3;
    /// Master → worker: no more work; exit.
    pub const DONE: u32 = 4;
}

/// The master ("pvmd"-ish) endpoint.
#[derive(Debug, Clone)]
pub struct PvmMaster {
    expected_workers: u32,
    listen_fd: u32,
    listening: bool,
    workers: Vec<Link>,
}

impl PvmMaster {
    /// A master expecting `expected_workers` workers.
    pub fn new(expected_workers: u32) -> PvmMaster {
        PvmMaster { expected_workers, listen_fd: 0, listening: false, workers: Vec::new() }
    }

    /// Drives worker enrollment; `true` once everyone is connected.
    pub fn poll_init(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<bool> {
        if !self.listening {
            self.listen_fd = ctx.socket(Transport::Tcp)?;
            ctx.bind(self.listen_fd, Endpoint { ip: 0, port: PVM_PORT })?;
            ctx.listen(self.listen_fd, self.expected_workers as usize + 1)?;
            self.listening = true;
        }
        loop {
            match ctx.accept(self.listen_fd) {
                Ok((fd, _)) => self.workers.push(Link::new(fd)),
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.workers.len() as u32 >= self.expected_workers)
    }

    /// Number of connected workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of workers this master was told to expect.
    pub fn expected(&self) -> u32 {
        self.expected_workers
    }

    /// Queues a message to worker `w`.
    pub fn post(&mut self, w: usize, tag: u32, data: &[u8]) {
        self.workers[w].post(tag, data);
    }

    /// Pumps every worker link.
    pub fn progress(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<()> {
        for link in &mut self.workers {
            link.pump(ctx)?;
        }
        Ok(())
    }

    /// Takes the next message from worker `w`.
    pub fn try_recv(&mut self, w: usize) -> Option<Msg> {
        self.workers[w].take_next()
    }

    /// True when all transmit queues drained.
    pub fn tx_idle(&self) -> bool {
        self.workers.iter().all(Link::tx_idle)
    }
}

impl Encode for PvmMaster {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.expected_workers);
        w.put_u32(self.listen_fd);
        w.put_bool(self.listening);
        w.put(&self.workers);
    }
}

impl Decode for PvmMaster {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PvmMaster {
            expected_workers: r.get_u32()?,
            listen_fd: r.get_u32()?,
            listening: r.get_bool()?,
            workers: r.get()?,
        })
    }
}

/// The worker endpoint.
#[derive(Debug, Clone)]
pub struct PvmWorker {
    master_vip: u32,
    started: bool,
    connected: bool,
    link: Link,
}

impl PvmWorker {
    /// A worker that will enroll with the master at `master_vip`.
    pub fn new(master_vip: u32) -> PvmWorker {
        PvmWorker { master_vip, started: false, connected: false, link: Link::default() }
    }

    /// Drives enrollment; `true` once connected.
    pub fn poll_init(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<bool> {
        if !self.started {
            self.link.fd = ctx.socket(Transport::Tcp)?;
            ctx.connect(self.link.fd, Endpoint { ip: self.master_vip, port: PVM_PORT })?;
            self.started = true;
        }
        if !self.connected {
            match ctx.is_connected(self.link.fd) {
                Ok(true) => self.connected = true,
                Ok(false) => {}
                Err(_) => {
                    // Master not listening yet: retry the enrollment.
                    let _ = ctx.close(self.link.fd);
                    self.link.fd = ctx.socket(Transport::Tcp)?;
                    ctx.connect(self.link.fd, Endpoint { ip: self.master_vip, port: PVM_PORT })?;
                }
            }
        }
        Ok(self.connected)
    }

    /// Queues a message to the master.
    pub fn post(&mut self, tag: u32, data: &[u8]) {
        self.link.post(tag, data);
    }

    /// Pumps the master link.
    pub fn progress(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<()> {
        if self.connected {
            self.link.pump(ctx)?;
        }
        Ok(())
    }

    /// Takes the next message from the master.
    pub fn try_recv(&mut self) -> Option<Msg> {
        self.link.take_next()
    }

    /// True when the transmit queue drained.
    pub fn tx_idle(&self) -> bool {
        self.link.tx_idle()
    }
}

impl Encode for PvmWorker {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.master_vip);
        w.put_bool(self.started);
        w.put_bool(self.connected);
        w.put(&self.link);
    }
}

impl Decode for PvmWorker {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PvmWorker {
            master_vip: r.get_u32()?,
            started: r.get_bool()?,
            connected: r.get_bool()?,
            link: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_serialization_round_trip() {
        let mut m = PvmMaster::new(2);
        m.listening = true;
        m.listen_fd = 3;
        m.workers.push(Link::new(4));
        m.post(0, tags::TASK, b"payload");
        let mut w = RecordWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = PvmMaster::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.workers, m.workers);
    }

    #[test]
    fn worker_serialization_round_trip() {
        let mut wk = PvmWorker::new(0x0A0A_0001);
        wk.started = true;
        wk.post(tags::READY, b"");
        let mut w = RecordWriter::new();
        wk.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = PvmWorker::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!((back.master_vip, back.started, back.connected), (0x0A0A_0001, true, false));
        assert_eq!(back.link, wk.link);
    }
}
