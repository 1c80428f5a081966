//! The system-call surface programs run against.
//!
//! [`ProcessCtx`] is handed to [`crate::process::Program::step`] and exposes
//! sockets, files, pipes, timers, signals and time — always non-blocking
//! (`EAGAIN` instead of sleeping), because programs are cooperative state
//! machines.
//!
//! Two pieces of bookkeeping live here:
//!
//! * **Interposition accounting.** Every call increments/decrements the
//!   pod's `active_syscalls` reference count (ZapC's multiprocessor-safe
//!   interposition, §3) and charges the pod's measured per-call
//!   virtualization overhead into virtual time — this is how the Figure 5
//!   *Base vs ZapC* comparison is modelled without a real kernel module.
//! * **Virtual-time propagation.** `consume_cpu` advances the process's
//!   Lamport clock; sends stamp it onto segments; receives merge the
//!   sender's clock back in. Application completion times in virtual time
//!   then show the communication/computation overlap a real cluster would.

use crate::clock::TimerSet;
use crate::fdtable::{Fd, FdKind, FdTable, FileDesc};
use crate::ids::Pid;
use crate::memory::AddressSpace;
use crate::pipe::Pipe;
use crate::process::ProcEnv;
use crate::signals::{PendingSignals, Signal};
use crate::{Errno, SysResult};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use zapc_net::socket::PollMask;
use zapc_net::{OptValue, RecvFlags, Shutdown, SockOpt};
use zapc_proto::{Endpoint, Transport};

/// Base virtual-time cost of a system call (nanoseconds), independent of
/// pod virtualization.
pub const SYSCALL_BASE_NS: u64 = 300;

/// The per-step system-call context of one process.
pub struct ProcessCtx<'a> {
    /// Global PID.
    pub pid: Pid,
    /// Pod-virtual PID (what `getpid` reports).
    pub vpid: u32,
    /// The process's address space.
    pub mem: &'a mut AddressSpace,
    /// The descriptor table.
    pub fds: &'a mut FdTable,
    timers: &'a mut TimerSet,
    signals: &'a mut PendingSignals,
    vtime: &'a mut u64,
    env: &'a Arc<ProcEnv>,
}

impl<'a> ProcessCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pid: Pid,
        vpid: u32,
        mem: &'a mut AddressSpace,
        fds: &'a mut FdTable,
        timers: &'a mut TimerSet,
        signals: &'a mut PendingSignals,
        vtime: &'a mut u64,
        env: &'a Arc<ProcEnv>,
    ) -> Self {
        ProcessCtx { pid, vpid, mem, fds, timers, signals, vtime, env }
    }

    /// Charges one system call: interposition refcount + virtual time.
    fn charge(&mut self) -> SyscallGuard {
        self.env.active_syscalls.fetch_add(1, Ordering::AcqRel);
        *self.vtime += SYSCALL_BASE_NS + self.env.virt_overhead_ns;
        SyscallGuard { env: Arc::clone(self.env) }
    }

    // ---- time & virtual time -------------------------------------------

    /// Pod-virtual wall-clock milliseconds (`gettimeofday` as the
    /// application sees it; biased after restart, §5).
    pub fn now_ms(&mut self) -> u64 {
        let _g = self.charge();
        self.env.vclock.now_ms(&self.env.clock)
    }

    /// Unvirtualized cluster time (diagnostics; not offered to programs in
    /// pods with time virtualization on a real system).
    pub fn real_now_ms(&self) -> u64 {
        self.env.clock.now_ms()
    }

    /// Advances the process's virtual CPU clock by `ns` of modelled work.
    pub fn consume_cpu(&mut self, ns: u64) {
        *self.vtime += ns;
    }

    /// Current virtual time in nanoseconds.
    pub fn vtime_ns(&self) -> u64 {
        *self.vtime
    }

    // ---- timers ---------------------------------------------------------

    /// Arms a timer `delay_ms` from now, optionally periodic.
    pub fn timer_arm(&mut self, delay_ms: u64, interval_ms: Option<u64>) -> u64 {
        let now = self.env.vclock.now_ms(&self.env.clock);
        let _g = self.charge();
        self.timers.arm(now, delay_ms, interval_ms)
    }

    /// Polls (and possibly re-arms) a timer.
    pub fn timer_poll(&mut self, id: u64) -> bool {
        let now = self.env.vclock.now_ms(&self.env.clock);
        self.timers.poll(id, now)
    }

    /// Disarms a timer.
    pub fn timer_disarm(&mut self, id: u64) -> bool {
        self.timers.disarm(id)
    }

    // ---- signals --------------------------------------------------------

    /// Takes the next queued deliverable signal, if any.
    pub fn take_signal(&mut self) -> Option<Signal> {
        self.signals.pop()
    }

    // ---- sockets --------------------------------------------------------

    /// Creates a TCP or UDP socket.
    pub fn socket(&mut self, transport: Transport) -> SysResult<Fd> {
        if transport == Transport::RawIp {
            return Err(Errno::EINVAL); // use socket_raw
        }
        let _g = self.charge();
        let s = self.env.stack.socket(transport, self.env.vip, 0);
        Ok(self.fds.insert(FdKind::Socket(s)))
    }

    /// Creates a raw-IP socket capturing protocol `ip_proto`.
    pub fn socket_raw(&mut self, ip_proto: u8) -> SysResult<Fd> {
        let _g = self.charge();
        let s = self.env.stack.socket(Transport::RawIp, self.env.vip, ip_proto);
        Ok(self.fds.insert(FdKind::Socket(s)))
    }

    fn sock(&self, fd: Fd) -> SysResult<Arc<zapc_net::Socket>> {
        self.fds.socket(fd).cloned().ok_or(Errno::EBADF)
    }

    /// Binds a socket. A zero IP binds the pod's own virtual IP.
    pub fn bind(&mut self, fd: Fd, mut addr: Endpoint) -> SysResult<Endpoint> {
        let _g = self.charge();
        if addr.ip == 0 {
            addr.ip = self.env.vip;
        }
        Ok(self.sock(fd)?.bind(addr)?)
    }

    /// Starts listening.
    pub fn listen(&mut self, fd: Fd, backlog: usize) -> SysResult<()> {
        let _g = self.charge();
        Ok(self.sock(fd)?.listen(backlog)?)
    }

    /// Initiates a (non-blocking) connection.
    pub fn connect(&mut self, fd: Fd, dst: Endpoint) -> SysResult<()> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        s.set_tx_vt(*self.vtime);
        Ok(s.connect(dst)?)
    }

    /// True once the connection handshake has completed. A socket that
    /// has reached the `Closed` state without ever connecting reports its
    /// pending error (or `ECONNRESET`), like a failed `connect(2)`.
    pub fn is_connected(&mut self, fd: Fd) -> SysResult<bool> {
        let s = self.sock(fd)?;
        if let Some(e) = s.take_error() {
            return Err(e.into());
        }
        if s.state() == zapc_net::SocketState::Closed {
            return Err(Errno::ECONNRESET);
        }
        Ok(s.is_connected())
    }

    /// Accepts a pending connection; returns the new descriptor and peer.
    pub fn accept(&mut self, fd: Fd) -> SysResult<(Fd, Endpoint)> {
        let _g = self.charge();
        let child = self.sock(fd)?.accept()?;
        let peer = child.peer_addr().unwrap_or(Endpoint::ANY);
        Ok((self.fds.insert(FdKind::Socket(child)), peer))
    }

    /// Sends stream data; returns bytes queued.
    pub fn send(&mut self, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        s.set_tx_vt(*self.vtime);
        Ok(s.send(data)?)
    }

    /// Sends urgent (out-of-band) data.
    pub fn send_oob(&mut self, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        s.set_tx_vt(*self.vtime);
        Ok(s.send_oob(data)?)
    }

    /// Sends a datagram.
    pub fn sendto(&mut self, fd: Fd, dst: Endpoint, data: &[u8]) -> SysResult<usize> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        s.set_tx_vt(*self.vtime);
        Ok(s.sendto(dst, data)?)
    }

    /// Receives stream data (empty result = EOF). Merges the sender's
    /// virtual clock into ours.
    pub fn recv(&mut self, fd: Fd, n: usize, flags: RecvFlags) -> SysResult<Vec<u8>> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        let out = s.recv(n, flags)?;
        *self.vtime = (*self.vtime).max(s.rx_vt());
        Ok(out)
    }

    /// Receives one datagram with its source.
    pub fn recvfrom(&mut self, fd: Fd, n: usize, flags: RecvFlags) -> SysResult<(Vec<u8>, Endpoint)> {
        let _g = self.charge();
        let s = self.sock(fd)?;
        let out = s.recvfrom(n, flags)?;
        *self.vtime = (*self.vtime).max(s.rx_vt());
        Ok(out)
    }

    /// Polls a descriptor for readiness.
    pub fn poll(&mut self, fd: Fd) -> SysResult<PollMask> {
        let entry = self.fds.get(fd).ok_or(Errno::EBADF)?;
        match &entry.kind {
            FdKind::Socket(s) => Ok(s.poll()),
            FdKind::PipeRead(p) => Ok(PollMask {
                readable: p.buffered() > 0 || p.write_closed(),
                ..Default::default()
            }),
            FdKind::PipeWrite(_) => Ok(PollMask { writable: true, ..Default::default() }),
            FdKind::File(_) => Ok(PollMask { readable: true, writable: true, ..Default::default() }),
        }
    }

    /// Shuts down a socket direction.
    pub fn shutdown(&mut self, fd: Fd, how: Shutdown) -> SysResult<()> {
        let _g = self.charge();
        Ok(self.sock(fd)?.shutdown(how)?)
    }

    /// `setsockopt`.
    pub fn setsockopt(&mut self, fd: Fd, opt: SockOpt, val: OptValue) -> SysResult<()> {
        let _g = self.charge();
        Ok(self.sock(fd)?.setsockopt(opt, val)?)
    }

    /// `getsockopt`.
    pub fn getsockopt(&mut self, fd: Fd, opt: SockOpt) -> SysResult<OptValue> {
        let _g = self.charge();
        Ok(self.sock(fd)?.getsockopt(opt))
    }

    /// Local address of a socket.
    pub fn getsockname(&mut self, fd: Fd) -> SysResult<Endpoint> {
        self.sock(fd)?.local_addr().ok_or(Errno::EINVAL)
    }

    // ---- files (cluster-shared storage, chrooted per pod) ---------------

    fn full_path(&self, path: &str) -> String {
        if self.env.fs_root.is_empty() {
            path.to_owned()
        } else {
            format!("{}/{}", self.env.fs_root, path.trim_start_matches('/'))
        }
    }

    /// Opens (optionally creating) a file.
    pub fn open(&mut self, path: &str, create: bool, append: bool) -> SysResult<Fd> {
        let _g = self.charge();
        let full = self.full_path(path);
        if !self.env.fs.exists(&full) {
            if !create {
                return Err(Errno::ENOENT);
            }
            self.env.fs.write(&full, b"");
        }
        let offset = if append { self.env.fs.size(&full).unwrap_or(0) } else { 0 };
        Ok(self.fds.insert(FdKind::File(FileDesc { path: full, offset, append })))
    }

    /// Reads from a file descriptor at its current offset.
    pub fn file_read(&mut self, fd: Fd, n: usize) -> SysResult<Vec<u8>> {
        let _g = self.charge();
        let fs = Arc::clone(&self.env.fs);
        let entry = self.fds.get_mut(fd).ok_or(Errno::EBADF)?;
        let FdKind::File(f) = &mut entry.kind else { return Err(Errno::EBADF) };
        let data = fs.read_at(&f.path, f.offset, n)?;
        f.offset += data.len() as u64;
        Ok(data)
    }

    /// Writes to a file descriptor at its current offset.
    pub fn file_write(&mut self, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let _g = self.charge();
        let fs = Arc::clone(&self.env.fs);
        let entry = self.fds.get_mut(fd).ok_or(Errno::EBADF)?;
        let FdKind::File(f) = &mut entry.kind else { return Err(Errno::EBADF) };
        if f.append {
            f.offset = fs.size(&f.path).unwrap_or(0);
        }
        fs.write_at(&f.path, f.offset, data);
        f.offset += data.len() as u64;
        Ok(data.len())
    }

    /// Repositions a file offset.
    pub fn lseek(&mut self, fd: Fd, offset: u64) -> SysResult<()> {
        let entry = self.fds.get_mut(fd).ok_or(Errno::EBADF)?;
        let FdKind::File(f) = &mut entry.kind else { return Err(Errno::EBADF) };
        f.offset = offset;
        Ok(())
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> SysResult<()> {
        let _g = self.charge();
        let full = self.full_path(path);
        self.env.fs.unlink(&full)
    }

    // ---- pipes -----------------------------------------------------------

    /// Creates a pipe; returns `(read_fd, write_fd)`.
    pub fn pipe(&mut self) -> SysResult<(Fd, Fd)> {
        let _g = self.charge();
        let p = Pipe::new();
        let r = self.fds.insert(FdKind::PipeRead(Arc::clone(&p)));
        let w = self.fds.insert(FdKind::PipeWrite(p));
        Ok((r, w))
    }

    /// Writes to a pipe descriptor.
    pub fn pipe_write(&mut self, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let _g = self.charge();
        match &self.fds.get(fd).ok_or(Errno::EBADF)?.kind {
            FdKind::PipeWrite(p) => p.write(data),
            _ => Err(Errno::EBADF),
        }
    }

    /// Reads from a pipe descriptor (empty = EOF).
    pub fn pipe_read(&mut self, fd: Fd, n: usize) -> SysResult<Vec<u8>> {
        let _g = self.charge();
        match &self.fds.get(fd).ok_or(Errno::EBADF)?.kind {
            FdKind::PipeRead(p) => p.read(n),
            _ => Err(Errno::EBADF),
        }
    }

    /// Closes any descriptor.
    pub fn close(&mut self, fd: Fd) -> SysResult<()> {
        let _g = self.charge();
        let entry = self.fds.remove(fd).ok_or(Errno::EBADF)?;
        match entry.kind {
            FdKind::Socket(s) => s.close(),
            FdKind::PipeRead(p) => p.close_read(),
            FdKind::PipeWrite(p) => p.close_write(),
            FdKind::File(_) => {}
        }
        Ok(())
    }
}

/// RAII guard for the interposition reference count.
struct SyscallGuard {
    env: Arc<ProcEnv>,
}

impl Drop for SyscallGuard {
    fn drop(&mut self) {
        self.env.active_syscalls.fetch_sub(1, Ordering::AcqRel);
    }
}
