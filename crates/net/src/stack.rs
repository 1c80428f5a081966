//! Per-node network stack: socket tables, port allocation, and segment
//! demultiplexing.
//!
//! Each simulated cluster node runs one `NetStack` — the node's kernel
//! network layer. The wire delivers segments here; the stack demultiplexes
//! to established connections, listeners (spawning handshake children that
//! inherit the listening port — the source-port inheritance §4's restart
//! schedule must respect), or datagram binds: UDP by port, raw IP by
//! protocol number.

use crate::seg::Segment;
use crate::socket::{Socket, SocketId};
use crate::tcp::Tcb;
use crate::wire::NetShared;
use crate::{NetError, NetResult};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use zapc_proto::{Endpoint, Transport};

/// Lowest ephemeral port.
const EPHEMERAL_BASE: u16 = 49152;

#[derive(Debug, Default)]
struct StackInner {
    sockets: HashMap<SocketId, Arc<Socket>>,
    /// Bound ports: `(ip, port, transport) → socket`. A raw-IP capture has
    /// no port; its protocol number takes the port's place.
    ports: HashMap<(u32, u16, Transport), SocketId>,
    /// Established (and in-handshake) connections: `(local, remote) → socket`.
    est: HashMap<(Endpoint, Endpoint), SocketId>,
    next_ephemeral: u16,
}

/// One node's network stack.
pub struct NetStack {
    /// Node identifier (diagnostics only; routing is by virtual IP).
    pub node: u32,
    net: Arc<NetShared>,
    inner: RwLock<StackInner>,
    weak_self: std::sync::Weak<NetStack>,
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetStack(node={})", self.node)
    }
}

impl NetStack {
    /// Creates the stack for node `node`, attached to the wire `net`.
    pub fn new(node: u32, net: Arc<NetShared>) -> Arc<NetStack> {
        Arc::new_cyclic(|weak| NetStack {
            node,
            net,
            inner: RwLock::new(StackInner {
                next_ephemeral: EPHEMERAL_BASE,
                ..Default::default()
            }),
            weak_self: weak.clone(),
        })
    }

    /// Creates a socket on this node. `default_ip` is the owning pod's
    /// virtual IP (used for auto-binding); `ip_proto` selects the protocol
    /// for raw sockets.
    pub fn socket(&self, transport: Transport, default_ip: u32, ip_proto: u8) -> Arc<Socket> {
        let s = Socket::new(
            Arc::clone(&self.net),
            self.weak_self.clone(),
            transport,
            default_ip,
            ip_proto,
        );
        self.inner.write().unwrap().sockets.insert(s.id, Arc::clone(&s));
        s
    }

    /// Number of sockets registered on this stack.
    pub fn socket_count(&self) -> usize {
        self.inner.read().unwrap().sockets.len()
    }

    /// All sockets whose local address (or default IP) is `vip` — the set a
    /// pod's network checkpoint must cover.
    pub fn sockets_for_ip(&self, vip: u32) -> Vec<Arc<Socket>> {
        // Lock order is socket → stack (`Socket::connect` binds its port
        // while holding the socket lock), so no socket may be locked under
        // the stack lock: copy the list out first, then look inside.
        let mut out: Vec<Arc<Socket>> =
            self.inner.read().unwrap().sockets.values().cloned().collect();
        out.retain(|s| {
            s.with_inner(|i| i.local.map(|l| l.ip == vip).unwrap_or(i.default_ip == vip))
        });
        out.sort_by_key(|s| s.id);
        out
    }

    /// Claims a port binding. Port 0 selects an ephemeral port. A raw
    /// socket claims its protocol number `ip_proto` in the port's place and
    /// gets back the address it was given.
    pub(crate) fn bind_port(
        &self,
        sock: SocketId,
        addr: Endpoint,
        transport: Transport,
        _reuse: bool,
        ip_proto: Option<u8>,
    ) -> NetResult<Endpoint> {
        let mut inner = self.inner.write().unwrap();
        let port = if transport == Transport::RawIp {
            ip_proto.ok_or(NetError::Invalid)? as u16
        } else if addr.port == 0 {
            let mut candidate = inner.next_ephemeral;
            let mut found = None;
            for _ in 0..=(u16::MAX - EPHEMERAL_BASE) {
                if !inner.ports.contains_key(&(addr.ip, candidate, transport)) {
                    found = Some(candidate);
                    break;
                }
                candidate = if candidate == u16::MAX { EPHEMERAL_BASE } else { candidate + 1 };
            }
            let p = found.ok_or(NetError::AddrInUse)?;
            inner.next_ephemeral = if p == u16::MAX { EPHEMERAL_BASE } else { p + 1 };
            p
        } else {
            addr.port
        };
        let key = (addr.ip, port, transport);
        if inner.ports.contains_key(&key) {
            return Err(NetError::AddrInUse);
        }
        inner.ports.insert(key, sock);
        Ok(if transport == Transport::RawIp { addr } else { Endpoint { ip: addr.ip, port } })
    }

    /// Releases the port binding `sock` holds, if any.
    pub(crate) fn unbind_port(&self, sock: SocketId) {
        self.inner.write().unwrap().ports.retain(|_, &mut v| v != sock);
    }

    /// Registers a connection four-tuple for demultiplexing.
    pub(crate) fn register_connection(&self, local: Endpoint, remote: Endpoint, sock: &Arc<Socket>) {
        self.inner.write().unwrap().est.insert((local, remote), sock.id);
    }

    /// Fully removes a socket from every table (pod teardown).
    pub fn remove_socket(&self, id: SocketId) {
        let mut inner = self.inner.write().unwrap();
        inner.sockets.remove(&id);
        inner.ports.retain(|_, &mut v| v != id);
        inner.est.retain(|_, &mut v| v != id);
    }

    /// One-line diagnostic dump of the demux tables, for restore-path
    /// timeout reports.
    pub fn debug_tables(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut s = String::new();
        use std::fmt::Write;
        for ((l, r), id) in &inner.est {
            let st = inner.sockets.get(id).map(|sk| {
                sk.with_inner(|i| {
                    format!(
                        "{:?}/{:?} det={} par={}",
                        i.phase,
                        i.tcb.as_ref().map(|t| t.state),
                        i.detached,
                        i.parent.is_some()
                    )
                })
            });
            let _ = writeln!(s, "est {l:?}->{r:?} #{id:?} {st:?}");
        }
        for ((ip, port, tr), id) in &inner.ports {
            let _ = writeln!(s, "port {ip}:{port} {tr:?} #{id:?}");
        }
        s
    }

    /// Removes every socket bound to `vip` (pod destroyed or migrated away).
    pub fn remove_sockets_for_ip(&self, vip: u32) {
        let doomed: Vec<SocketId> = self.sockets_for_ip(vip).iter().map(|s| s.id).collect();
        for id in doomed {
            self.remove_socket(id);
        }
    }

    /// Demultiplexes one segment from the wire (pump-thread context).
    pub fn deliver(self: &Arc<Self>, seg: Segment) {
        match seg.transport {
            Transport::Tcp => self.deliver_tcp(seg),
            Transport::Udp | Transport::RawIp => {
                let t = seg.transport;
                let port = if t == Transport::RawIp { seg.ip_proto as u16 } else { seg.dst.port };
                let sock = {
                    let inner = self.inner.read().unwrap();
                    inner
                        .ports
                        .get(&(seg.dst.ip, port, t))
                        .or_else(|| inner.ports.get(&(0, port, t)))
                        .and_then(|id| inner.sockets.get(id))
                        .cloned()
                };
                if let Some(s) = sock {
                    s.handle_datagram(seg);
                }
            }
        }
    }

    fn deliver_tcp(self: &Arc<Self>, seg: Segment) {
        // Established / in-handshake connection?
        let est = {
            let inner = self.inner.read().unwrap();
            inner.est.get(&(seg.dst, seg.src)).and_then(|id| inner.sockets.get(id)).cloned()
        };
        if let Some(sock) = est {
            sock.handle_segment(seg);
            return;
        }
        // Listener?
        let listener = {
            let inner = self.inner.read().unwrap();
            inner
                .ports
                .get(&(seg.dst.ip, seg.dst.port, Transport::Tcp))
                .or_else(|| inner.ports.get(&(0, seg.dst.port, Transport::Tcp)))
                .and_then(|id| inner.sockets.get(id))
                .cloned()
        };
        if let Some(listener) = listener {
            if seg.flags.syn && !seg.flags.ack {
                self.spawn_child(&listener, &seg);
                return;
            }
            // Non-SYN to a listener port without a connection: reset.
            if !seg.flags.rst {
                self.net.send(Tcb::make_rst_for(&seg));
            }
            return;
        }
        // Nothing there: connection refused.
        if !seg.flags.rst {
            self.net.send(Tcb::make_rst_for(&seg));
        }
    }

    /// Creates the passive-open child for a SYN arriving at a listener. The
    /// child's local endpoint is the listener's — it *inherits the source
    /// port* of the listening socket (§4). Its options are the listener's,
    /// or those a restore expects for this peer ([`Socket::listen_expecting`]).
    fn spawn_child(self: &Arc<Self>, listener: &Arc<Socket>, seg: &Segment) {
        // Snapshot what we need from the listener, then release its lock.
        let opts = listener.with_inner(|i| {
            let l = i.listen.as_ref()?;
            Some(l.child_opts.get(&seg.src).unwrap_or(&i.opts).clone())
        });
        let Some(opts) = opts else {
            self.net.send(Tcb::make_rst_for(seg));
            return;
        };
        let child = Socket::new(
            Arc::clone(&self.net),
            self.weak_self.clone(),
            Transport::Tcp,
            seg.dst.ip,
            6,
        );
        let synack = child.with_inner(|i| {
            i.local = Some(seg.dst);
            i.parent = Some(Arc::downgrade(listener));
            i.phase = crate::socket::SocketState::Connecting;
            let tcb = Tcb::accept(
                seg.dst,
                seg.src,
                crate::socket::fresh_isn(),
                seg.seq,
                opts.snd_buf as usize,
                opts.rcv_buf as usize,
                opts.tcp_max_seg as usize,
                opts.oob_inline,
            );
            let sa = tcb.make_syn_ack();
            i.tcb = Some(tcb);
            i.opts = opts;
            sa
        });
        // Register, guarding against a duplicate SYN racing us.
        {
            let mut inner = self.inner.write().unwrap();
            if inner.est.contains_key(&(seg.dst, seg.src)) {
                // A child already exists; it will re-answer on its own
                // retransmission timer. Drop ours.
                return;
            }
            inner.est.insert((seg.dst, seg.src), child.id);
            inner.sockets.insert(child.id, Arc::clone(&child));
        }
        self.net.send(synack);
        child.kick_rtx();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Network, NetworkConfig};
    use std::time::Duration;

    fn quiet_net() -> Network {
        Network::new(NetworkConfig {
            latency: Duration::from_micros(10),
            jitter: Duration::ZERO,
            ..Default::default()
        })
    }

    fn ep(h: u8, p: u16) -> Endpoint {
        Endpoint::new(10, 10, 0, h, p)
    }

    #[test]
    fn bind_explicit_and_conflict() {
        let net = quiet_net();
        let stack = NetStack::new(1, net.handle());
        let a = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        let b = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        assert_eq!(a.bind(ep(1, 7000)).unwrap(), ep(1, 7000));
        assert_eq!(b.bind(ep(1, 7000)), Err(NetError::AddrInUse));
        // Same port, different transport is fine.
        let c = stack.socket(Transport::Tcp, ep(1, 0).ip, 6);
        assert!(c.bind(ep(1, 7000)).is_ok());
    }

    #[test]
    fn ephemeral_ports_unique() {
        let net = quiet_net();
        let stack = NetStack::new(1, net.handle());
        let a = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        let b = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        let pa = a.bind(ep(1, 0)).unwrap().port;
        let pb = b.bind(ep(1, 0)).unwrap().port;
        assert_ne!(pa, pb);
        assert!(pa >= EPHEMERAL_BASE && pb >= EPHEMERAL_BASE);
    }

    #[test]
    fn sockets_for_ip_filters() {
        let net = quiet_net();
        let stack = NetStack::new(1, net.handle());
        let a = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        a.bind(ep(1, 5000)).unwrap();
        let _b = stack.socket(Transport::Udp, ep(2, 0).ip, 0);
        let for_1 = stack.sockets_for_ip(ep(1, 0).ip);
        assert_eq!(for_1.len(), 1);
        assert_eq!(for_1[0].id, a.id);
        // Unbound socket attributed by default_ip.
        let for_2 = stack.sockets_for_ip(ep(2, 0).ip);
        assert_eq!(for_2.len(), 1);
    }

    #[test]
    fn remove_sockets_for_ip_cleans_tables() {
        let net = quiet_net();
        let stack = NetStack::new(1, net.handle());
        let a = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        a.bind(ep(1, 5000)).unwrap();
        stack.remove_sockets_for_ip(ep(1, 0).ip);
        assert_eq!(stack.socket_count(), 0);
        // Port is free again.
        let b = stack.socket(Transport::Udp, ep(1, 0).ip, 0);
        assert!(b.bind(ep(1, 5000)).is_ok());
    }
}
