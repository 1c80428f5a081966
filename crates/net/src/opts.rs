//! Socket parameters: the `getsockopt`/`setsockopt` surface.
//!
//! The paper (§5) saves the *entire* set of socket parameters through the
//! standard option interface and restores them the same way; this module
//! defines that option set (the usual `SO_*` options plus the TCP-level
//! options the paper calls out: `TCP_KEEPALIVE`-style keep-alive control and
//! `TCP_STDURG` urgent-data semantics) and a [`SockOpts`] store that can
//! enumerate itself for checkpointing.

use zapc_proto::{Decode, DecodeError, DecodeResult, Encode, RecordReader, RecordWriter};

/// Identifies a socket option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the POSIX/Linux option constants
pub enum SockOpt {
    ReuseAddr,
    KeepAlive,
    OobInline,
    RcvBuf,
    SndBuf,
    Linger,
    RcvTimeo,
    SndTimeo,
    Broadcast,
    DontRoute,
    RcvLowat,
    Priority,
    NonBlocking,
    TcpNoDelay,
    TcpKeepIdle,
    TcpStdUrg,
    TcpMaxSeg,
    IpTtl,
}

/// The value carried by an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptValue {
    /// Boolean flag.
    Bool(bool),
    /// Integer parameter.
    Int(u32),
    /// Linger: `None` = off, `Some(secs)` = on with timeout.
    Linger(Option<u32>),
}

/// The full parameter block of one socket.
///
/// Defaults mirror a freshly created Linux socket closely enough for the
/// simulation: 64 KiB buffers, Nagle enabled, blocking mode off (the
/// simulated programs are non-blocking state machines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SockOpts {
    /// `SO_REUSEADDR`.
    pub reuse_addr: bool,
    /// `SO_KEEPALIVE`.
    pub keep_alive: bool,
    /// `SO_OOBINLINE`: deliver urgent data inline with the normal stream.
    pub oob_inline: bool,
    /// `SO_RCVBUF` in bytes.
    pub rcv_buf: u32,
    /// `SO_SNDBUF` in bytes.
    pub snd_buf: u32,
    /// `SO_LINGER`.
    pub linger: Option<u32>,
    /// `SO_RCVTIMEO` in milliseconds (0 = none).
    pub rcv_timeo_ms: u32,
    /// `SO_SNDTIMEO` in milliseconds (0 = none).
    pub snd_timeo_ms: u32,
    /// `SO_BROADCAST`.
    pub broadcast: bool,
    /// `SO_DONTROUTE`.
    pub dont_route: bool,
    /// `SO_RCVLOWAT` in bytes.
    pub rcv_lowat: u32,
    /// `SO_PRIORITY`.
    pub priority: u32,
    /// `O_NONBLOCK` on the descriptor.
    pub non_blocking: bool,
    /// `TCP_NODELAY` (disable Nagle).
    pub tcp_no_delay: bool,
    /// `TCP_KEEPIDLE` seconds (keep-alive probe idle time).
    pub tcp_keep_idle: u32,
    /// `TCP_STDURG` urgent-pointer interpretation.
    pub tcp_std_urg: bool,
    /// `TCP_MAXSEG` maximum segment size in bytes.
    pub tcp_max_seg: u32,
    /// `IP_TTL`.
    pub ip_ttl: u32,
}

impl Default for SockOpts {
    fn default() -> Self {
        SockOpts {
            reuse_addr: false,
            keep_alive: false,
            oob_inline: false,
            rcv_buf: 64 * 1024,
            snd_buf: 64 * 1024,
            linger: None,
            rcv_timeo_ms: 0,
            snd_timeo_ms: 0,
            broadcast: false,
            dont_route: false,
            rcv_lowat: 1,
            priority: 0,
            non_blocking: true,
            tcp_no_delay: false,
            tcp_keep_idle: 7200,
            tcp_std_urg: false,
            tcp_max_seg: 1460,
            ip_ttl: 64,
        }
    }
}

/// All options, in a fixed enumeration order used by `all()`/checkpointing.
pub const ALL_OPTS: [SockOpt; 18] = [
    SockOpt::ReuseAddr,
    SockOpt::KeepAlive,
    SockOpt::OobInline,
    SockOpt::RcvBuf,
    SockOpt::SndBuf,
    SockOpt::Linger,
    SockOpt::RcvTimeo,
    SockOpt::SndTimeo,
    SockOpt::Broadcast,
    SockOpt::DontRoute,
    SockOpt::RcvLowat,
    SockOpt::Priority,
    SockOpt::NonBlocking,
    SockOpt::TcpNoDelay,
    SockOpt::TcpKeepIdle,
    SockOpt::TcpStdUrg,
    SockOpt::TcpMaxSeg,
    SockOpt::IpTtl,
];

impl SockOpts {
    /// `getsockopt`: reads one option.
    pub fn get(&self, opt: SockOpt) -> OptValue {
        match opt {
            SockOpt::ReuseAddr => OptValue::Bool(self.reuse_addr),
            SockOpt::KeepAlive => OptValue::Bool(self.keep_alive),
            SockOpt::OobInline => OptValue::Bool(self.oob_inline),
            SockOpt::RcvBuf => OptValue::Int(self.rcv_buf),
            SockOpt::SndBuf => OptValue::Int(self.snd_buf),
            SockOpt::Linger => OptValue::Linger(self.linger),
            SockOpt::RcvTimeo => OptValue::Int(self.rcv_timeo_ms),
            SockOpt::SndTimeo => OptValue::Int(self.snd_timeo_ms),
            SockOpt::Broadcast => OptValue::Bool(self.broadcast),
            SockOpt::DontRoute => OptValue::Bool(self.dont_route),
            SockOpt::RcvLowat => OptValue::Int(self.rcv_lowat),
            SockOpt::Priority => OptValue::Int(self.priority),
            SockOpt::NonBlocking => OptValue::Bool(self.non_blocking),
            SockOpt::TcpNoDelay => OptValue::Bool(self.tcp_no_delay),
            SockOpt::TcpKeepIdle => OptValue::Int(self.tcp_keep_idle),
            SockOpt::TcpStdUrg => OptValue::Bool(self.tcp_std_urg),
            SockOpt::TcpMaxSeg => OptValue::Int(self.tcp_max_seg),
            SockOpt::IpTtl => OptValue::Int(self.ip_ttl),
        }
    }

    /// `setsockopt`: writes one option. Returns `false` if the value type
    /// does not match the option.
    pub fn set(&mut self, opt: SockOpt, value: OptValue) -> bool {
        match (opt, value) {
            (SockOpt::ReuseAddr, OptValue::Bool(v)) => self.reuse_addr = v,
            (SockOpt::KeepAlive, OptValue::Bool(v)) => self.keep_alive = v,
            (SockOpt::OobInline, OptValue::Bool(v)) => self.oob_inline = v,
            (SockOpt::RcvBuf, OptValue::Int(v)) => self.rcv_buf = v,
            (SockOpt::SndBuf, OptValue::Int(v)) => self.snd_buf = v,
            (SockOpt::Linger, OptValue::Linger(v)) => self.linger = v,
            (SockOpt::RcvTimeo, OptValue::Int(v)) => self.rcv_timeo_ms = v,
            (SockOpt::SndTimeo, OptValue::Int(v)) => self.snd_timeo_ms = v,
            (SockOpt::Broadcast, OptValue::Bool(v)) => self.broadcast = v,
            (SockOpt::DontRoute, OptValue::Bool(v)) => self.dont_route = v,
            (SockOpt::RcvLowat, OptValue::Int(v)) => self.rcv_lowat = v,
            (SockOpt::Priority, OptValue::Int(v)) => self.priority = v,
            (SockOpt::NonBlocking, OptValue::Bool(v)) => self.non_blocking = v,
            (SockOpt::TcpNoDelay, OptValue::Bool(v)) => self.tcp_no_delay = v,
            (SockOpt::TcpKeepIdle, OptValue::Int(v)) => self.tcp_keep_idle = v,
            (SockOpt::TcpStdUrg, OptValue::Bool(v)) => self.tcp_std_urg = v,
            (SockOpt::TcpMaxSeg, OptValue::Int(v)) => self.tcp_max_seg = v,
            (SockOpt::IpTtl, OptValue::Int(v)) => self.ip_ttl = v,
            _ => return false,
        }
        true
    }

    /// Enumerates every `(option, value)` pair — the checkpoint path
    /// ("for correctness, the entire set of the parameters is included in
    /// the saved state", §5).
    pub fn all(&self) -> Vec<(SockOpt, OptValue)> {
        ALL_OPTS.iter().map(|&o| (o, self.get(o))).collect()
    }
}

zapc_proto::table_codec!(SockOpt, "SockOpt", ALL_OPTS);

impl Encode for OptValue {
    fn encode(&self, w: &mut RecordWriter) {
        match self {
            OptValue::Bool(b) => {
                w.put_u8(0);
                w.put(b);
            }
            OptValue::Int(i) => {
                w.put_u8(1);
                w.put(i);
            }
            OptValue::Linger(l) => {
                w.put_u8(2);
                w.put(l);
            }
        }
    }
}

impl Decode for OptValue {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        match r.get_u8()? {
            0 => Ok(OptValue::Bool(r.get()?)),
            1 => Ok(OptValue::Int(r.get()?)),
            2 => Ok(OptValue::Linger(r.get()?)),
            v => Err(DecodeError::InvalidEnum { what: "OptValue", value: v as u64 }),
        }
    }
}

impl Encode for SockOpts {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.all());
    }
}

impl Decode for SockOpts {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let mut opts = SockOpts::default();
        for (opt, val) in r.get::<Vec<(SockOpt, OptValue)>>()? {
            if !opts.set(opt, val) {
                let code = zapc_proto::rw::table_code(&ALL_OPTS, &opt);
                return Err(DecodeError::InvalidEnum { what: "OptValue kind", value: code });
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SockOpts::default();
        assert!(o.non_blocking);
        assert_eq!(o.rcv_buf, 64 * 1024);
        assert_eq!(o.tcp_max_seg, 1460);
        assert!(o.linger.is_none());
    }

    #[test]
    fn get_set_round_trip_every_option() {
        let mut o = SockOpts::default();
        for &opt in &ALL_OPTS {
            let flipped = match o.get(opt) {
                OptValue::Bool(b) => OptValue::Bool(!b),
                OptValue::Int(i) => OptValue::Int(i + 17),
                OptValue::Linger(_) => OptValue::Linger(Some(30)),
            };
            assert!(o.set(opt, flipped), "set {opt:?}");
            assert_eq!(o.get(opt), flipped, "get {opt:?}");
        }
    }

    #[test]
    fn set_rejects_mismatched_type() {
        let mut o = SockOpts::default();
        assert!(!o.set(SockOpt::RcvBuf, OptValue::Bool(true)));
        assert!(!o.set(SockOpt::ReuseAddr, OptValue::Int(1)));
    }

    #[test]
    fn encode_decode_round_trip() {
        let o = SockOpts {
            reuse_addr: true,
            oob_inline: true,
            rcv_buf: 1 << 20,
            linger: Some(12),
            tcp_std_urg: true,
            tcp_keep_idle: 55,
            ..Default::default()
        };
        let mut w = RecordWriter::new();
        o.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = SockOpts::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, o);
    }

    #[test]
    fn all_covers_every_option_once() {
        let o = SockOpts::default();
        let all = o.all();
        assert_eq!(all.len(), ALL_OPTS.len());
        for (i, (opt, _)) in all.iter().enumerate() {
            assert_eq!(*opt, ALL_OPTS[i]);
        }
    }
}
