//! CPI: parallel calculation of π (§6, workload 1).
//!
//! The MPICH-2 sample program: each rank integrates `4/(1+x²)` over a
//! strided subset of `n` intervals and the partial sums are combined with
//! an all-reduce — "uses basic MPI primitives and is mostly
//! computationally bound". The per-rank workspace region models the
//! process footprint that dominates its checkpoint image (16 MB at 1 node
//! → 7 MB at 16 nodes in the paper: a fixed part plus a `1/N` part).

use crate::comm::Rank;
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, StepOutcome};

/// Registry key.
pub const CPI_TYPE: &str = "apps.cpi";

/// CPI parameters.
#[derive(Debug, Clone)]
pub struct CpiConfig {
    /// Total number of integration intervals.
    pub n_steps: u64,
    /// Intervals evaluated per scheduler step.
    pub chunk: u64,
    /// Fixed per-rank workspace bytes.
    pub mem_fixed: usize,
    /// Workspace bytes divided across ranks (`mem_scaled / size` each).
    pub mem_scaled: usize,
}

impl Default for CpiConfig {
    fn default() -> Self {
        CpiConfig { n_steps: 200_000, chunk: 4_000, mem_fixed: 64 * 1024, mem_scaled: 256 * 1024 }
    }
}

/// One CPI rank.
pub struct Cpi {
    cfg: CpiConfig,
    rank: Rank,
    idx: u64,
    local_sum: f64,
    ws: u64,
    pi: f64,
}

impl Cpi {
    /// Creates rank `rank` with the vip table of all ranks.
    pub fn new(cfg: CpiConfig, rank: u32, vips: Vec<u32>) -> Cpi {
        Cpi { cfg, rank: Rank::new(rank, vips), idx: rank as u64, local_sum: 0.0, ws: 0, pi: 0.0 }
    }

    /// Deterministic exit code derived from the computed π.
    pub fn exit_code_for(pi: f64) -> i32 {
        ((pi * 1e9) as i64).rem_euclid(251) as i32
    }

    /// The value an undisturbed run computes (for tests).
    pub fn expected_pi(n_steps: u64) -> f64 {
        let h = 1.0 / n_steps as f64;
        let mut sum = 0.0;
        for i in 0..n_steps {
            let x = h * (i as f64 + 0.5);
            sum += 4.0 / (1.0 + x * x);
        }
        sum * h
    }
}

impl Program for Cpi {
    fn type_name(&self) -> &'static str {
        CPI_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.rank.phase {
            0 => {
                let bytes =
                    self.cfg.mem_fixed + self.cfg.mem_scaled / self.rank.comm.size.max(1) as usize;
                self.ws = ctx.mem.map_bytes("cpi.workspace", bytes);
                // Touch the workspace so the image carries real content.
                let ws = ctx.mem.bytes_mut(self.ws).expect("mapped");
                for (i, b) in ws.iter_mut().enumerate() {
                    *b = (i % 251) as u8;
                }
                self.rank.phase = 1;
                StepOutcome::Ready
            }
            1 => self.rank.init(ctx, "cpi"),
            2 => {
                let n = self.cfg.n_steps;
                let h = 1.0 / n as f64;
                let stride = self.rank.comm.size as u64;
                let mut done = 0;
                while self.idx < n && done < self.cfg.chunk {
                    let x = h * (self.idx as f64 + 0.5);
                    self.local_sum += 4.0 / (1.0 + x * x);
                    self.idx += stride;
                    done += 1;
                }
                ctx.consume_cpu(done * 12);
                if self.idx >= n {
                    self.rank.start_allreduce(self.local_sum);
                }
                StepOutcome::Ready
            }
            3 => match self.rank.allreduce(ctx, "cpi") {
                Some(sum) => {
                    self.pi = sum / self.cfg.n_steps as f64;
                    StepOutcome::Ready
                }
                None => StepOutcome::Blocked,
            },
            4 => self.rank.finish(ctx, "pi.txt", &format!("{:.12}", self.pi)),
            _ => StepOutcome::Exited(Cpi::exit_code_for(self.pi)),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u64(self.cfg.n_steps);
        w.put_u64(self.cfg.chunk);
        w.put_u64(self.cfg.mem_fixed as u64);
        w.put_u64(self.cfg.mem_scaled as u64);
        self.rank.encode(w);
        w.put_u64(self.idx);
        w.put_f64(self.local_sum);
        w.put_u64(self.ws);
        w.put_f64(self.pi);
    }
}

/// Loader for the registry.
pub fn load(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = CpiConfig {
        n_steps: r.get_u64()?,
        chunk: r.get_u64()?,
        mem_fixed: r.get_u64()? as usize,
        mem_scaled: r.get_u64()? as usize,
    };
    Ok(Box::new(Cpi {
        cfg,
        rank: Rank::decode(r)?,
        idx: r.get_u64()?,
        local_sum: r.get_f64()?,
        ws: r.get_u64()?,
        pi: r.get_f64()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_pi_is_pi() {
        let pi = Cpi::expected_pi(100_000);
        assert!((pi - std::f64::consts::PI).abs() < 1e-8);
    }

    #[test]
    fn exit_code_depends_on_digits() {
        let a = Cpi::exit_code_for(std::f64::consts::PI);
        let b = Cpi::exit_code_for(std::f64::consts::PI - 1e-8);
        assert!((0..251).contains(&a));
        assert_ne!(a, b);
    }
}
