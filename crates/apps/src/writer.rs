//! A synthetic dirty-memory writer: the adversarial workload for live
//! migration.
//!
//! The §6 applications dirty memory as a side effect of computing; this
//! program dirties memory *as its job*, with a tunable rate, so tests and
//! benchmarks can place workloads anywhere on the convergence spectrum:
//!
//! * a large **ballast** region written once at startup and never again —
//!   the cold state iterative pre-copy ships for free while the pod runs;
//! * `hot_regions` equally-sized **hot** `f64` regions, of which a fixed
//!   `dirty_rate` fraction (the first `k` regions) is rewritten every
//!   scheduler step. The writer borrows each one whole, which dirties all
//!   of it, so the rate maps directly onto the delta bytes each pre-copy
//!   round re-ships, independent of how many steps elapse between rounds.
//!
//! `dirty_rate = 0` converges after the base copy; `dirty_rate = 1`
//! re-dirties every hot byte faster than any round can drain it and
//! *never* converges — the workload the round cap exists for.
//!
//! The writer is deterministic: its exit code is a function of the
//! configuration only, so a migrated run must produce the same code as an
//! undisturbed one.

use zapc_proto::{DecodeResult, RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, StepOutcome};

/// Registry key.
pub const WRITER_TYPE: &str = "apps.writer";

/// Dirty-writer parameters.
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Cold region written once at startup (bytes).
    pub ballast_bytes: usize,
    /// Number of independently-tracked hot regions.
    pub hot_regions: usize,
    /// Size of each hot region (bytes).
    pub region_bytes: usize,
    /// Fraction of the hot regions rewritten per step (`0.0..=1.0`).
    pub dirty_rate: f64,
    /// Steps before exiting.
    pub steps: u64,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            ballast_bytes: 256 * 1024,
            hot_regions: 8,
            region_bytes: 8 * 1024,
            dirty_rate: 0.25,
            steps: 4096,
        }
    }
}

impl WriterConfig {
    /// Hot regions rewritten per step under this configuration.
    pub fn regions_per_step(&self) -> usize {
        ((self.hot_regions as f64) * self.dirty_rate).ceil() as usize
    }
}

/// One dirty-writer process.
pub struct DirtyWriter {
    cfg: WriterConfig,
    hot_bases: Vec<u64>,
    step_no: u64,
    acc: u64,
    started: bool,
}

impl DirtyWriter {
    /// Creates a writer with `cfg`.
    pub fn new(cfg: WriterConfig) -> DirtyWriter {
        DirtyWriter { cfg, hot_bases: Vec::new(), step_no: 0, acc: 0, started: false }
    }

    fn exit_code(&self) -> i32 {
        (self.acc % 251) as i32
    }
}

impl Program for DirtyWriter {
    fn type_name(&self) -> &'static str {
        WRITER_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if !self.started {
            let ballast = ctx.mem.map_bytes("writer.ballast", self.cfg.ballast_bytes.max(8));
            let b = ctx.mem.bytes_mut(ballast).expect("mapped");
            for (i, v) in b.iter_mut().enumerate() {
                *v = (i % 251) as u8;
            }
            for i in 0..self.cfg.hot_regions {
                let elems = (self.cfg.region_bytes / 8).max(1);
                self.hot_bases.push(ctx.mem.map_f64(&format!("writer.hot{i}"), elems));
            }
            self.started = true;
            return StepOutcome::Ready;
        }
        if self.step_no >= self.cfg.steps {
            return StepOutcome::Exited(self.exit_code());
        }
        // Rewrite the first k hot regions this step — a fixed subset, so
        // the per-round delta residual is exactly `k * region_bytes`
        // regardless of how many steps elapse between capture rounds (a
        // rotating window would touch the whole hot set given enough
        // steps, flattening any downtime-vs-rate curve). The value
        // written is a pure function of (step, region, index), so the
        // final checksum is independent of where or when the process runs.
        let k = self.cfg.regions_per_step().min(self.hot_bases.len());
        for j in 0..k {
            let ri = j % self.hot_bases.len();
            let hot = ctx.mem.f64_mut(self.hot_bases[ri]).expect("mapped");
            for (i, v) in hot.iter_mut().enumerate() {
                *v = (self.step_no as f64) + (ri as f64) * 0.5 + (i as f64) * 0.25;
                self.acc = self
                    .acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(v.to_bits() ^ (i as u64));
            }
        }
        self.step_no += 1;
        StepOutcome::Ready
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u64(self.cfg.ballast_bytes as u64);
        w.put_u64(self.cfg.hot_regions as u64);
        w.put_u64(self.cfg.region_bytes as u64);
        w.put_f64(self.cfg.dirty_rate);
        w.put_u64(self.cfg.steps);
        w.put_u64_slice(&self.hot_bases);
        w.put_u64(self.step_no);
        w.put_u64(self.acc);
        w.put_bool(self.started);
    }
}

/// Dirty-writer loader.
pub fn load(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = WriterConfig {
        ballast_bytes: r.get_u64()? as usize,
        hot_regions: r.get_u64()? as usize,
        region_bytes: r.get_u64()? as usize,
        dirty_rate: r.get_f64()?,
        steps: r.get_u64()?,
    };
    Ok(Box::new(DirtyWriter {
        cfg,
        hot_bases: r.get_u64_slice()?,
        step_no: r.get_u64()?,
        acc: r.get_u64()?,
        started: r.get_bool()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_maps_to_regions_per_step() {
        let mk = |rate| WriterConfig { hot_regions: 8, dirty_rate: rate, ..Default::default() };
        assert_eq!(mk(0.0).regions_per_step(), 0);
        assert_eq!(mk(0.25).regions_per_step(), 2);
        assert_eq!(mk(1.0).regions_per_step(), 8);
        assert_eq!(mk(0.01).regions_per_step(), 1, "any nonzero rate touches something");
    }
}
