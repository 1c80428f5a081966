//! BT: a Block-Tridiagonal-flavoured 3-D solver (§6, workload 2 — the NAS
//! BT benchmark class).
//!
//! A `G×G×G` grid is decomposed into Z-slabs, one per rank. Every
//! iteration exchanges halo planes with both neighbours (a `G×G` plane of
//! doubles each way — "substantial network communication along the
//! computation") and then relaxes the slab with three directional sweeps,
//! echoing BT's ADI structure. The global residual is all-reduced at the
//! end, giving a deterministic result for correctness checks.
//!
//! NAS BT requires a square number of processes; the paper runs it on
//! 1, 4, 9 and 16 nodes. This port only needs `G % size == 0`-ish slabs
//! but the harness keeps the square-number configuration for fidelity.

use crate::comm::{block, Rank};
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, StepOutcome};

/// Registry key.
pub const BT_TYPE: &str = "apps.bt";

/// Message tags for halo planes: to rank−1 and to rank+1.
const HALO_TAGS: (u32, u32) = (0x10, 0x11);

/// BT parameters.
#[derive(Debug, Clone)]
pub struct BtConfig {
    /// Grid edge length.
    pub grid: usize,
    /// Relaxation iterations.
    pub iters: u32,
    /// Grid lines processed per scheduler step.
    pub lines_per_step: usize,
}

impl Default for BtConfig {
    fn default() -> Self {
        BtConfig { grid: 24, iters: 6, lines_per_step: 256 }
    }
}

/// One BT rank (one Z-slab).
pub struct Bt {
    cfg: BtConfig,
    rank: Rank,
    iter: u32,
    /// Sweep progress within the current iteration (line index).
    line: usize,
    grid_base: u64,
    nz: usize,
    z0: usize,
    residual: f64,
}

impl Bt {
    /// Creates rank `rank`.
    pub fn new(cfg: BtConfig, rank: u32, vips: Vec<u32>) -> Bt {
        Bt {
            cfg,
            rank: Rank::new(rank, vips),
            iter: 0,
            line: 0,
            grid_base: 0,
            nz: 0,
            z0: 0,
            residual: 0.0,
        }
    }

    fn exit_code(&self) -> i32 {
        ((self.residual * 1e6) as i64).rem_euclid(251) as i32
    }
}

impl Program for Bt {
    fn type_name(&self) -> &'static str {
        BT_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        let g = self.cfg.grid;
        match self.rank.phase {
            0 => {
                let (z0, nz) = block(self.rank.comm.rank as usize, self.rank.comm.size as usize, g);
                self.z0 = z0;
                self.nz = nz;
                self.grid_base = ctx.mem.map_f64("bt.grid", (nz + 2) * g * g);
                // Deterministic initial condition depending on global coords.
                let base = self.grid_base;
                let u = ctx.mem.f64_mut(base).expect("mapped");
                for z in 0..nz {
                    for y in 0..g {
                        for x in 0..g {
                            let gz = z0 + z;
                            u[((z + 1) * g + y) * g + x] =
                                ((gz * 31 + y * 7 + x) % 17) as f64 * 0.125;
                        }
                    }
                }
                self.rank.phase = 1;
                StepOutcome::Ready
            }
            1 => self.rank.init(ctx, "bt"),
            // Phases 2 and 3: exchange the G×G halo planes at z=0 and z=nz+1.
            2 => self.rank.post_halos(ctx, self.grid_base, (g * g, self.nz), HALO_TAGS),
            3 => self.rank.collect_halos(ctx, self.grid_base, (g * g, self.nz), HALO_TAGS),
            // Phase 4: relax the slab, a bounded number of lines per step.
            4 => {
                let total_lines = self.nz * g;
                let todo = self.cfg.lines_per_step.min(total_lines - self.line);
                let gb = self.grid_base;
                let nz = self.nz;
                {
                    let u = ctx.mem.f64_mut(gb).expect("mapped");
                    for l in self.line..self.line + todo {
                        let z = l / g + 1; // skip halo plane 0
                        let y = l % g;
                        for x in 1..g - 1 {
                            let idx = (z * g + y) * g + x;
                            let up = u[((z - 1) * g + y) * g + x];
                            let dn = u[((z + 1) * g + y) * g + x];
                            let n = if y > 0 { u[(z * g + y - 1) * g + x] } else { 0.0 };
                            let s = if y + 1 < g { u[(z * g + y + 1) * g + x] } else { 0.0 };
                            let w = u[idx - 1];
                            let e = u[idx + 1];
                            u[idx] = 0.4 * u[idx] + 0.1 * (up + dn + n + s + w + e);
                        }
                    }
                }
                ctx.consume_cpu((todo * g) as u64 * 8);
                self.line += todo;
                if self.line >= total_lines {
                    self.line = 0;
                    self.iter += 1;
                    if self.iter >= self.cfg.iters {
                        // Final residual: sum of interior values.
                        let u = ctx.mem.f64(gb).expect("mapped");
                        let mut local = 0.0;
                        for z in 1..=nz {
                            for y in 0..g {
                                for x in 0..g {
                                    local += u[(z * g + y) * g + x];
                                }
                            }
                        }
                        self.rank.start_allreduce(local);
                    } else {
                        self.rank.phase = 2;
                    }
                }
                StepOutcome::Ready
            }
            5 => match self.rank.allreduce(ctx, "bt") {
                Some(sum) => {
                    self.residual = sum / (g * g * g) as f64;
                    StepOutcome::Ready
                }
                None => StepOutcome::Blocked,
            },
            6 => self.rank.finish(ctx, "bt-residual.txt", &format!("{:.9}", self.residual)),
            _ => StepOutcome::Exited(self.exit_code()),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u64(self.cfg.grid as u64);
        w.put_u32(self.cfg.iters);
        w.put_u64(self.cfg.lines_per_step as u64);
        self.rank.encode(w);
        w.put_u32(self.iter);
        w.put_u64(self.line as u64);
        w.put_u64(self.grid_base);
        w.put_u64(self.nz as u64);
        w.put_u64(self.z0 as u64);
        w.put_f64(self.residual);
    }
}

/// Loader for the registry.
pub fn load(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = BtConfig {
        grid: r.get_u64()? as usize,
        iters: r.get_u32()?,
        lines_per_step: r.get_u64()? as usize,
    };
    Ok(Box::new(Bt {
        cfg,
        rank: Rank::decode(r)?,
        iter: r.get_u32()?,
        line: r.get_u64()? as usize,
        grid_base: r.get_u64()?,
        nz: r.get_u64()? as usize,
        z0: r.get_u64()? as usize,
        residual: r.get_f64()?,
    }))
}
