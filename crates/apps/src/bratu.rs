//! Bratu / SFI: the PETSc solid-fuel-ignition example (§6, workload 3).
//!
//! Solves the Bratu problem `-Δu = λ·eᵘ` on the unit square with a damped
//! Newton–Jacobi scheme over a distributed 2-D array (row-block
//! decomposition), exchanging one halo row with each neighbour per sweep —
//! "uses distributed arrays to partition the problem grid with a moderate
//! level of communication".

use crate::comm::{block, Rank};
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, StepOutcome};

/// Registry key.
pub const BRATU_TYPE: &str = "apps.bratu";

/// Message tags for halo rows: to rank−1 and to rank+1.
const HALO_TAGS: (u32, u32) = (0x20, 0x21);

/// Bratu parameters.
#[derive(Debug, Clone)]
pub struct BratuConfig {
    /// Grid edge length (interior).
    pub n: usize,
    /// Bratu parameter λ (< λ_crit ≈ 6.80 for solvability).
    pub lambda: f64,
    /// Newton/Jacobi sweeps.
    pub sweeps: u32,
    /// Grid rows relaxed per scheduler step.
    pub rows_per_step: usize,
}

impl Default for BratuConfig {
    fn default() -> Self {
        BratuConfig { n: 48, lambda: 5.0, sweeps: 8, rows_per_step: 64 }
    }
}

/// One Bratu rank (a block of grid rows).
pub struct Bratu {
    cfg: BratuConfig,
    rank: Rank,
    sweep: u32,
    row: usize,
    u_base: u64,
    unew_base: u64,
    rows: usize,
    r0: usize,
    norm: f64,
}

impl Bratu {
    /// Creates rank `rank`.
    pub fn new(cfg: BratuConfig, rank: u32, vips: Vec<u32>) -> Bratu {
        Bratu {
            cfg,
            rank: Rank::new(rank, vips),
            sweep: 0,
            row: 0,
            u_base: 0,
            unew_base: 0,
            rows: 0,
            r0: 0,
            norm: 0.0,
        }
    }

    fn exit_code(&self) -> i32 {
        ((self.norm * 1e7) as i64).rem_euclid(251) as i32
    }
}

impl Program for Bratu {
    fn type_name(&self) -> &'static str {
        BRATU_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        let n = self.cfg.n;
        match self.rank.phase {
            0 => {
                let (r0, rows) =
                    block(self.rank.comm.rank as usize, self.rank.comm.size as usize, n);
                self.r0 = r0;
                self.rows = rows;
                // Two arrays (u and u_new) with halo rows top and bottom.
                self.u_base = ctx.mem.map_f64("bratu.u", (rows + 2) * n);
                self.unew_base = ctx.mem.map_f64("bratu.unew", (rows + 2) * n);
                let u = ctx.mem.f64_mut(self.u_base).expect("mapped");
                for r in 0..rows {
                    let gr = r0 + r;
                    for c in 0..n {
                        // Classic initial guess: a paraboloid bump.
                        let x = (gr + 1) as f64 / (n + 1) as f64;
                        let y = (c + 1) as f64 / (n + 1) as f64;
                        u[(r + 1) * n + c] = 4.0 * x * (1.0 - x) * y * (1.0 - y);
                    }
                }
                self.rank.phase = 1;
                StepOutcome::Ready
            }
            1 => self.rank.init(ctx, "bratu"),
            // Phases 2 and 3: halo-row exchange for this sweep.
            2 => self.rank.post_halos(ctx, self.u_base, (n, self.rows), HALO_TAGS),
            3 => self.rank.collect_halos(ctx, self.u_base, (n, self.rows), HALO_TAGS),
            // Phase 4: damped Newton–Jacobi relaxation, bounded rows/step.
            4 => {
                let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
                let lambda = self.cfg.lambda;
                let todo = self.cfg.rows_per_step.min(self.rows - self.row);
                {
                    let (u, unew) =
                        ctx.mem.f64_pair_mut(self.u_base, self.unew_base).expect("two arrays");
                    for r in self.row..self.row + todo {
                        let lr = r + 1; // halo offset
                        let top_boundary = self.r0 + r == 0;
                        let bottom_boundary = self.r0 + r == n - 1;
                        for c in 0..n {
                            let uc = u[lr * n + c];
                            let un = if top_boundary { 0.0 } else { u[(lr - 1) * n + c] };
                            let us = if bottom_boundary { 0.0 } else { u[(lr + 1) * n + c] };
                            let uw = if c == 0 { 0.0 } else { u[lr * n + c - 1] };
                            let ue = if c == n - 1 { 0.0 } else { u[lr * n + c + 1] };
                            // One damped Newton step of the nodal equation
                            //   F(u) = 4u − (N+S+E+W) − h²λeᵘ = 0.
                            let eu = uc.exp();
                            let f = 4.0 * uc - (un + us + ue + uw) - h2 * lambda * eu;
                            let fp = 4.0 - h2 * lambda * eu;
                            unew[lr * n + c] = uc - 0.8 * f / fp;
                        }
                    }
                }
                ctx.consume_cpu((todo * n) as u64 * 18);
                self.row += todo;
                if self.row >= self.rows {
                    self.row = 0;
                    // Swap: copy unew's interior back into u.
                    {
                        let (u, unew) =
                            ctx.mem.f64_pair_mut(self.u_base, self.unew_base).expect("two arrays");
                        u[n..(self.rows + 1) * n].copy_from_slice(&unew[n..(self.rows + 1) * n]);
                    }
                    self.sweep += 1;
                    if self.sweep >= self.cfg.sweeps {
                        let u = ctx.mem.f64(self.u_base).expect("mapped");
                        let mut local = 0.0;
                        for r in 1..=self.rows {
                            for c in 0..n {
                                local += u[r * n + c] * u[r * n + c];
                            }
                        }
                        self.rank.start_allreduce(local);
                    } else {
                        self.rank.phase = 2;
                    }
                }
                StepOutcome::Ready
            }
            5 => match self.rank.allreduce(ctx, "bratu") {
                Some(sum) => {
                    self.norm = (sum / (n * n) as f64).sqrt();
                    StepOutcome::Ready
                }
                None => StepOutcome::Blocked,
            },
            6 => self.rank.finish(ctx, "bratu-norm.txt", &format!("{:.9}", self.norm)),
            _ => StepOutcome::Exited(self.exit_code()),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u64(self.cfg.n as u64);
        w.put_f64(self.cfg.lambda);
        w.put_u32(self.cfg.sweeps);
        w.put_u64(self.cfg.rows_per_step as u64);
        self.rank.encode(w);
        w.put_u32(self.sweep);
        w.put_u64(self.row as u64);
        w.put_u64(self.u_base);
        w.put_u64(self.unew_base);
        w.put_u64(self.rows as u64);
        w.put_u64(self.r0 as u64);
        w.put_f64(self.norm);
    }
}

/// Loader for the registry.
pub fn load(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = BratuConfig {
        n: r.get_u64()? as usize,
        lambda: r.get_f64()?,
        sweeps: r.get_u32()?,
        rows_per_step: r.get_u64()? as usize,
    };
    Ok(Box::new(Bratu {
        cfg,
        rank: Rank::decode(r)?,
        sweep: r.get_u32()?,
        row: r.get_u64()? as usize,
        u_base: r.get_u64()?,
        unew_base: r.get_u64()?,
        rows: r.get_u64()? as usize,
        r0: r.get_u64()? as usize,
        norm: r.get_f64()?,
    }))
}
