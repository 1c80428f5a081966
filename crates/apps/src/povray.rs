//! POV-Ray analogue: a CPU-intensive ray tracer farming tiles from a
//! master to PVM-style workers (§6, workload 4).
//!
//! The scene (spheres over a checkered ground plane, one point light,
//! Lambert + specular shading, mirror reflections one bounce deep) is
//! replicated into every worker, so per-worker memory is roughly constant
//! regardless of cluster size — matching the paper's observation that
//! POV-Ray's checkpoint image stays ~10 MB at every node count while the
//! other workloads shrink with `1/N`.
//!
//! Determinism: each tile's pixel sum is independent of which worker
//! renders it, and the master folds tile checksums with addition
//! (commutative), so the final image hash is schedule-independent.

use crate::pvm::{tags, PvmMaster, PvmWorker};
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, StepOutcome};

/// Registry keys.
pub const POV_MASTER_TYPE: &str = "apps.povray.master";
/// Worker program type.
pub const POV_WORKER_TYPE: &str = "apps.povray.worker";

/// Ray-tracing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PovConfig {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Square tile edge.
    pub tile: u32,
    /// Per-worker replicated "scene cache" bytes (constant footprint).
    pub mem_bytes: usize,
}

impl Default for PovConfig {
    fn default() -> Self {
        PovConfig { width: 96, height: 96, tile: 16, mem_bytes: 128 * 1024 }
    }
}

impl Encode for PovConfig {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_u32(self.tile);
        w.put_u64(self.mem_bytes as u64);
    }
}

impl Decode for PovConfig {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PovConfig {
            width: r.get_u32()?,
            height: r.get_u32()?,
            tile: r.get_u32()?,
            mem_bytes: r.get_u64()? as usize,
        })
    }
}

// ---- A tiny ray tracer ----------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct V3(f64, f64, f64);

impl V3 {
    fn add(self, o: V3) -> V3 {
        V3(self.0 + o.0, self.1 + o.1, self.2 + o.2)
    }
    fn sub(self, o: V3) -> V3 {
        V3(self.0 - o.0, self.1 - o.1, self.2 - o.2)
    }
    fn scale(self, k: f64) -> V3 {
        V3(self.0 * k, self.1 * k, self.2 * k)
    }
    fn dot(self, o: V3) -> f64 {
        self.0 * o.0 + self.1 * o.1 + self.2 * o.2
    }
    fn norm(self) -> V3 {
        let l = self.dot(self).sqrt();
        if l == 0.0 {
            self
        } else {
            self.scale(1.0 / l)
        }
    }
}

struct Sphere {
    c: V3,
    r: f64,
    color: V3,
    mirror: f64,
}

fn scene() -> Vec<Sphere> {
    vec![
        Sphere { c: V3(0.0, 1.0, 3.0), r: 1.0, color: V3(0.9, 0.2, 0.2), mirror: 0.4 },
        Sphere { c: V3(-1.6, 0.6, 2.2), r: 0.6, color: V3(0.2, 0.8, 0.3), mirror: 0.2 },
        Sphere { c: V3(1.4, 0.5, 2.0), r: 0.5, color: V3(0.2, 0.3, 0.9), mirror: 0.6 },
        Sphere { c: V3(0.4, 0.3, 1.2), r: 0.3, color: V3(0.9, 0.8, 0.1), mirror: 0.0 },
    ]
}

const LIGHT: V3 = V3(-3.0, 5.0, -1.0);

fn hit_spheres(spheres: &[Sphere], o: V3, d: V3) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (i, s) in spheres.iter().enumerate() {
        let oc = o.sub(s.c);
        let b = oc.dot(d);
        let c = oc.dot(oc) - s.r * s.r;
        let disc = b * b - c;
        if disc > 0.0 {
            let t = -b - disc.sqrt();
            if t > 1e-4 && best.map(|(bt, _)| t < bt).unwrap_or(true) {
                best = Some((t, i));
            }
        }
    }
    best
}

fn trace(spheres: &[Sphere], o: V3, d: V3, depth: u32) -> V3 {
    // Ground plane y = 0 with a checker pattern.
    let plane_t = if d.1 < -1e-6 { -o.1 / d.1 } else { f64::INFINITY };
    match hit_spheres(spheres, o, d) {
        Some((t, i)) if t < plane_t => {
            let s = &spheres[i];
            let p = o.add(d.scale(t));
            let n = p.sub(s.c).norm();
            let l = LIGHT.sub(p).norm();
            let shadow = hit_spheres(spheres, p.add(n.scale(1e-3)), l).is_some();
            let diff = if shadow { 0.05 } else { n.dot(l).max(0.0) };
            let spec = if shadow {
                0.0
            } else {
                let h = l.sub(d).norm();
                n.dot(h).max(0.0).powi(32)
            };
            let mut col = s.color.scale(0.15 + 0.8 * diff).add(V3(spec, spec, spec).scale(0.5));
            if s.mirror > 0.0 && depth > 0 {
                let r = d.sub(n.scale(2.0 * d.dot(n)));
                let refl = trace(spheres, p.add(n.scale(1e-3)), r.norm(), depth - 1);
                col = col.scale(1.0 - s.mirror).add(refl.scale(s.mirror));
            }
            col
        }
        _ if plane_t.is_finite() => {
            let p = o.add(d.scale(plane_t));
            let checker = ((p.0.floor() as i64 + p.2.floor() as i64).rem_euclid(2)) as f64;
            let base = 0.25 + 0.5 * checker;
            let l = LIGHT.sub(p).norm();
            let shadow = hit_spheres(scene().as_slice(), p.add(V3(0.0, 1e-3, 0.0)), l).is_some();
            let k = if shadow { 0.4 } else { 1.0 };
            V3(base * k, base * k, base * k)
        }
        _ => {
            // Sky gradient.
            let t = 0.5 * (d.1 + 1.0);
            V3(0.4, 0.6, 0.9).scale(t).add(V3(1.0, 1.0, 1.0).scale(1.0 - t)).scale(0.6)
        }
    }
}

/// Renders one tile and returns its deterministic checksum.
pub fn render_tile(cfg: &PovConfig, tx: u32, ty: u32) -> u64 {
    let spheres = scene();
    let cam = V3(0.0, 1.2, -3.0);
    let mut sum: u64 = 0;
    let w = cfg.width as f64;
    let h = cfg.height as f64;
    for py in ty * cfg.tile..((ty + 1) * cfg.tile).min(cfg.height) {
        for px in tx * cfg.tile..((tx + 1) * cfg.tile).min(cfg.width) {
            let u = (px as f64 + 0.5) / w * 2.0 - 1.0;
            let v = 1.0 - (py as f64 + 0.5) / h * 2.0;
            let dir = V3(u, v * h / w, 1.5).norm();
            let c = trace(&spheres, cam, dir, 2);
            let q = |x: f64| (x.clamp(0.0, 1.0) * 255.0) as u64;
            sum = sum.wrapping_add(q(c.0) ^ (q(c.1) << 8) ^ (q(c.2) << 16));
            sum = sum.wrapping_mul(0x100_0000_01B3).wrapping_add(1);
        }
    }
    sum
}

/// The schedule-independent image hash of a full render (reference value
/// for tests).
pub fn expected_hash(cfg: &PovConfig) -> u64 {
    let tiles_x = cfg.width.div_ceil(cfg.tile);
    let tiles_y = cfg.height.div_ceil(cfg.tile);
    let mut acc: u64 = 0;
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            acc = acc.wrapping_add(render_tile(cfg, tx, ty));
        }
    }
    acc
}

/// Exit code derived from an image hash.
pub fn exit_code_for(hash: u64) -> i32 {
    (hash % 251) as i32
}

// ---- master program --------------------------------------------------------

/// The POV-Ray master: farms tiles, folds checksums.
pub struct PovMaster {
    cfg: PovConfig,
    pvm: PvmMaster,
    phase: u8,
    next_tile: u32,
    tiles_done: u32,
    acc: u64,
    /// Workers that announced themselves with READY. Enrollment counts
    /// READY messages, not connections: a worker whose first handshake
    /// died mid-freeze retries from a fresh port, leaving a ghost
    /// connection that must not count.
    enrolled: Vec<bool>,
    /// Workers that have been dismissed with DONE (the farm may only shut
    /// down once every enrolled worker has been dismissed, or late READY
    /// messages would wait forever).
    dismissed: Vec<bool>,
    /// The master's own replicated scene cache (real POV-Ray's master
    /// holds the full scene as well; keeps the 1-node image size honest).
    scene_base: u64,
}

impl PovMaster {
    /// Master expecting `workers` workers.
    pub fn new(cfg: PovConfig, workers: u32) -> PovMaster {
        PovMaster {
            cfg,
            pvm: PvmMaster::new(workers),
            phase: 0,
            next_tile: 0,
            tiles_done: 0,
            acc: 0,
            enrolled: Vec::new(),
            dismissed: Vec::new(),
            scene_base: 0,
        }
    }

    fn tile_count(&self) -> u32 {
        self.cfg.width.div_ceil(self.cfg.tile) * self.cfg.height.div_ceil(self.cfg.tile)
    }
}

impl Program for PovMaster {
    fn type_name(&self) -> &'static str {
        POV_MASTER_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                // The master replicates the scene like every worker.
                self.scene_base = ctx.mem.map_bytes("pov.scene", self.cfg.mem_bytes);
                let ws = ctx.mem.bytes_mut(self.scene_base).expect("mapped");
                for (i, b) in ws.iter_mut().enumerate() {
                    *b = (i * 31 % 251) as u8;
                }
                // Set up the listener; enrollment completes in phase 1 as
                // READY messages arrive (connections alone don't count).
                let _ = self.pvm.poll_init(ctx).expect("pov master init");
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                // Demand-driven farming: hand a tile to any worker that is
                // READY or just returned a RESULT.
                self.pvm.progress(ctx).expect("pump");
                let total = self.tile_count();
                // Single-node configuration: no workers — the master
                // renders one tile per step itself.
                if self.pvm.expected() == 0 {
                    if self.next_tile < total {
                        let tiles_x = self.cfg.width.div_ceil(self.cfg.tile);
                        let (tx, ty) = (self.next_tile % tiles_x, self.next_tile / tiles_x);
                        self.acc = self.acc.wrapping_add(render_tile(&self.cfg, tx, ty));
                        ctx.consume_cpu((self.cfg.tile as u64).pow(2) * 400);
                        self.next_tile += 1;
                        self.tiles_done += 1;
                    }
                    if self.tiles_done >= total {
                        self.phase = 2;
                    }
                    return StepOutcome::Ready;
                }
                // Keep accepting: workers may enroll (or re-enroll after a
                // timed-out handshake) at any time during the farm.
                let _ = self.pvm.poll_init(ctx).expect("accept");
                self.enrolled.resize(self.pvm.worker_count(), false);
                self.dismissed.resize(self.pvm.worker_count(), false);
                let mut progressed = false;
                for w in 0..self.pvm.worker_count() {
                    while let Some(msg) = self.pvm.try_recv(w) {
                        progressed = true;
                        self.enrolled[w] = true;
                        match msg.tag {
                            tags::READY => {}
                            tags::RESULT => {
                                let sum = u64::from_le_bytes(
                                    msg.data[8..16].try_into().expect("8 bytes"),
                                );
                                self.acc = self.acc.wrapping_add(sum);
                                self.tiles_done += 1;
                            }
                            other => panic!("master got tag {other}"),
                        }
                        if self.next_tile < total {
                            self.pvm.post(w, tags::TASK, &self.next_tile.to_le_bytes());
                            self.next_tile += 1;
                        } else {
                            self.pvm.post(w, tags::DONE, &[]);
                            self.dismissed[w] = true;
                        }
                    }
                }
                self.pvm.progress(ctx).expect("pump");
                // Shut down only once (a) the farm finished, (b) every
                // expected worker enrolled with READY (ghost connections
                // from retried handshakes don't count), and (c) every
                // enrolled worker was dismissed with DONE — a READY still
                // in flight must be answered, or its worker waits forever.
                let enrolled_n = self.enrolled.iter().filter(|&&e| e).count() as u32;
                let all_dismissed =
                    self.enrolled.iter().zip(&self.dismissed).all(|(&e, &d)| !e || d);
                if self.tiles_done >= total
                    && enrolled_n >= self.pvm.expected()
                    && all_dismissed
                {
                    self.phase = 2;
                    return StepOutcome::Ready;
                }
                if progressed {
                    StepOutcome::Ready
                } else {
                    StepOutcome::Blocked
                }
            }
            2 => {
                self.pvm.progress(ctx).expect("pump");
                if !self.pvm.tx_idle() {
                    return StepOutcome::Blocked;
                }
                let fd = ctx.open("render-hash.txt", true, false).expect("open");
                ctx.file_write(fd, format!("{:016x}", self.acc).as_bytes()).expect("write");
                ctx.close(fd).expect("close");
                self.phase = 3;
                StepOutcome::Ready
            }
            _ => StepOutcome::Exited(exit_code_for(self.acc)),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put(&self.cfg);
        w.put(&self.pvm);
        w.put_u8(self.phase);
        w.put_u32(self.next_tile);
        w.put_u32(self.tiles_done);
        w.put_u64(self.acc);
        w.put(&self.enrolled);
        w.put(&self.dismissed);
        w.put_u64(self.scene_base);
    }
}

/// Master loader.
pub fn load_master(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    Ok(Box::new(PovMaster {
        cfg: r.get()?,
        pvm: r.get()?,
        phase: r.get_u8()?,
        next_tile: r.get_u32()?,
        tiles_done: r.get_u32()?,
        acc: r.get_u64()?,
        enrolled: r.get()?,
        dismissed: r.get()?,
        scene_base: r.get_u64()?,
    }))
}

// ---- worker program ---------------------------------------------------------

/// A POV-Ray worker: renders tiles on demand.
pub struct PovWorker {
    cfg: PovConfig,
    pvm: PvmWorker,
    phase: u8,
    scene_base: u64,
    current: Option<u32>,
    rows_done: u32,
    partial: u64,
    rendered: u32,
}

impl PovWorker {
    /// A worker enrolling at `master_vip`.
    pub fn new(cfg: PovConfig, master_vip: u32) -> PovWorker {
        PovWorker {
            cfg,
            pvm: PvmWorker::new(master_vip),
            phase: 0,
            scene_base: 0,
            current: None,
            rows_done: 0,
            partial: 0,
            rendered: 0,
        }
    }
}

impl Program for PovWorker {
    fn type_name(&self) -> &'static str {
        POV_WORKER_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                // Replicated scene cache: constant per-worker footprint.
                self.scene_base = ctx.mem.map_bytes("pov.scene", self.cfg.mem_bytes);
                let ws = ctx.mem.bytes_mut(self.scene_base).expect("mapped");
                for (i, b) in ws.iter_mut().enumerate() {
                    *b = (i * 31 % 251) as u8;
                }
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => match self.pvm.poll_init(ctx) {
                Ok(true) => {
                    self.pvm.post(tags::READY, &[]);
                    let _ = self.pvm.progress(ctx);
                    self.phase = 2;
                    StepOutcome::Ready
                }
                Ok(false) => StepOutcome::Blocked,
                Err(e) => panic!("pov worker init: {e}"),
            },
            2 => {
                self.pvm.progress(ctx).expect("pump");
                if self.current.is_none() {
                    match self.pvm.try_recv() {
                        Some(msg) if msg.tag == tags::TASK => {
                            let tile =
                                u32::from_le_bytes(msg.data[0..4].try_into().expect("4 bytes"));
                            self.current = Some(tile);
                            self.rows_done = 0;
                            self.partial = 0;
                        }
                        Some(msg) if msg.tag == tags::DONE => {
                            self.phase = 3;
                            return StepOutcome::Ready;
                        }
                        Some(msg) => panic!("worker got tag {}", msg.tag),
                        None => return StepOutcome::Blocked,
                    }
                }
                // Render the whole tile in one step (tiles are the paper's
                // unit of work; real POV-Ray also renders block-wise).
                let tile = self.current.take().expect("task assigned");
                let tiles_x = self.cfg.width.div_ceil(self.cfg.tile);
                let (tx, ty) = (tile % tiles_x, tile / tiles_x);
                let sum = render_tile(&self.cfg, tx, ty);
                ctx.consume_cpu((self.cfg.tile as u64).pow(2) * 400);
                self.rendered += 1;
                let mut out = Vec::with_capacity(16);
                out.extend((tile as u64).to_le_bytes());
                out.extend(sum.to_le_bytes());
                self.pvm.post(tags::RESULT, &out);
                self.pvm.progress(ctx).expect("pump");
                StepOutcome::Ready
            }
            _ => {
                self.pvm.progress(ctx).expect("pump");
                if !self.pvm.tx_idle() {
                    return StepOutcome::Blocked;
                }
                StepOutcome::Exited((self.rendered % 251) as i32)
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put(&self.cfg);
        w.put(&self.pvm);
        w.put_u8(self.phase);
        w.put_u64(self.scene_base);
        w.put(&self.current);
        w.put_u32(self.rows_done);
        w.put_u64(self.partial);
        w.put_u32(self.rendered);
    }
}

/// Worker loader.
pub fn load_worker(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    Ok(Box::new(PovWorker {
        cfg: r.get()?,
        pvm: r.get()?,
        phase: r.get_u8()?,
        scene_base: r.get_u64()?,
        current: r.get()?,
        rows_done: r.get_u32()?,
        partial: r.get_u64()?,
        rendered: r.get_u32()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic() {
        let cfg = PovConfig { width: 32, height: 32, tile: 16, mem_bytes: 1024 };
        assert_eq!(render_tile(&cfg, 0, 0), render_tile(&cfg, 0, 0));
        assert_ne!(render_tile(&cfg, 0, 0), render_tile(&cfg, 1, 1));
    }

    #[test]
    fn expected_hash_covers_all_tiles() {
        let cfg = PovConfig { width: 32, height: 32, tile: 16, mem_bytes: 1024 };
        let h1 = expected_hash(&cfg);
        // Manually folding in a different order gives the same hash.
        let mut acc: u64 = 0;
        for tx in (0..2).rev() {
            for ty in (0..2).rev() {
                acc = acc.wrapping_add(render_tile(&cfg, tx, ty));
            }
        }
        assert_eq!(acc, h1, "hash is schedule independent");
    }

    #[test]
    fn image_has_structure() {
        // Sanity: the scene renders something other than a constant field.
        let cfg = PovConfig { width: 64, height: 64, tile: 8, mem_bytes: 1024 };
        let sums: std::collections::HashSet<u64> =
            (0..8).map(|i| render_tile(&cfg, i % 8, i / 8)).collect();
        assert!(sums.len() > 4, "tiles differ");
    }
}
