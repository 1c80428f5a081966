//! # zapc-store — the durable checkpoint image store
//!
//! Checkpoints are only useful if they survive the failure they are meant
//! to protect against. This crate is ZapC's durable store: a directory
//! tree on the simulated file system ([`zapc_sim::SimFs`]) that holds
//! committed checkpoint images and the manifests that make them
//! *reachable*, written with the classic crash-consistency discipline:
//!
//! 1. **write to a temp file** under `<root>/tmp/`,
//! 2. **fsync** it (advance the durability watermark),
//! 3. **atomically rename** it to its final path.
//!
//! A power loss at any instant therefore leaves either the complete old
//! state or the complete new state — never a half-written file that parses.
//! The store is deliberately ignorant of checkpoint *semantics*: it moves
//! bytes and verifies digests. What makes a set of images a committed
//! checkpoint is one level up — the [`zapc_proto::Manifest`] whose rename
//! into `<root>/manifests/<id>` is the commit point (see
//! `crates/zapc/src/commit.rs`).
//!
//! ## Layout
//!
//! ```text
//! <root>/tmp/<seq>-<name>         in-flight writes (crash orphans; GC fodder)
//! <root>/images/<ckpt>/<pod>      staged/committed per-pod recipes
//! <root>/manifests/<ckpt>         commit records (one per checkpoint)
//! <root>/chunks/<digest>-<len>    content-addressed chunks
//! ```
//!
//! References handed out by the store (`images/7/w0`) are *store-relative*
//! so manifests stay valid if the store root moves.
//!
//! ## One format: a recipe over chunks
//!
//! An image path holds a [`zapc_proto::ChunkIndex`] *recipe*: the image's
//! length, its digest, and the chunks whose raw bytes concatenate to it,
//! each stored once under `chunks/<digest>-<len>` and keyed by the
//! [`digest64`] of its raw bytes. By default the whole image is one
//! uncompressed chunk. With [`ImageStore::set_chunking`] `put_image` splits
//! it into content-defined chunks ([`chunk`]), optionally [`compress`]ed,
//! and identical chunks across pods and checkpoints are stored once.
//!
//! A chunked put runs the Gear scan only where the image changed: at each
//! chunk start it first tries the chunk after the last match in the pod's
//! previous recipe, a dedup hit without a scan if its bytes hash to its key
//! and equal the resident's. A cut depends only on the bytes from the chunk
//! start to the cut, so a chunk equal to a non-final chunk of the old
//! recipe ends where a scan would end it: the recipe is [`chunk::split`]'s.
//!
//! The image digest — the one a manifest records — is [`recipe_digest`],
//! the [`digest64`] of the recipe's `(digest, len)` list, so a put hashes
//! each image byte for its chunk key only (twice where a chunk prediction
//! fails), on either path. It pins the bytes
//! through the list: each chunk's bytes are pinned by its key, and the
//! keys, their order and their count are pinned by the manifest.
//!
//! Every reader has one path. [`ImageStore::fetch_verified`] recomputes the
//! recipe's digest, checks it against the manifest's, and reassembles the
//! recipe, verifying every chunk's digest as it decodes it, so everything
//! above the store — manifests, recovery, restart — is oblivious to
//! chunking. Chunks are keyed by the *(digest, length)* pair and
//! byte-compared on a dedup hit, so a digest collision is a typed
//! [`StoreError::DigestCollision`], never silent aliasing. Liveness is
//! mark-and-sweep: [`ImageStore::gc`] marks every chunk referenced by a
//! retained recipe (plus anything a registered in-flight checkpoint staged
//! — see [`ImageStore::begin_stage`]) and sweeps the rest.
//!
//! ## Reachability is the commit discipline
//!
//! `put_image` renames an image to its final path as soon as it is staged,
//! but a staged image is not yet part of any checkpoint: nothing references
//! it until a manifest naming it commits. Recovery treats every image not
//! reachable from a retained manifest as garbage. This avoids a separate
//! promotion step — and the extra crash window it would add.
//!
//! ## Fault sites
//!
//! The store consults the cluster [`FaultPlan`] at three sites:
//! `store.fsync` (the fsync is silently lost — a later crash tears the
//! file), `store.manifest` (manifest bytes are corrupted/truncated on
//! write — a *torn manifest*), and `store.pre_rename` (the writer dies
//! before the rename, surfacing as [`StoreError::Crashed`] and leaving a
//! tmp orphan). Crashes here are *returned*, not thrown: the caller decides
//! whether the writer was an Agent (abort the checkpoint) or the Manager
//! (the whole commit dies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod compress;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zapc_faults::{FaultAction, FaultPlan};
use zapc_obs::Observer;
use zapc_proto::crc::digest64;
use zapc_proto::{ChunkIndex, ChunkRef, DecodeError, Manifest, ManifestEntry};
use zapc_sim::{Errno, SimFs};

pub use chunk::ChunkParams;

/// Errors surfaced by the image store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying file-system error (missing file, …).
    Io(Errno),
    /// A manifest failed to parse or validate.
    Decode(DecodeError),
    /// Image bytes did not match the digest recorded at commit time.
    DigestMismatch {
        /// Store-relative reference of the offending image.
        image_ref: String,
        /// Digest recorded in the manifest.
        want: u64,
        /// Digest of the bytes actually read.
        got: u64,
    },
    /// A manifest's recorded checkpoint id disagrees with its path.
    IdMismatch {
        /// Id from the file path.
        path_id: u64,
        /// Id recorded inside the manifest.
        recorded: u64,
    },
    /// An injected fault killed the writer mid-operation. The durable
    /// state is whatever the discipline guarantees at that point: a tmp
    /// orphan at worst, never a torn final file that validates.
    Crashed {
        /// The fault site that fired.
        site: &'static str,
    },
    /// A manifest commit carried a Manager epoch older than the store's
    /// fencing token: a newer Manager has already recovered, so this
    /// writer is a stale incarnation and its commit must lose.
    Fenced {
        /// Epoch the stale Manager stamped on the manifest.
        epoch: u64,
        /// The store's current fencing token.
        fence: u64,
    },
    /// Two different byte sequences of the same length hashed to the same
    /// chunk digest. Dedup byte-compares before dropping a write, so a
    /// collision is refused loudly instead of silently aliasing one
    /// pod's memory into another's restore.
    DigestCollision {
        /// The colliding digest.
        digest: u64,
        /// Length of both chunks.
        len: u64,
    },
    /// A chunk referenced by a recipe is absent from the store.
    ChunkMissing {
        /// Digest half of the chunk key.
        digest: u64,
        /// Length half of the chunk key.
        len: u64,
    },
    /// A stored chunk file failed to decode (bad flag byte, truncated or
    /// undecompressible payload, wrong raw length).
    ChunkCorrupt {
        /// Digest half of the chunk key.
        digest: u64,
        /// Length half of the chunk key.
        len: u64,
    },
    /// A stored chunk decoded but its bytes no longer hash to its key —
    /// bit rot or a torn write that still parses. Refused on every open.
    ChunkDigestMismatch {
        /// Digest the chunk was stored under.
        digest: u64,
        /// Length half of the chunk key.
        len: u64,
        /// Digest of the bytes actually read.
        got: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e:?}"),
            StoreError::Decode(e) => write!(f, "store decode error: {e}"),
            StoreError::DigestMismatch { image_ref, want, got } => write!(
                f,
                "digest mismatch for {image_ref}: manifest says {want:#018x}, bytes hash to {got:#018x}"
            ),
            StoreError::IdMismatch { path_id, recorded } => {
                write!(f, "manifest at id {path_id} records id {recorded}")
            }
            StoreError::Crashed { site } => write!(f, "store writer crashed at {site}"),
            StoreError::Fenced { epoch, fence } => write!(
                f,
                "manifest commit fenced: manager epoch {epoch} is older than fencing token {fence}"
            ),
            StoreError::DigestCollision { digest, len } => write!(
                f,
                "chunk digest collision at {digest:#018x} (len {len}): differing bytes hash alike"
            ),
            StoreError::ChunkMissing { digest, len } => {
                write!(f, "chunk {digest:#018x}-{len} referenced by a recipe is missing")
            }
            StoreError::ChunkCorrupt { digest, len } => {
                write!(f, "chunk {digest:#018x}-{len} is corrupt (undecodable)")
            }
            StoreError::ChunkDigestMismatch { digest, len, got } => write!(
                f,
                "chunk {digest:#018x}-{len} bytes hash to {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<Errno> for StoreError {
    fn from(e: Errno) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> StoreError {
        StoreError::Decode(e)
    }
}

/// Convenience alias for store results.
pub type StoreResult<T> = Result<T, StoreError>;

/// What a [`ImageStore::gc`] pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Unreferenced image files deleted.
    pub images_removed: usize,
    /// Abandoned tmp files deleted.
    pub tmp_removed: usize,
    /// Unreferenced content-addressed chunks deleted.
    pub chunks_removed: usize,
}

impl GcReport {
    /// Total files removed.
    pub fn total(&self) -> usize {
        self.images_removed + self.tmp_removed + self.chunks_removed
    }
}

/// The image digest of a recipe over `chunks`: the [`digest64`] of their
/// `(digest, len)` list, each pair as two little-endian `u64`s, in image
/// order. What [`ImageStore::put_image`] returns for a manifest to record,
/// and what every read recomputes from the recipe it finds.
pub fn recipe_digest(chunks: &[ChunkRef]) -> u64 {
    let mut list = Vec::with_capacity(16 * chunks.len());
    for c in chunks {
        list.extend_from_slice(&c.digest.to_le_bytes());
        list.extend_from_slice(&c.len.to_le_bytes());
    }
    digest64(&list)
}

/// How `put_image` splits an image into chunks when it is not one chunk
/// (see [`ImageStore::set_chunking`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkingConfig {
    /// Compress chunks on the staging path (transparently decompressed on
    /// open). Compression is advisory per chunk: a chunk that does not
    /// shrink is stored raw.
    pub compress: bool,
    /// Content-defined chunking parameters.
    pub params: ChunkParams,
}

impl Default for ChunkingConfig {
    fn default() -> ChunkingConfig {
        ChunkingConfig { compress: true, params: ChunkParams::default() }
    }
}

/// What the chunk resident under a key holds against the bytes staged: the
/// same bytes, other bytes of the same digest, a damaged file, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resident {
    Hit,
    Collision,
    Damaged,
    Missing,
}

/// One registered in-flight checkpoint: its Manager epoch (for the fence
/// guard) and every chunk key it has staged or dedup-hit so far. GC
/// grace-lists both the checkpoint's `images/<id>/` prefix and these
/// chunks until [`ImageStore::end_stage`] or a newer fence retires it.
#[derive(Debug, Default)]
struct InFlight {
    epoch: u64,
    chunks: HashSet<(u64, u64)>,
}

/// The durable image store. Cheap to share (`Arc` it once per cluster).
pub struct ImageStore {
    fs: Arc<SimFs>,
    root: String,
    faults: Arc<FaultPlan>,
    obs: Observer,
    tmp_seq: AtomicU64,
    /// Fencing token: the highest Manager epoch that has recovered against
    /// this store. [`ImageStore::commit_manifest`] refuses manifests from
    /// older epochs, so a stale Manager on the wrong side of a partition
    /// deterministically loses the commit race (the shared-storage fencing
    /// idiom — the token lives with the data the race is over).
    fence: AtomicU64,
    /// How `put_image` chunks; `None` stores each image as one chunk (the
    /// default).
    chunking: Mutex<Option<ChunkingConfig>>,
    /// In-flight checkpoint registry: staged-but-uncommitted work that GC
    /// must grace-list (keyed by checkpoint id).
    inflight: Mutex<HashMap<u64, InFlight>>,
    /// Per pod, the last recipe a chunked `put_image` staged and the
    /// parameters it was split under: the next put's chunk predictions.
    last_recipes: Mutex<HashMap<String, (ChunkParams, Vec<ChunkRef>)>>,
}

impl ImageStore {
    /// Opens (or creates — the VFS has no mkdir) a store rooted at `root`.
    pub fn new(fs: Arc<SimFs>, root: &str, faults: Arc<FaultPlan>, obs: Observer) -> ImageStore {
        ImageStore {
            fs,
            root: root.trim_end_matches('/').to_string(),
            faults,
            obs,
            tmp_seq: AtomicU64::new(0),
            fence: AtomicU64::new(0),
            chunking: Mutex::new(None),
            inflight: Mutex::new(HashMap::new()),
            last_recipes: Mutex::new(HashMap::new()),
        }
    }

    /// Chooses how subsequent `put_image` calls chunk an image: `None`
    /// (the default) stores it as one uncompressed chunk; a
    /// [`ChunkingConfig`] splits it into content-defined, optionally
    /// compressed chunks. Either way the image path holds a recipe, so
    /// images stored under any setting stay readable.
    pub fn set_chunking(&self, cfg: Option<ChunkingConfig>) {
        *self.chunking.lock().unwrap() = cfg;
    }

    /// Raises the fencing token to `epoch` (monotonic; a lower value is
    /// ignored). Called by Manager recovery: every manifest committed by
    /// an epoch older than the newest recovery is stale. In-flight
    /// registrations from now-fenced epochs lose their GC grace at the
    /// same moment — a fenced loser's staged litter is fair game.
    pub fn set_fence(&self, epoch: u64) {
        self.fence.fetch_max(epoch, Ordering::SeqCst);
        let fence = self.fence();
        self.inflight.lock().unwrap().retain(|_, f| f.epoch >= fence);
    }

    /// Registers checkpoint `ckpt` (staged by a Manager at `epoch`) as in
    /// flight: until [`ImageStore::end_stage`] retires it, [`ImageStore::gc`]
    /// and [`ImageStore::audit`] treat its staged images and chunks as
    /// live. Without this, a concurrent GC (e.g. a recovery racing the
    /// commit) would reap the staged files as orphans *before* the
    /// manifest rename lands, tearing a checkpoint that was about to
    /// commit. The grace dies with the fence: once a newer epoch recovers,
    /// the registration is pruned and the litter is collectable.
    pub fn begin_stage(&self, ckpt: u64, epoch: u64) {
        let mut inflight = self.inflight.lock().unwrap();
        let entry = inflight.entry(ckpt).or_default();
        if epoch >= entry.epoch {
            entry.epoch = epoch;
        }
    }

    /// Retires an in-flight registration. The epoch must match the
    /// registering epoch: a fenced loser calling `end_stage` after a newer
    /// Manager re-registered the same checkpoint id must not strip the
    /// winner's grace.
    pub fn end_stage(&self, ckpt: u64, epoch: u64) {
        let mut inflight = self.inflight.lock().unwrap();
        if inflight.get(&ckpt).is_some_and(|f| f.epoch == epoch) {
            inflight.remove(&ckpt);
        }
    }

    fn note_staged_chunk(&self, ckpt: u64, key: (u64, u64)) {
        let mut inflight = self.inflight.lock().unwrap();
        if let Some(f) = inflight.get_mut(&ckpt) {
            f.chunks.insert(key);
        }
    }

    /// The current fencing token.
    pub fn fence(&self) -> u64 {
        self.fence.load(Ordering::SeqCst)
    }

    /// The store root path.
    pub fn root(&self) -> &str {
        &self.root
    }

    fn abs(&self, rel: &str) -> String {
        format!("{}/{}", self.root, rel)
    }

    fn rel<'a>(&self, abs: &'a str) -> &'a str {
        abs.strip_prefix(&self.root).map(|s| s.trim_start_matches('/')).unwrap_or(abs)
    }

    /// The store-relative reference an image of `pod` in checkpoint `ckpt`
    /// commits under.
    pub fn image_ref(ckpt: u64, pod: &str) -> String {
        format!("images/{ckpt}/{pod}")
    }

    /// The store-relative reference of checkpoint `ckpt`'s manifest.
    pub fn manifest_ref(ckpt: u64) -> String {
        format!("manifests/{ckpt}")
    }

    /// The store-relative reference a chunk keyed by `(digest, len)` lives
    /// under. The length is part of the key: colliding digests of
    /// *different* lengths never even meet.
    pub fn chunk_ref(digest: u64, len: u64) -> String {
        format!("chunks/{digest:016x}-{len}")
    }

    /// Parses a store-relative chunk reference back into its key.
    fn parse_chunk_ref(rel: &str) -> Option<(u64, u64)> {
        let name = rel.strip_prefix("chunks/")?;
        let (d, l) = name.split_once('-')?;
        Some((u64::from_str_radix(d, 16).ok()?, l.parse().ok()?))
    }

    /// Durably writes the concatenation of `parts` to `final_rel` via tmp +
    /// fsync + rename; the parts are copied once, straight into the file.
    /// `site_key` scopes the fault sites consulted along the way. When
    /// `fence_epoch` is given, the fencing token is re-checked right
    /// before the rename: a recovery that raced past the writer's entry
    /// check still fences it out, leaving only a tmp orphan for GC.
    fn put_durable(
        &self,
        final_rel: &str,
        parts: &[&[u8]],
        site_key: &str,
        fence_epoch: Option<u64>,
    ) -> StoreResult<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let name = final_rel.rsplit('/').next().unwrap_or(final_rel);
        let tmp = self.abs(&format!("tmp/{seq}-{name}"));

        // Torn-manifest modeling: mangle *before* the write so the damaged
        // bytes are what becomes durable. Only a manifest write consults the
        // site, so only a manifest is ever mangled or copied here.
        let tear = if final_rel.starts_with("manifests/") {
            self.faults.hit_and_sleep("store.manifest", site_key)
        } else {
            None
        };
        match tear {
            Some(a) => {
                let mut torn = parts.concat();
                FaultPlan::mangle(a, &mut torn);
                self.fs.write(&tmp, &torn);
            }
            _ => {
                self.fs.write(&tmp, &[]);
                for part in parts {
                    self.fs.append(&tmp, part);
                }
            }
        }
        match self.faults.hit_and_sleep("store.fsync", site_key) {
            Some(FaultAction::Drop) => {
                // The fsync is silently lost: the rename still happens, but
                // the file's durability watermark stays at zero — a crash
                // before the next sync makes the final file vanish.
            }
            _ => self.fs.fsync(&tmp)?,
        }
        if let Some(FaultAction::Crash) = self.faults.hit_and_sleep("store.pre_rename", site_key) {
            // Writer dies between fsync and rename: the tmp file is the
            // only evidence, and GC will reap it.
            return Err(StoreError::Crashed { site: "store.pre_rename" });
        }
        if let Some(epoch) = fence_epoch {
            let fence = self.fence();
            if epoch < fence {
                return Err(StoreError::Fenced { epoch, fence });
            }
        }
        self.fs.rename(&tmp, &self.abs(final_rel))?;
        Ok(())
    }

    /// Stages one pod image into checkpoint `ckpt`. Returns the
    /// store-relative reference and the image digest ([`recipe_digest`])
    /// to record in the manifest. The image is durable but *unreachable*
    /// until a manifest naming it commits.
    ///
    /// The chunks are staged first, then the [`ChunkIndex`] recipe at the
    /// image path. Without chunking the image is one uncompressed chunk
    /// keyed by `digest64(bytes)`; an empty image gets a recipe with no
    /// chunks. Either way each byte is hashed once, by its chunk key, except
    /// where a chunk prediction fails: a chunked put predicts each chunk
    /// from the pod's last recipe and runs the Gear scan only where the
    /// image changed, and still stages [`chunk::split`]'s chunks (see the
    /// module docs).
    pub fn put_image(&self, ckpt: u64, pod: &str, bytes: &[u8]) -> StoreResult<(String, u64)> {
        let span = self.obs.span("store", "store.put");
        let rel = Self::image_ref(ckpt, pod);
        let chunking = *self.chunking.lock().unwrap();
        let chunks = match chunking {
            None if bytes.is_empty() => Vec::new(),
            None => vec![self.put_chunk_digested(ckpt, bytes, false, pod, digest64)?],
            Some(cfg) => self.put_chunked(ckpt, pod, bytes, cfg)?,
        };
        let digest = recipe_digest(&chunks);
        let ix = ChunkIndex { logical_len: bytes.len() as u64, digest, chunks };
        self.put_durable(&rel, &[&ix.to_bytes()], pod, None)?;
        self.obs.counter("store", "store.put_bytes", bytes.len() as u64);
        span.end();
        Ok((rel, digest))
    }

    /// Stages [`chunk::split`]'s chunks of `bytes`. At each chunk start the
    /// chunk after the last match in `pod`'s old recipe is taken if it fits,
    /// is not the old last chunk unless it ends `bytes` too, hashes to its
    /// key here, and is a dedup hit. Otherwise one chunk is scanned and
    /// staged, and the chunk after its place in the old recipe is next.
    fn put_chunked(
        &self,
        ckpt: u64,
        pod: &str,
        bytes: &[u8],
        cfg: ChunkingConfig,
    ) -> StoreResult<Vec<ChunkRef>> {
        let old = match self.last_recipes.lock().unwrap().remove(pod) {
            Some((params, old)) if params == cfg.params => old,
            _ => Vec::new(),
        };
        let after: HashMap<ChunkRef, usize> =
            old.iter().enumerate().rev().map(|(i, c)| (*c, i + 1)).collect();
        let (mut chunks, mut at, mut next) = (Vec::new(), 0, 0);
        while at < bytes.len() {
            let rest = &bytes[at..];
            let predicted = old.get(next).copied().filter(|c| {
                let len = c.len as usize;
                len <= rest.len()
                    && (next + 1 < old.len() || len == rest.len())
                    && digest64(&rest[..len]) == c.digest
            });
            let resident = |c: ChunkRef| self.resident(ckpt, &rest[..c.len as usize], c, digest64);
            let cref = match predicted {
                Some(c) if resident(c)? == Resident::Hit => {
                    self.obs.counter("store", "store.chunks_predicted", 1);
                    next += 1;
                    c
                }
                _ => {
                    let raw = &rest[..chunk::first_chunk_len(rest, &cfg.params)];
                    let c = self.put_chunk_digested(ckpt, raw, cfg.compress, pod, digest64)?;
                    next = after.get(&c).copied().unwrap_or(old.len());
                    c
                }
            };
            at += cref.len as usize;
            chunks.push(cref);
        }
        self.last_recipes.lock().unwrap().insert(pod.to_string(), (cfg.params, chunks.clone()));
        Ok(chunks)
    }

    /// Compares the chunk resident under `c` with `raw`, where it lies: a
    /// raw one in place, a compressed one after one decompression. On a
    /// [`Resident::Hit`] the resident is re-fsynced, so a committed
    /// manifest can never end up referencing a chunk whose original fsync
    /// was dropped by a fault, and it is grace-listed for `ckpt`.
    fn resident(
        &self,
        ckpt: u64,
        raw: &[u8],
        c: ChunkRef,
        digest_fn: fn(&[u8]) -> u64,
    ) -> StoreResult<Resident> {
        let abs = self.abs(&Self::chunk_ref(c.digest, c.len));
        let resident = self.fs.read_with(&abs, |stored| {
            let mut unpacked = Vec::new();
            let existing: &[u8] = match stored.split_first() {
                Some((0, payload)) if payload.len() == raw.len() => payload,
                Some((1, payload))
                    if compress::decompress_into(payload, raw.len(), &mut unpacked) =>
                {
                    &unpacked
                }
                _ => return Resident::Damaged,
            };
            if existing == raw {
                Resident::Hit
            } else if digest_fn(existing) == c.digest {
                Resident::Collision
            } else {
                Resident::Damaged
            }
        });
        let resident = resident.unwrap_or(Resident::Missing);
        if resident == Resident::Hit {
            self.fs.fsync(&abs)?;
            self.note_staged_chunk(ckpt, (c.digest, c.len));
            self.obs.counter("store", "store.chunks_hit", 1);
            self.obs.counter("store", "store.dedup_saved_bytes", c.len);
        }
        Ok(resident)
    }

    /// Stages one chunk, keyed by `(digest_fn(raw), raw.len())`, with the
    /// full dedup discipline:
    ///
    /// * **hit** — a chunk already exists under the key and its decoded
    ///   bytes equal `raw`: the write is elided. The existing file is
    ///   re-fsynced so a committed manifest can never end up referencing a
    ///   chunk whose original fsync was dropped by a fault.
    /// * **collision** — the existing bytes differ from `raw` but still
    ///   hash to the key digest: [`StoreError::DigestCollision`]. Dropping
    ///   the write here would silently alias two different chunks.
    /// * **torn/rotted** — the existing file fails to decode or no longer
    ///   hashes to its key (e.g. a half-written file left by power loss):
    ///   it is unlinked and the chunk is staged fresh, so damage is never
    ///   counted as a dedup hit.
    ///
    /// `digest_fn` is a seam for the collision path: `put_image` passes
    /// [`digest64`]; tests inject a colliding function because crafting
    /// real equal-length collisions is out of reach.
    pub fn put_chunk_digested(
        &self,
        ckpt: u64,
        raw: &[u8],
        compress: bool,
        site_key: &str,
        digest_fn: fn(&[u8]) -> u64,
    ) -> StoreResult<ChunkRef> {
        let digest = digest_fn(raw);
        let len = raw.len() as u64;
        let cref = ChunkRef { digest, len };
        let rel = Self::chunk_ref(digest, len);
        match self.resident(ckpt, raw, cref, digest_fn)? {
            Resident::Hit => return Ok(cref),
            Resident::Collision => return Err(StoreError::DigestCollision { digest, len }),
            // Half-written or bit-rotted resident: evict and re-stage
            // rather than dedup against damage.
            Resident::Damaged => {
                let _ = self.fs.unlink(&self.abs(&rel));
            }
            Resident::Missing => {}
        }
        let packed = compress.then(|| compress::compress(raw)).filter(|p| p.len() < raw.len());
        let (flag, payload): (u8, &[u8]) = match &packed {
            Some(p) => (1, p),
            None => (0, raw),
        };
        let stored_len = payload.len() as u64 + 1;
        self.put_durable(&rel, &[&[flag], payload], site_key, None)?;
        self.note_staged_chunk(ckpt, (digest, len));
        self.obs.counter("store", "store.chunks_new", 1);
        self.obs.counter("store", "store.chunk_stored_bytes", stored_len);
        Ok(cref)
    }

    /// Decodes a stored chunk file (`[flag][payload]`), appending its raw
    /// bytes to `out`. Returns `false` on any malformation.
    fn decode_chunk_into(stored: &[u8], raw_len: usize, out: &mut Vec<u8>) -> bool {
        match stored.split_first() {
            Some((0, payload)) if payload.len() == raw_len => {
                out.extend_from_slice(payload);
                true
            }
            Some((1, payload)) => compress::decompress_into(payload, raw_len, out),
            _ => false,
        }
    }

    /// Reads one chunk by key, decodes it onto the end of `out` and
    /// verifies it there: missing, undecodable, and wrong-digest chunks are
    /// distinct typed errors. Every image read goes through here — a chunk
    /// is *never* consumed unverified.
    fn read_chunk_into(&self, cref: ChunkRef, out: &mut Vec<u8>) -> StoreResult<()> {
        let (digest, len) = (cref.digest, cref.len);
        let start = out.len();
        let path = self.abs(&Self::chunk_ref(digest, len));
        match self.fs.read_with(&path, |file| Self::decode_chunk_into(file, len as usize, out)) {
            Ok(true) => {}
            Ok(false) => return Err(StoreError::ChunkCorrupt { digest, len }),
            Err(Errno::ENOENT) => return Err(StoreError::ChunkMissing { digest, len }),
            Err(e) => return Err(StoreError::Io(e)),
        }
        let got = digest64(&out[start..]);
        if got != digest {
            return Err(StoreError::ChunkDigestMismatch { digest, len, got });
        }
        Ok(())
    }

    /// Durably publishes a manifest. **The rename inside this call is the
    /// checkpoint's commit point**: before it the checkpoint does not
    /// exist, after it the checkpoint is fully recoverable. A manifest
    /// whose recorded epoch is older than the fencing token is refused
    /// with [`StoreError::Fenced`] — the token is re-checked immediately
    /// before the rename so a recovery that lands while the manifest
    /// bytes are being written still wins.
    pub fn commit_manifest(&self, m: &Manifest) -> StoreResult<String> {
        let fence = self.fence();
        if m.epoch < fence {
            return Err(StoreError::Fenced { epoch: m.epoch, fence });
        }
        let span = self.obs.span("store", "store.commit");
        let rel = Self::manifest_ref(m.ckpt_id);
        self.put_durable(&rel, &[&m.to_bytes()], &m.ckpt_id.to_string(), Some(m.epoch))?;
        self.obs.counter("store", "store.commits", 1);
        span.end();
        Ok(rel)
    }

    /// Reads and validates checkpoint `ckpt`'s manifest. A torn, corrupt,
    /// or mis-filed manifest is an error — recovery treats it as "this
    /// checkpoint never committed".
    pub fn manifest(&self, ckpt: u64) -> StoreResult<Manifest> {
        let bytes = self.fs.read(&self.abs(&Self::manifest_ref(ckpt)))?;
        let m = Manifest::from_bytes(&bytes)?;
        if m.ckpt_id != ckpt {
            return Err(StoreError::IdMismatch { path_id: ckpt, recorded: m.ckpt_id });
        }
        Ok(m)
    }

    /// The recipe stored at `image_ref`: parsed and structurally validated
    /// (record check, chunk lengths summing to the image length), chunks unread.
    pub fn recipe(&self, image_ref: &str) -> StoreResult<ChunkIndex> {
        Ok(ChunkIndex::from_bytes(&self.fs.read(&self.abs(image_ref))?)?)
    }

    /// Reads an image and verifies it against the digest recorded in the
    /// committed manifest. Every restore path uses this: a partial or
    /// bit-rotted image is refused, never consumed.
    ///
    /// The recipe pins its image: the digest it records and the
    /// [`recipe_digest`] recomputed from its chunk list must both be the
    /// one the manifest recorded, its chunk lengths sum to its logical
    /// length, and every chunk is checked against its own digest as it is
    /// decoded into place. So the image is hashed exactly once, by its
    /// chunks, and a recipe that reorders, drops or swaps a chunk ref is
    /// refused even when its record check is valid.
    pub fn fetch_verified(&self, image_ref: &str, want: u64) -> StoreResult<Vec<u8>> {
        let ix = self.recipe(image_ref)?;
        let got = Self::pinned_digest(&ix, want);
        if got != want {
            return Err(StoreError::DigestMismatch { image_ref: image_ref.to_string(), want, got });
        }
        let mut out =
            Vec::with_capacity((ix.logical_len as usize).min(zapc_proto::MAX_PREALLOC_BYTES));
        for c in &ix.chunks {
            self.read_chunk_into(*c, &mut out)?;
        }
        Ok(out)
    }

    /// The digest that stands against a manifest's `want` for recipe `ix`:
    /// its recorded digest if that differs from `want`, else the digest
    /// recomputed from its chunk list.
    fn pinned_digest(ix: &ChunkIndex, want: u64) -> u64 {
        if ix.digest != want {
            ix.digest
        } else {
            recipe_digest(&ix.chunks)
        }
    }

    /// Whether a manifest entry's image is whole, answered from metadata
    /// alone: its recipe parses (its record is checked), pins the recorded
    /// length and digest (recorded and recomputed from its chunk list), and
    /// names only chunks that exist. No chunk byte is read. Under tmp →
    /// fsync → rename a torn write is a missing file, which this sees — a
    /// crash truncates a file to its fsync watermark, which the discipline
    /// leaves at the full length or at zero. Bit rot
    /// inside a whole file, a short chunk included, is left to the read
    /// that consumes it ([`ImageStore::fetch_verified`]).
    pub fn entry_is_whole(&self, entry: &ManifestEntry) -> bool {
        self.recipe(&entry.image_ref).is_ok_and(|ix| {
            ix.logical_len == entry.bytes
                && Self::pinned_digest(&ix, entry.digest) == entry.digest
                && ix
                    .chunks
                    .iter()
                    .all(|c| self.fs.exists(&self.abs(&Self::chunk_ref(c.digest, c.len))))
        })
    }

    /// Ids of every manifest present (committed checkpoints), ascending.
    pub fn manifest_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .fs
            .list(&self.abs("manifests"))
            .iter()
            .filter_map(|p| self.rel(p).strip_prefix("manifests/")?.parse().ok())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Store-relative references of every image file present (reachable or
    /// not), sorted.
    pub fn image_refs(&self) -> Vec<String> {
        let mut refs: Vec<String> =
            self.fs.list(&self.abs("images")).iter().map(|p| self.rel(p).to_string()).collect();
        refs.sort_unstable();
        refs
    }

    /// Absolute paths of abandoned tmp files, sorted.
    pub fn tmp_files(&self) -> Vec<String> {
        let mut v = self.fs.list(&self.abs("tmp"));
        v.sort_unstable();
        v
    }

    /// Store-relative references of every content-addressed chunk, sorted.
    pub fn chunk_refs(&self) -> Vec<String> {
        let mut refs: Vec<String> =
            self.fs.list(&self.abs("chunks")).iter().map(|p| self.rel(p).to_string()).collect();
        refs.sort_unstable();
        refs
    }

    /// Total bytes of every file under the store root — what the
    /// checkpoint actually costs on disk (recipes + chunks + manifests; the
    /// dedup benchmark charts deltas of this).
    pub fn disk_usage(&self) -> u64 {
        self.fs
            .list(&self.root)
            .iter()
            .map(|p| self.fs.size(p).unwrap_or(0))
            .sum()
    }

    /// The next unused checkpoint id. Considers *staged* image directories
    /// as well as committed manifests so a recovering Manager never reuses
    /// an id whose directory a crashed predecessor already dirtied.
    pub fn next_ckpt_id(&self) -> u64 {
        let max_manifest = self.manifest_ids().into_iter().max().unwrap_or(0);
        let max_staged = self
            .image_refs()
            .iter()
            .filter_map(|r| r.strip_prefix("images/")?.split('/').next()?.parse::<u64>().ok())
            .max()
            .unwrap_or(0);
        max_manifest.max(max_staged) + 1
    }

    /// Deletes checkpoint `ckpt`'s manifest (rollback / pruning). Missing
    /// is fine — deletion must be idempotent for double recovery.
    pub fn delete_manifest(&self, ckpt: u64) {
        let _ = self.fs.unlink(&self.abs(&Self::manifest_ref(ckpt)));
    }

    /// Deletes one image file by store-relative reference (idempotent).
    pub fn delete_image(&self, image_ref: &str) {
        let _ = self.fs.unlink(&self.abs(image_ref));
    }

    /// Snapshot of the in-flight grace set: image-prefixes and chunk keys
    /// GC must leave alone, plus whether anything is in flight at all.
    fn grace(&self) -> (Vec<String>, HashSet<(u64, u64)>, bool) {
        let fence = self.fence();
        let inflight = self.inflight.lock().unwrap();
        let mut prefixes = Vec::new();
        let mut chunks = HashSet::new();
        for (ckpt, f) in inflight.iter() {
            if f.epoch >= fence {
                prefixes.push(format!("images/{ckpt}/"));
                chunks.extend(f.chunks.iter().copied());
            }
        }
        let any = !prefixes.is_empty();
        (prefixes, chunks, any)
    }

    /// The shared sweep behind [`ImageStore::gc`] and [`ImageStore::audit`]:
    /// walks the store, classifies garbage, deletes it when `delete`, and
    /// returns both the removal counts and the orphan paths.
    ///
    /// Staging-awareness: anything under a registered in-flight
    /// checkpoint — its `images/<id>/` prefix, the chunks it staged or
    /// dedup-hit, and the tmp directory as a whole — is graced, because
    /// liveness-from-committed-manifests cannot see a checkpoint whose
    /// manifest rename has not landed yet. Chunk liveness is
    /// mark-and-sweep: every retained recipe's chunk set is marked; if any
    /// retained recipe fails to parse the whole chunk sweep is skipped
    /// this pass (its references are unknown — deleting anything could
    /// tear a reachable image).
    fn sweep(&self, live: &HashSet<String>, delete: bool) -> (GcReport, Vec<String>) {
        let (graced_prefixes, graced_chunks, any_inflight) = self.grace();
        let mut report = GcReport::default();
        let mut orphans = Vec::new();

        if !any_inflight {
            let tmps = self.tmp_files();
            if delete {
                for t in &tmps {
                    let _ = self.fs.unlink(t);
                }
            }
            report.tmp_removed = tmps.len();
            orphans.extend(tmps);
        }

        let mut mark: HashSet<(u64, u64)> = graced_chunks;
        let mut sweep_ok = true;
        for r in self.image_refs() {
            let keep = live.contains(r.as_str())
                || graced_prefixes.iter().any(|p| r.starts_with(p.as_str()));
            if !keep {
                if delete {
                    self.delete_image(&r);
                }
                report.images_removed += 1;
                orphans.push(self.abs(&r));
                continue;
            }
            match self.recipe(&r) {
                Ok(ix) => mark.extend(ix.chunks.iter().map(|c| (c.digest, c.len))),
                Err(_) => sweep_ok = false,
            }
        }

        if sweep_ok {
            for cr in self.chunk_refs() {
                let dead = match Self::parse_chunk_ref(&cr) {
                    Some(key) => !mark.contains(&key),
                    None => true,
                };
                if dead {
                    if delete {
                        let _ = self.fs.unlink(&self.abs(&cr));
                    }
                    report.chunks_removed += 1;
                    orphans.push(self.abs(&cr));
                }
            }
        }
        orphans.sort_unstable();
        (report, orphans)
    }

    /// Garbage-collects the store: deletes every abandoned tmp file, every
    /// recipe not in `live` (the image refs of all retained manifests), and
    /// every chunk no retained recipe references — except anything grace-listed by an unfenced
    /// in-flight checkpoint (see [`ImageStore::begin_stage`]). Never
    /// touches manifests — pruning those is a policy decision made by the
    /// recovery layer.
    pub fn gc(&self, live: &HashSet<String>) -> GcReport {
        let (report, _) = self.sweep(live, true);
        if report.total() > 0 {
            self.obs.counter("store", "store.gc_removed", report.total() as u64);
        }
        report
    }

    /// Lists every orphan the store currently holds: tmp files, images not
    /// in `live`, and unreferenced chunks (same grace rules as
    /// [`ImageStore::gc`]). A clean store returns an empty vec — the chaos
    /// suite asserts exactly that after every recovery.
    pub fn audit(&self, live: &HashSet<String>) -> Vec<String> {
        let (_, orphans) = self.sweep(live, false);
        orphans
    }

    /// Simulates power loss of the store subtree (everything unsynced is
    /// torn away). Returns how many files were affected. Test/chaos hook.
    pub fn crash(&self) -> usize {
        self.fs.crash_unsynced_under(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zapc_obs::RingCollector;

    fn store_with(faults: Arc<FaultPlan>) -> (Arc<SimFs>, ImageStore) {
        let fs = SimFs::new();
        let st = ImageStore::new(Arc::clone(&fs), "/zapc/store", faults, Observer::disabled());
        (fs, st)
    }

    fn store() -> (Arc<SimFs>, ImageStore) {
        store_with(Arc::new(FaultPlan::none()))
    }

    fn manifest_for(st: &ImageStore, ckpt: u64, pods: &[(&str, &[u8])]) -> Manifest {
        let entries = pods
            .iter()
            .map(|(pod, bytes)| {
                let (image_ref, digest) = st.put_image(ckpt, pod, bytes).unwrap();
                ManifestEntry {
                    pod: pod.to_string(),
                    image_ref,
                    digest,
                    bytes: bytes.len() as u64,
                    node: 0,
                }
            })
            .collect();
        Manifest { ckpt_id: ckpt, epoch: 1, wall_ms: 0, entries }
    }

    #[test]
    fn put_commit_fetch_round_trip() {
        let (_fs, st) = store();
        let m = manifest_for(&st, 1, &[("w0", b"alpha"), ("w1", b"beta")]);
        st.commit_manifest(&m).unwrap();

        let got = st.manifest(1).unwrap();
        assert_eq!(got, m);
        let e = got.entry("w0").unwrap();
        assert_eq!(st.fetch_verified(&e.image_ref, e.digest).unwrap(), b"alpha");
        assert_eq!(st.manifest_ids(), vec![1]);
        assert_eq!(st.next_ckpt_id(), 2);
        assert!(st.tmp_files().is_empty(), "tmp drained after commit");
    }

    #[test]
    fn digest_verification_refuses_rot() {
        let (fs, st) = store();
        let m = manifest_for(&st, 1, &[("w0", b"pristine bytes")]);
        st.commit_manifest(&m).unwrap();
        let e = &m.entries[0];

        // Flip a byte of the image's one chunk behind the store's back.
        let path = st.abs(&st.chunk_refs()[0]);
        let mut bytes = fs.read(&path).unwrap();
        bytes[3] ^= 0xFF;
        fs.write(&path, &bytes);
        fs.fsync(&path).unwrap();

        assert!(matches!(
            st.fetch_verified(&e.image_ref, e.digest),
            Err(StoreError::ChunkDigestMismatch { .. })
        ));
    }

    #[test]
    fn whole_image_put_stages_one_chunk_under_the_image_digest() {
        let (_fs, st) = store();
        let bytes = payload(5000, 1);
        let (rel, digest) = st.put_image(1, "w0", &bytes).unwrap();
        let ix = st.recipe(&rel).unwrap();
        let only = ChunkRef { digest: digest64(&bytes), len: bytes.len() as u64 };
        assert_eq!(ix.chunks, vec![only]);
        assert_eq!(digest, recipe_digest(&[only]));
        assert_eq!(st.chunk_refs(), vec![ImageStore::chunk_ref(only.digest, only.len)]);

        // An empty image has a recipe and no chunk.
        let (rel, digest) = st.put_image(1, "w1", b"").unwrap();
        assert_eq!(digest, recipe_digest(&[]));
        assert_eq!(st.recipe(&rel).unwrap(), ChunkIndex { logical_len: 0, digest, chunks: vec![] });
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), b"");
        assert_eq!(st.chunk_refs().len(), 1);
    }

    #[test]
    fn crash_before_any_fsync_leaves_nothing() {
        let (_fs, st) = store();
        // Write the tmp file by hand (as if the writer died pre-fsync).
        st.fs.write(&st.abs("tmp/0-w0"), b"half");
        assert_eq!(st.crash(), 1);
        assert!(st.tmp_files().is_empty());
        assert!(st.image_refs().is_empty());
    }

    #[test]
    fn dropped_fsync_plus_crash_vanishes_the_final_file() {
        let plan =
            FaultPlan::script().always("store.fsync", None, FaultAction::Drop).build();
        let (_fs, st) = store_with(Arc::new(plan));
        let (image_ref, digest) = st.put_image(3, "w0", b"never durable").unwrap();
        assert!(st.fetch_verified(&image_ref, digest).is_ok(), "visible before the crash");

        st.crash();
        assert_eq!(st.fetch_verified(&image_ref, digest), Err(StoreError::Io(Errno::ENOENT)));
    }

    #[test]
    fn pre_rename_crash_leaves_a_tmp_orphan_for_gc() {
        let plan = FaultPlan::script()
            .inject("store.pre_rename", None, 0, FaultAction::Crash)
            .build();
        let (_fs, st) = store_with(Arc::new(plan));
        assert_eq!(
            st.put_image(2, "w0", b"doomed"),
            Err(StoreError::Crashed { site: "store.pre_rename" })
        );
        assert_eq!(st.tmp_files().len(), 1);
        assert!(st.image_refs().is_empty());

        let report = st.gc(&HashSet::new());
        assert_eq!(report, GcReport { images_removed: 0, tmp_removed: 1, chunks_removed: 0 });
        assert!(st.audit(&HashSet::new()).is_empty());
    }

    #[test]
    fn torn_manifest_fails_validation() {
        let plan = FaultPlan::script()
            .inject("store.manifest", None, 0, FaultAction::Truncate { keep_permille: 500 })
            .build();
        let (_fs, st) = store_with(Arc::new(plan));
        let m = manifest_for(&st, 1, &[("w0", b"payload")]);
        st.commit_manifest(&m).unwrap();
        assert!(matches!(st.manifest(1), Err(StoreError::Decode(_))));
    }

    #[test]
    fn manifest_site_is_consulted_by_manifest_writes_only() {
        let plan = Arc::new(
            FaultPlan::script()
                .always("store.manifest", None, FaultAction::Truncate { keep_permille: 500 })
                .build(),
        );
        let (_fs, st) = store_with(Arc::clone(&plan));
        st.set_chunking(Some(small_chunks(true)));
        let m = manifest_for(&st, 1, &[("w0", &payload(20_000, 5))]);
        assert_eq!(plan.trace().len(), 0, "chunk and recipe writes fired the manifest site");
        st.commit_manifest(&m).unwrap();
        assert!(matches!(st.manifest(1), Err(StoreError::Decode(_))));
        assert_eq!(plan.trace().len(), 1);
    }

    #[test]
    fn next_ckpt_id_skips_dirty_staged_directories() {
        let (_fs, st) = store();
        let m = manifest_for(&st, 1, &[("w0", b"committed")]);
        st.commit_manifest(&m).unwrap();
        // Checkpoint 2 staged an image but never committed (crash).
        st.put_image(2, "w0", b"staged only").unwrap();
        assert_eq!(st.next_ckpt_id(), 3, "dirty id 2 must not be reused");
    }

    #[test]
    fn gc_keeps_live_refs_and_reaps_the_rest() {
        let (_fs, st) = store();
        let m1 = manifest_for(&st, 1, &[("w0", b"keep me")]);
        st.commit_manifest(&m1).unwrap();
        st.put_image(2, "w0", b"orphaned stage").unwrap();
        st.put_image(2, "w1", b"also orphaned").unwrap();

        let live: HashSet<String> = m1.entries.iter().map(|e| e.image_ref.clone()).collect();
        assert_eq!(st.audit(&live).len(), 4, "two recipes and their chunks");
        let report = st.gc(&live);
        assert_eq!(report, GcReport { images_removed: 2, tmp_removed: 0, chunks_removed: 2 });
        assert!(st.audit(&live).is_empty());
        let e = &m1.entries[0];
        assert_eq!(st.fetch_verified(&e.image_ref, e.digest).unwrap(), b"keep me");
    }

    #[test]
    fn manifest_id_mismatch_is_refused() {
        let (fs, st) = store();
        let m = manifest_for(&st, 5, &[("w0", b"x")]);
        // File a valid manifest under the wrong id.
        fs.write(&st.abs(&ImageStore::manifest_ref(9)), &m.to_bytes());
        fs.fsync(&st.abs(&ImageStore::manifest_ref(9))).unwrap();
        assert_eq!(st.manifest(9), Err(StoreError::IdMismatch { path_id: 9, recorded: 5 }));
    }

    #[test]
    fn fencing_token_refuses_stale_epochs() {
        let (_fs, st) = store();
        let m1 = manifest_for(&st, 1, &[("w0", b"epoch one")]);
        st.commit_manifest(&m1).unwrap();

        // A newer Manager recovers: fence to epoch 3.
        st.set_fence(3);
        assert_eq!(st.fence(), 3);
        st.set_fence(2);
        assert_eq!(st.fence(), 3, "fence is monotonic");

        // The stale Manager's in-flight commit (epoch 1) loses, typed.
        let m2 = manifest_for(&st, 2, &[("w0", b"stale")]);
        assert_eq!(
            st.commit_manifest(&m2),
            Err(StoreError::Fenced { epoch: 1, fence: 3 })
        );
        assert_eq!(st.manifest_ids(), vec![1], "no stale manifest landed");

        // The fencing epoch itself (and anything newer) commits fine.
        let m3 = Manifest { ckpt_id: 3, epoch: 3, wall_ms: 0, entries: vec![] };
        st.commit_manifest(&m3).unwrap();
        assert_eq!(st.manifest_ids(), vec![1, 3]);
    }

    #[test]
    fn deletion_is_idempotent() {
        let (_fs, st) = store();
        let m = manifest_for(&st, 1, &[("w0", b"x")]);
        st.commit_manifest(&m).unwrap();
        st.delete_manifest(1);
        st.delete_manifest(1);
        st.delete_image(&m.entries[0].image_ref);
        st.delete_image(&m.entries[0].image_ref);
        assert!(st.manifest_ids().is_empty());
        assert!(st.image_refs().is_empty());
    }

    // ---- content-defined chunking -------------------------------------

    fn small_chunks(compress: bool) -> ChunkingConfig {
        ChunkingConfig { compress, params: ChunkParams { min: 64, mask_bits: 7, max: 1024 } }
    }

    fn chunked_store(compress: bool) -> (Arc<SimFs>, ImageStore) {
        let (fs, st) = store();
        st.set_chunking(Some(small_chunks(compress)));
        (fs, st)
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        // LCG noise: incompressible and aperiodic, so chunks only dedup
        // across *images*, which is what these tests measure.
        let mut state = seed as u64 + 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn chunked_put_fetch_round_trips_and_verifies() {
        // Every setting leaves a parseable recipe at the image path.
        let configs = [
            None,
            Some(ChunkingConfig::default()),
            Some(small_chunks(false)),
            Some(small_chunks(true)),
        ];
        for cfg in configs {
            let (_fs, st) = store();
            st.set_chunking(cfg);
            let bytes = payload(20_000, 3);
            let (rel, digest) = st.put_image(1, "w0", &bytes).unwrap();
            let ix = st.recipe(&rel).unwrap();
            assert_eq!(digest, recipe_digest(&ix.chunks), "{cfg:?}");
            assert_eq!((ix.logical_len, ix.digest), (bytes.len() as u64, digest), "{cfg:?}");
            assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes);
            assert_eq!(st.chunk_refs().len(), ix.chunks.len(), "{cfg:?}");
        }
    }

    #[test]
    fn identical_images_across_pods_and_checkpoints_share_chunks() {
        let (_fs, st) = store();
        // Larger chunks than the other tests: the point here is the byte
        // ratio, and tiny chunks make the per-chunk recipe entry visible.
        st.set_chunking(Some(ChunkingConfig {
            compress: false,
            params: ChunkParams { min: 512, mask_bits: 10, max: 4096 },
        }));
        let bytes = payload(50_000, 9);
        st.put_image(1, "w0", &bytes).unwrap();
        let after_first = st.disk_usage();
        st.put_image(1, "w1", &bytes).unwrap();
        let (rel, digest) = st.put_image(2, "w0", &bytes).unwrap();
        let growth = st.disk_usage() - after_first;
        assert!(
            growth < after_first / 10,
            "dedup should elide nearly all bytes: grew {growth} after {after_first}"
        );
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes);
    }

    #[test]
    fn crafted_collision_is_typed_not_aliased() {
        // Equal-length digest64 collisions are out of reach to craft, so
        // the digest function is the seam: both inputs map to one key, and
        // the byte-compare must catch the lie.
        fn colliding(_: &[u8]) -> u64 {
            0xC011_1DED_C011_1DED
        }
        let (_fs, st) = chunked_store(false);
        let a = vec![0xAAu8; 256];
        let b = vec![0xBBu8; 256];
        st.put_chunk_digested(1, &a, false, "w0", colliding).unwrap();
        assert_eq!(
            st.put_chunk_digested(1, &b, false, "w0", colliding),
            Err(StoreError::DigestCollision { digest: 0xC011_1DED_C011_1DED, len: 256 })
        );
        // Same bytes again is a clean hit, not a collision.
        st.put_chunk_digested(1, &a, false, "w0", colliding).unwrap();
    }

    fn observed_store(cfg: ChunkingConfig, faults: FaultPlan) -> (ImageStore, Arc<RingCollector>) {
        let (obs, ring) = Observer::ring(64);
        let st = ImageStore::new(SimFs::new(), "/zapc/store", Arc::new(faults), obs);
        st.set_chunking(Some(cfg));
        (st, ring)
    }

    /// Puts `bytes` as `pod` in `ckpt` and checks the recipe is `split`'s.
    /// Returns the chunks predicted and scanned by this put.
    fn put_counted(
        st: &ImageStore,
        ring: &RingCollector,
        ckpt: u64,
        pod: &str,
        bytes: &[u8],
    ) -> (u64, u64) {
        let predicted = ring.counter_sum("store.chunks_predicted");
        let (rel, digest) = st.put_image(ckpt, pod, bytes).unwrap();
        let ix = st.recipe(&rel).unwrap();
        let params = st.chunking.lock().unwrap().unwrap().params;
        let lens: Vec<u64> = chunk::split(bytes, &params).iter().map(|r| r.len() as u64).collect();
        assert_eq!(ix.chunks.iter().map(|c| c.len).collect::<Vec<_>>(), lens);
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes);
        let predicted = ring.counter_sum("store.chunks_predicted") - predicted;
        (predicted, ix.chunks.len() as u64 - predicted)
    }

    #[test]
    fn an_unchanged_reput_predicts_every_chunk_and_a_page_edit_rescans_few() {
        let (st, ring) = observed_store(ChunkingConfig::default(), FaultPlan::none());
        let mut bytes = payload(256 * 1024, 11);
        let (none, n) = put_counted(&st, &ring, 1, "w0", &bytes);
        assert_eq!((none, put_counted(&st, &ring, 2, "w0", &bytes)), (0, (n, 0)));
        for page in [0, 17, 40, 63] {
            bytes[page * 4096..(page + 1) * 4096].copy_from_slice(&payload(4096, page as u8));
            let (predicted, scanned) = put_counted(&st, &ring, 3 + page as u64, "w0", &bytes);
            assert!(predicted > 0 && scanned <= 3, "page {page}: {scanned} chunks rescanned");
        }
        // Another pod has no recipe to predict from.
        assert_eq!(put_counted(&st, &ring, 9, "w1", &bytes).0, 0);
    }

    #[test]
    fn same_digest_different_lengths_never_meet() {
        fn colliding(_: &[u8]) -> u64 {
            0xFACE
        }
        let (_fs, st) = chunked_store(false);
        st.put_chunk_digested(1, &[1u8; 100], false, "w0", colliding).unwrap();
        // Different length ⇒ different key ⇒ no collision to detect.
        st.put_chunk_digested(1, &[2u8; 101], false, "w0", colliding).unwrap();
        assert_eq!(st.chunk_refs().len(), 2);
    }

    #[test]
    fn gc_graces_inflight_stage_and_reaps_it_once_retired() {
        let (_fs, st) = chunked_store(false);
        let committed = manifest_for(&st, 1, &[("w0", &payload(5000, 1))]);
        st.commit_manifest(&committed).unwrap();
        let live: HashSet<String> =
            committed.entries.iter().map(|e| e.image_ref.clone()).collect();

        // Checkpoint 2 is mid-stage (images written, manifest not yet).
        st.begin_stage(2, 1);
        let (rel, digest) = st.put_image(2, "w0", &payload(8000, 2)).unwrap();

        // The race from the satellite bug: GC runs between stage and
        // manifest commit. Nothing staged may be reaped.
        let report = st.gc(&live);
        assert_eq!(report, GcReport::default(), "in-flight stage must be graced");
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), payload(8000, 2));
        assert!(st.audit(&live).is_empty());

        // Once retired without a commit, the same GC reaps it all.
        st.end_stage(2, 1);
        let report = st.gc(&live);
        assert!(report.images_removed >= 1 && report.chunks_removed >= 1, "{report:?}");
        assert!(st.audit(&live).is_empty());
        assert_eq!(st.fetch_verified(&committed.entries[0].image_ref, committed.entries[0].digest)
            .unwrap(), payload(5000, 1));
    }

    #[test]
    fn fence_retires_a_losers_grace_but_not_the_winners() {
        let (_fs, st) = chunked_store(false);
        st.begin_stage(2, 1);
        st.put_image(2, "w0", &payload(4000, 4)).unwrap();
        // A newer Manager recovers: epoch-1 staging loses its grace.
        st.set_fence(2);
        let report = st.gc(&HashSet::new());
        assert!(report.images_removed >= 1, "fenced loser's litter is collectable");

        // The winner re-stages under the fencing epoch; it stays graced.
        st.begin_stage(3, 2);
        st.put_image(3, "w0", &payload(4000, 5)).unwrap();
        assert_eq!(st.gc(&HashSet::new()), GcReport::default());
        // end_stage with the wrong epoch must not strip the grace either.
        st.end_stage(3, 1);
        assert_eq!(st.gc(&HashSet::new()), GcReport::default());
    }

    #[test]
    fn half_written_chunk_is_not_a_dedup_hit() {
        let (fs, st) = chunked_store(false);
        let bytes = payload(3000, 6);
        let (rel, digest) = st.put_image(1, "w0", &bytes).unwrap();
        // Truncate one resident chunk behind the store's back (what a
        // power loss leaves when the watermark lagged the write).
        let cr = st.chunk_refs().into_iter().next().unwrap();
        let abs = st.abs(&cr);
        let stored = fs.read(&abs).unwrap();
        fs.write(&abs, &stored[..stored.len() / 2]);
        fs.fsync(&abs).unwrap();

        // Open refuses it typed...
        assert!(matches!(
            st.fetch_verified(&rel, digest),
            Err(StoreError::ChunkCorrupt { .. }) | Err(StoreError::ChunkDigestMismatch { .. })
        ));
        // ...and re-staging the same image repairs instead of dedup-hitting.
        st.put_image(2, "w0", &bytes).unwrap();
        assert_eq!(st.fetch_verified(&ImageStore::image_ref(2, "w0"), digest).unwrap(), bytes);
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes, "shared chunk repaired");
    }

    #[test]
    fn concurrent_fetches_each_get_their_own_result() {
        // Four images over one shared prefix; a chunk only the last one
        // holds is rotted. Four threads fetch one image each, at once and
        // repeatedly, from the one store.
        let (fs, st) = chunked_store(false);
        let shared = payload(6000, 1);
        let images: Vec<Vec<u8>> =
            (0..4).map(|i| [shared.as_slice(), &payload(3000, 10 + i)].concat()).collect();
        let refs: Vec<(String, u64)> = images
            .iter()
            .enumerate()
            .map(|(i, bytes)| st.put_image(1, &format!("w{i}"), bytes).unwrap())
            .collect();
        let recipes: Vec<ChunkIndex> = refs.iter().map(|(r, _)| st.recipe(r).unwrap()).collect();
        let others: HashSet<ChunkRef> =
            recipes[..3].iter().flat_map(|ix| ix.chunks.iter().copied()).collect();
        assert!(recipes[3].chunks.iter().any(|c| others.contains(c)), "images share chunks");
        let rotted = *recipes[3].chunks.iter().find(|c| !others.contains(c)).unwrap();
        let path = st.abs(&ImageStore::chunk_ref(rotted.digest, rotted.len));
        let mut bytes = fs.read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs.write(&path, &bytes);
        fs.fsync(&path).unwrap();

        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for (i, ((image_ref, digest), want)) in refs.iter().zip(&images).enumerate() {
                let (st, start) = (&st, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        match st.fetch_verified(image_ref, *digest) {
                            Ok(got) => assert!(i < 3 && got == *want, "w{i} fetched wrong bytes"),
                            Err(StoreError::ChunkDigestMismatch { digest, .. }) => {
                                assert!(i == 3 && digest == rotted.digest, "w{i}: wrong chunk")
                            }
                            Err(e) => panic!("w{i}: {e}"),
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn power_loss_on_chunks_dir_recovers_by_restage() {
        // Chunk fsyncs are dropped: the files land but their durability
        // watermark is zero, so the crash vanishes them.
        let plan = FaultPlan::script().always("store.fsync", None, FaultAction::Drop).build();
        let (_fs, st) = store_with(Arc::new(plan));
        st.set_chunking(Some(small_chunks(false)));
        let bytes = payload(10_000, 7);
        let (rel, digest) = st.put_image(1, "w0", &bytes).unwrap();
        st.crash();
        assert!(st.fetch_verified(&rel, digest).is_err(), "nothing durable survived");

        // After the crash the fault plan's effect is moot (same plan, but
        // now every put re-stages — missing chunks are never counted as
        // hits) and a fresh checkpoint is whole again... except fsyncs are
        // still dropped. Use a clean store sharing the fs to model the
        // post-reboot writer.
        let st2 = ImageStore::new(
            Arc::clone(&st.fs),
            "/zapc/store",
            Arc::new(FaultPlan::none()),
            Observer::disabled(),
        );
        st2.set_chunking(Some(small_chunks(false)));
        let (rel2, digest2) = st2.put_image(2, "w0", &bytes).unwrap();
        assert_eq!(st2.fetch_verified(&rel2, digest2).unwrap(), bytes);
        st2.crash();
        assert_eq!(st2.fetch_verified(&rel2, digest2).unwrap(), bytes, "now durable");
    }

    #[test]
    fn dedup_hit_refsyncs_an_undurable_resident() {
        // First writer's chunk fsyncs are dropped; a later dedup hit from
        // a healthy writer must re-sync the resident chunk rather than
        // piggy-back on volatile bytes.
        let plan = FaultPlan::script().always("store.fsync", Some("w0"), FaultAction::Drop).build();
        let (_fs, st) = store_with(Arc::new(plan));
        st.set_chunking(Some(small_chunks(false)));
        let bytes = payload(6000, 8);
        st.put_image(1, "w0", &bytes).unwrap();
        let (rel2, digest2) = st.put_image(1, "w1", &bytes).unwrap();
        st.crash();
        assert_eq!(
            st.fetch_verified(&rel2, digest2).unwrap(),
            bytes,
            "dedup hit must have made the shared chunks durable"
        );
    }

    #[test]
    fn a_predicted_chunk_that_gc_reaped_is_scanned_and_restaged() {
        let (st, ring) = observed_store(small_chunks(true), FaultPlan::none());
        let bytes = payload(6000, 12);
        let (_, n) = put_counted(&st, &ring, 1, "w0", &bytes);
        assert_eq!(st.gc(&HashSet::new()).chunks_removed as u64, n);
        assert_eq!(put_counted(&st, &ring, 2, "w0", &bytes), (0, n));
        assert_eq!(ring.counter_sum("store.chunks_new"), 2 * n);
    }

    #[test]
    fn a_predicted_resident_with_a_flipped_byte_is_evicted_not_hit() {
        let (st, ring) = observed_store(small_chunks(false), FaultPlan::none());
        let bytes = payload(3000, 13);
        let (_, n) = put_counted(&st, &ring, 1, "w0", &bytes);
        let abs = st.abs(&st.chunk_refs()[0]);
        let mut stored = st.fs.read(&abs).unwrap();
        stored[1] ^= 0x01;
        st.fs.write(&abs, &stored);
        st.fs.fsync(&abs).unwrap();

        // Every other chunk is predicted; the flipped one is scanned, its
        // resident evicted and the chunk written afresh, never a hit.
        assert_eq!(put_counted(&st, &ring, 2, "w0", &bytes), (n - 1, 1));
        assert_eq!(ring.counter_sum("store.chunks_hit"), n - 1);
        assert_eq!(ring.counter_sum("store.chunks_new"), n + 1);
        let (rel, digest) = st.put_image(3, "w1", &bytes).unwrap();
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes, "resident repaired");
    }

    #[test]
    fn a_predicted_hit_refsyncs_a_volatile_resident() {
        // Every fsync of the first put (its chunks, then its recipe) is
        // dropped; the second put's predicted hits must re-sync the chunks.
        let bytes = payload(6000, 14);
        let n = chunk::split(&bytes, &small_chunks(false).params).len() as u64;
        let plan = FaultPlan::script()
            .inject_range("store.fsync", Some("w0"), 0, n + 1, FaultAction::Drop)
            .build();
        let (st, ring) = observed_store(small_chunks(false), plan);
        st.put_image(1, "w0", &bytes).unwrap();
        let (rel, digest) = st.put_image(2, "w0", &bytes).unwrap();
        assert_eq!(ring.counter_sum("store.chunks_predicted"), n);
        st.crash();
        assert_eq!(st.fetch_verified(&rel, digest).unwrap(), bytes);
    }

    #[test]
    fn other_chunk_params_between_puts_mean_no_prediction() {
        let (st, ring) = observed_store(small_chunks(true), FaultPlan::none());
        let bytes = payload(8000, 15);
        put_counted(&st, &ring, 1, "w0", &bytes);
        let params = ChunkParams { min: 128, ..small_chunks(true).params };
        st.set_chunking(Some(ChunkingConfig { compress: true, params }));
        assert_eq!(put_counted(&st, &ring, 2, "w0", &bytes).0, 0);
        // Compression is not a split parameter: it keeps the prediction.
        st.set_chunking(Some(ChunkingConfig { compress: false, params }));
        assert_eq!(put_counted(&st, &ring, 3, "w0", &bytes).1, 0);
    }

    #[test]
    fn entry_is_whole_sees_tears_and_leaves_rot_to_the_consuming_read() {
        for chunked in [false, true] {
            let (fs, st) = if chunked { chunked_store(false) } else { store() };
            let m = manifest_for(&st, 1, &[("w0", &payload(5000, 2))]);
            let e = &m.entries[0];
            assert!(st.entry_is_whole(e));
            assert!(matches!(
                st.fetch_verified(&e.image_ref, e.digest ^ 1),
                Err(StoreError::DigestMismatch { .. })
            ));

            // Rot one byte (past a chunk's flag byte): still whole, but
            // the read that consumes it refuses it.
            let path = st.abs(&st.chunk_refs()[0]);
            let mut bytes = fs.read(&path).unwrap();
            bytes[1] ^= 0x01;
            fs.write(&path, &bytes);
            assert!(st.entry_is_whole(e), "chunked={chunked}");
            assert!(st.fetch_verified(&e.image_ref, e.digest).is_err(), "chunked={chunked}");

            // Tear it away: no longer whole.
            fs.unlink(&path).unwrap();
            assert!(!st.entry_is_whole(e), "chunked={chunked}");
        }
    }

    #[test]
    fn recipe_chunk_list_is_pinned_by_the_manifest_digest() {
        // Fixed 256-byte chunks: any two refs of an image are
        // interchangeable as far as the recipe's length checks can tell.
        let fixed = ChunkParams { min: 256, mask_bits: 7, max: 256 };
        type Rewrite = fn(&mut Vec<ChunkRef>, ChunkRef);
        let cases: [(&str, Rewrite); 2] = [
            ("two refs swapped", |chunks, _| chunks.swap(0, 1)),
            ("a ref replaced by another resident chunk", |chunks, other| chunks[2] = other),
        ];
        for (name, rewrite) in cases {
            let (fs, st) = store();
            st.set_chunking(Some(ChunkingConfig { compress: false, params: fixed }));
            let bytes = payload(1024, 4);
            let m = manifest_for(&st, 1, &[("w0", &bytes), ("w1", &payload(256, 5))]);
            st.commit_manifest(&m).unwrap();
            let (e, other) = (&m.entries[0], st.recipe(&m.entries[1].image_ref).unwrap());
            assert_eq!(st.fetch_verified(&e.image_ref, e.digest).unwrap(), bytes);

            // Rewrite w0's recipe with a valid record check and its recorded digest.
            let mut ix = st.recipe(&e.image_ref).unwrap();
            assert_eq!(ix.chunks.len(), 4);
            rewrite(&mut ix.chunks, other.chunks[0]);
            let abs = st.abs(&e.image_ref);
            fs.write(&abs, &ix.to_bytes());
            fs.fsync(&abs).unwrap();
            assert_eq!(st.recipe(&e.image_ref).unwrap(), ix, "{name}: the recipe parses");

            assert_eq!(
                st.fetch_verified(&e.image_ref, e.digest),
                Err(StoreError::DigestMismatch {
                    image_ref: e.image_ref.clone(),
                    want: e.digest,
                    got: recipe_digest(&ix.chunks),
                }),
                "{name}"
            );
            assert!(!st.entry_is_whole(e), "{name}");
        }
    }

    #[test]
    fn truncated_recipe_is_a_typed_decode_error() {
        let (fs, st) = chunked_store(true);
        let (rel, digest) = st.put_image(1, "w0", &payload(9000, 9)).unwrap();
        let abs = st.abs(&rel);
        let stored = fs.read(&abs).unwrap();
        fs.write(&abs, &stored[..stored.len() - 3]);
        fs.fsync(&abs).unwrap();
        assert!(matches!(st.fetch_verified(&rel, digest), Err(StoreError::Decode(_))));
    }
}
