//! # zapc-apps — the evaluation workloads (paper §6)
//!
//! Four distributed applications "representing a range of different
//! communication and computational requirements typical of scientific
//! applications", plus the middleware they run on:
//!
//! * [`comm`] — **minimpi**: rank-mesh message passing over pod sockets
//!   (connect-to-lower/accept-from-higher wiring, posted tagged sends,
//!   tag-matched receives, one linear sum all-reduce), standing in for
//!   MPICH-2, and the one framed link every middleware connection uses.
//!   Fully serializable, so ranks checkpoint mid-collective. It also
//!   writes the phases CPI, BT and Bratu share once.
//! * [`pvm`] — **minipvm**: a master/worker task-farming layer standing in
//!   for PVM 3.4 (the POV-Ray port uses PVM in the paper), over the same
//!   framed link, read in order.
//! * [`cpi`] — parallel calculation of π (mostly computation-bound; one
//!   all-reduce).
//! * [`bt`] — a Block-Tridiagonal-flavoured 3-D solver with per-iteration
//!   slab halo exchange ("substantial network communication along the
//!   computation").
//! * [`bratu`] — the PETSc SFI (solid-fuel-ignition) Bratu problem:
//!   Newton outer iterations over a 2-D distributed array with moderate
//!   halo communication.
//! * [`povray`] — a CPU-intensive ray tracer farming tiles master→workers
//!   (PVM-style), with an essentially constant per-worker footprint.
//! * [`udpapps`] — UDP workloads: a heartbeat monitor exercising the §5
//!   application-timeout/time-virtualization story, and a stop-and-wait
//!   reliable protocol built over UDP.
//! * [`writer`] — a synthetic dirty-memory writer with a tunable dirty
//!   rate: the convergence-spectrum workload for live migration.
//! * [`kv`] — a live-traffic key-value server plus a client fleet (normal,
//!   slow, and half-open personalities) with end-to-end stream digests:
//!   the "checkpoint under fire" workload for zero-loss verification.
//! * [`launch`] — helpers to place one rank per pod across a cluster and
//!   register every program loader.
//!
//! Every program is an explicitly serializable state machine
//! ([`zapc_sim::Program`]): it can be suspended, checkpointed, migrated to
//! a different set of nodes, and resumed mid-collective, and each
//! workload's final result is deterministic so tests can compare disturbed
//! and undisturbed runs bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bratu;
pub mod bt;
pub mod comm;
pub mod cpi;
pub mod kv;
pub mod launch;
pub mod povray;
pub mod pvm;
pub mod udpapps;
pub mod writer;

pub use comm::MpiComm;
pub use kv::{launch_kv, KvFleet, KvFleetParams};
pub use launch::{launch_app, register_all, AppKind, AppParams, Launched};
