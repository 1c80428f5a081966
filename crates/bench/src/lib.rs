//! # zapc-bench — the paper's evaluation (§6) and its ablations
//!
//! * [`figures`] — shared measurement machinery: Base-vs-ZapC completion
//!   runs (Figure 5, wall-clock and virtual time), the 10-checkpoint
//!   methodology (Figure 6a), mid-run restarts from memory-preloaded
//!   images (Figure 6b), and byte-accurate image accounting (Figure 6c).
//!
//! * [`naive`] — the Cruz-style peek-only network capture, kept as the
//!   reference the `ablation_naive_peek` bench and its test compare the
//!   real mechanism against.
//!
//! Criterion benches under `benches/` and the `reproduce` binary both
//! drive [`figures`]; `reproduce` prints the paper-style tables recorded
//! in EXPERIMENTS.md. Every performance number outside the paper's
//! figures comes from the repository's one benchmark, `benchmark/`.

pub mod figures;
pub mod naive;
