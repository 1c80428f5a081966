//! # zapc-bench — the paper's evaluation (§6)
//!
//! * [`figures`] — the measurement machinery behind the `reproduce`
//!   binary: Base-vs-ZapC completion runs (Figure 5, wall-clock and
//!   virtual time), the 10-checkpoint methodology (Figure 6a, with the
//!   network-state share of each checkpoint), mid-run restarts from
//!   memory-preloaded images (Figure 6b), and byte-accurate image
//!   accounting (Figure 6c), each across the paper's node counts.
//!
//! * [`naive`] — the Cruz-style peek-only network capture, kept as the
//!   reference its test compares the real mechanism against.
//!
//! `reproduce` prints the paper-style tables recorded in EXPERIMENTS.md.
//! Every performance number outside the paper's figures comes from the
//! repository's one benchmark, `benchmark/`.

pub mod figures;
pub mod naive;
