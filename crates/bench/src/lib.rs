//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (§3 and §5).
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! [`table::Table`]; the `report` binary prints them and writes JSON to
//! `results/`.
//!
//! | Experiment | Paper artefact |
//! |---|---|
//! | [`experiments::fig02`] | Figure 2 — PipeSwitch stall decomposition |
//! | [`experiments::fig05`] | Figure 5 — load-then-execute vs DHA per layer |
//! | [`experiments::table1`] | Table 1 — PCIe transaction counts |
//! | [`experiments::fig06`] | Figure 6 + Table 2 — serial vs parallel transmission |
//! | [`experiments::fig11`] | Figure 11 — single-inference speedups |
//! | [`experiments::table3`] | Table 3 — plan excerpts |
//! | [`experiments::table4`] | Table 4 — PT interference |
//! | [`experiments::fig12`] | Figure 12 — batching throughput |
//! | [`experiments::table5`] | Table 5 — profiling cost |
//! | [`experiments::fig13`] | Figure 13 — serving scale sweep (BERT-Base) |
//! | [`experiments::fig14`] | Figure 14 — serving sweeps (BERT-Large, GPT-2) |
//! | [`experiments::fig15`] | Figure 15 — 3-hour MAF-like trace |
//! | [`experiments::fig16`] | Figure 16 — PCIe 4.0 system |
//! | [`experiments::ablations`] | design-choice ablations (this repo) |

pub mod experiments;
pub mod setup;
pub mod table;

pub use table::Table;
