//! # libra-workloads
//!
//! DNN workload generators and parsers for LIBRA — the "Workload Parser"
//! input stage of the paper's Fig. 3 and the Table II model zoo:
//!
//! | Workload   | Params | TP size          |
//! |------------|--------|------------------|
//! | Turing-NLG | 17B    | 1                |
//! | GPT-3      | 175B   | 16               |
//! | MSFT-1T    | 1T     | 128              |
//! | DLRM       | 57M (MLP only) | all NPUs |
//! | ResNet-50  | 25.6M  | 1                |
//!
//! Components:
//! * [`compute`] — FLOPs → seconds (234 TFLOPS ≈ 75 %-efficient A100, §V-B).
//! * [`parallel`] — HP-(m, n) hybrid parallelism mapped onto network dims.
//! * [`transformer`] — Megatron-style transformer LLMs with ZeRO-2.
//! * [`vision`] — ResNet-50 (data parallel).
//! * [`dlrm`] — DLRM with all-NPU embedding All-to-All.
//! * [`format`](mod@format) — the `.wl` text serialization of workloads.
//! * [`zoo`] — the Table II presets, sized for a given network.

pub mod compute;
pub mod dlrm;
pub mod format;
pub mod parallel;
pub mod transformer;
pub mod vision;
pub mod zoo;

pub use compute::ComputeModel;
pub use parallel::{map_hybrid, GroupMap};
pub use zoo::{workload_for, PaperModel};
