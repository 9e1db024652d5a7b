//! perfbench — the GKS repository benchmark (see `main.rs`).

pub mod check;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod server;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
