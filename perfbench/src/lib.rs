//! Host-time benchmark of the CAPS simulator workspace.
//!
//! Measures the workspace from outside: it calls the crates' public
//! functions and times them. `README.md` in this directory lists the
//! workloads, the metrics, and which layer metric should move which
//! end-to-end metric on which workload.

pub mod check;
pub mod host;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
