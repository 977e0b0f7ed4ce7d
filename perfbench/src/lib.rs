//! Benchmark of the Hadar simulator: named workloads run with the program's
//! defaults, timed from outside the crates. A timed run reports end-to-end
//! metrics in CPU time; a traced run records spans around every call into a
//! layer and reports per-layer metrics. See `README.md` for the metric map.

pub mod cpu;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod trace;
pub mod workload;
