//! The arsf repository benchmark.
//!
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` builds this package and the sweep binaries it drives,
//! then runs one workload: `--trace 0` measures the end-to-end metrics,
//! `--trace 1` the per-layer ones. See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.

pub mod alloc;
pub mod drive;
pub mod layered;
pub mod measure;
pub mod run;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
