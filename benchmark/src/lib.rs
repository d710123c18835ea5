//! # The h2push benchmark
//!
//! Five named workloads, six end-to-end metrics every workload reports
//! (plus five that apply to some), and a traced run that attributes host
//! time to the layers (= crates) — all measured **from outside**, by
//! timing calls into public functions. See `README.md` beside the
//! manifest for the glossary and the run protocol.
//!
//! The library holds what both binaries share and touches the
//! end-to-end API only (`RunPlan`, `SweepPlan`, `LiveServer`,
//! `load_page`, corpus constructors) — except [`ttfpb`], the raw
//! time-to-first-pushed-byte client. `bench` is the end-to-end runner;
//! `bench-layers` holds every layer probe and the traced driver, so a
//! signature change inside a layer cannot stop `bench` from compiling.

pub mod alloc;
pub mod cli;
pub mod fingerprint;
pub mod harness;
#[cfg(unix)]
pub mod live;
pub mod procfs;
pub mod provenance;
pub mod spec;
pub mod stats;
pub mod ttfpb;
pub mod workloads;

use std::path::PathBuf;

/// The benchmark package's directory: `benchmark/` under the working
/// directory when the program runs from a checkout's root (as the driver
/// and the documented commands do), else where it was compiled.
pub fn package_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// `sub` inside the package, created if missing.
pub fn package_subdir(sub: &str) -> PathBuf {
    let dir = package_dir().join(sub);
    std::fs::create_dir_all(&dir).expect("create a directory inside the benchmark package");
    dir
}
