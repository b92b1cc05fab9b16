//! Shared helpers for the integration tests.

use std::path::PathBuf;

use exl_engine::{ExlEngine, TargetKind};
use exl_workload::{gdp_scenario, wide_program, wide_scenario, GdpConfig, WideConfig, GDP_PROGRAM};

/// A path under the system temp dir, unique to this process and `tag`,
/// with nothing left at it from an earlier run.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An engine holding the GDP program and its default data, with every
/// derived cube pinned to `target`.
pub fn gdp_engine(target: TargetKind) -> ExlEngine {
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let mut e = ExlEngine::new();
    e.register_program("gdp", GDP_PROGRAM).unwrap();
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    for id in analyzed.program.derived_ids() {
        e.catalog.set_affinity(&id, Some(target)).unwrap();
    }
    e
}

/// A small instance of the B5 wide workload, sharded `shards` ways: five
/// shard-local statements over `(q, r)` plus a cross-region merge
/// barrier, all native, so `exec.native` faults land inside shard
/// workers.
pub fn wide_sharded_engine(shards: usize) -> ExlEngine {
    let cfg = WideConfig {
        regions: 24,
        quarters: 8,
        seed: 11,
        barrier: true,
    };
    let (analyzed, data) = wide_scenario(cfg);
    let mut e = ExlEngine::new();
    e.shards = Some(shards);
    e.register_program("wide", &wide_program(cfg.barrier))
        .unwrap();
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    e
}
