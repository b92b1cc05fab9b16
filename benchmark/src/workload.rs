//! The five workloads: what each generates from the seed, how an engine is
//! set up for it, and what one timed op is.
//!
//! Each workload stresses a different layer (README.md, "Workloads"):
//! row-wise maps where the `CubeData` boundary dominates (`wide`), the
//! same work split across shards (`wide-sharded`), the paper's
//! aggregation-heavy running example (`gdp`), incremental recompute
//! through the run cache on one resident engine (`gdp-vintage`), and the
//! paper's determination → translation → multi-backend hand-off
//! (`multi-target`).

use exl_engine::{EngineError, ExlEngine};
use exl_lang::analyze::AnalyzedProgram;
use exl_model::schema::CubeId;
use exl_model::{Cube, CubeData, Dataset};
use exl_workload::{gdp_scenario, wide_program, wide_scenario, GdpConfig, WideConfig, GDP_PROGRAM};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Wide,
    WideSharded,
    Gdp,
    GdpVintage,
    MultiTarget,
}

/// Every workload, in the order the all-workloads run visits them.
pub const ALL: [Workload; 5] = [
    Workload::Wide,
    Workload::WideSharded,
    Workload::Gdp,
    Workload::GdpVintage,
    Workload::MultiTarget,
];

/// The cube each gdp-vintage op revises.
pub const REVISED: &str = "RGDPPC";
/// Observations revised per vintage: a realistic trickle.
pub const DELTA_OPS: usize = 3;
/// Vintages one resident engine serves before it is replaced by a copy of
/// the warmed engine. Bounds the catalog history a run accumulates, so
/// peak RSS does not depend on how many vintages fit into the measuring
/// window.
pub const SESSION_VINTAGES: usize = 40;

/// Input size relative to the full workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// 1/100 of the rows: the chase cross-check's size.
    Chase,
    /// About 1/1000 of the rows: the smoke test's size.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Chase => "chase",
            Scale::Smoke => "smoke",
        }
    }

    /// Scale a row-count dimension (regions), keeping at least two.
    fn of(self, full: usize) -> usize {
        let n = match self {
            Scale::Full => full,
            Scale::Chase => full / 100,
            Scale::Smoke => full / 1000,
        };
        n.max(2)
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide => "wide",
            Workload::WideSharded => "wide-sharded",
            Workload::Gdp => "gdp",
            Workload::GdpVintage => "gdp-vintage",
            Workload::MultiTarget => "multi-target",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// One resident engine serves every op (the others build a fresh
    /// engine per op, as `exlc run` does).
    pub fn resident(self) -> bool {
        self == Workload::GdpVintage
    }

    /// Outputs are checked within `1e-9` instead of bit for bit: the SQL
    /// and R backends do not share the native evaluator's fold order.
    pub fn approx(self) -> bool {
        self == Workload::MultiTarget
    }
}

/// A workload's generated inputs and engine configuration.
pub struct Inputs {
    pub workload: Workload,
    /// The EXL program the engine registers.
    pub source: String,
    pub analyzed: AnalyzedProgram,
    /// The elementary cubes, as generated from the seed.
    pub data: Dataset,
}

impl Inputs {
    /// Generate a workload's inputs from the seed. The engine only ever
    /// sees these cubes.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let (source, analyzed, data) = match workload {
            Workload::Wide | Workload::WideSharded => {
                let cfg = WideConfig {
                    regions: scale.of(1_000),
                    quarters: 250,
                    seed,
                    barrier: true,
                };
                let (analyzed, data) = wide_scenario(cfg);
                (wide_program(true), analyzed, data)
            }
            Workload::Gdp | Workload::GdpVintage => {
                let (analyzed, data) = gdp_scenario(GdpConfig {
                    regions: scale.of(128),
                    quarters: 240,
                    days_per_quarter: 16,
                    seed,
                });
                (GDP_PROGRAM.to_string(), analyzed, data)
            }
            Workload::MultiTarget => {
                let (analyzed, data) = gdp_scenario(GdpConfig {
                    regions: scale.of(64),
                    quarters: 120,
                    days_per_quarter: 8,
                    seed,
                });
                (GDP_PROGRAM.to_string(), analyzed, data)
            }
        };
        Inputs {
            workload,
            source,
            analyzed,
            data,
        }
    }

    /// Elementary input rows: the numerator of `rows_per_s`.
    pub fn rows(&self) -> usize {
        self.data.iter().map(|(_, c)| c.data.len()).sum()
    }

    /// The derived cubes every op commits.
    pub fn derived(&self) -> Vec<CubeId> {
        self.analyzed.program.derived_ids()
    }

    /// A configured engine with the program registered and every
    /// elementary cube loaded (copy-on-write clones), not yet run.
    pub fn engine(&self) -> Result<ExlEngine, EngineError> {
        let mut engine = ExlEngine::new();
        if self.workload == Workload::WideSharded {
            engine.shards = Some(0);
        }
        engine.register_program(self.workload.name(), &self.source)?;
        if self.workload == Workload::MultiTarget {
            engine.apply_suggested_affinities()?;
        }
        if self.workload.resident() {
            engine.enable_cache();
        }
        for id in self.analyzed.elementary_inputs() {
            let data = self
                .data
                .data(&id)
                .expect("generated inputs cover the program");
            engine.load_elementary(&id, data.clone())?;
        }
        Ok(engine)
    }

    /// The inputs with `REVISED` replaced by a vintage patch.
    pub fn revised(&self, patch: &CubeData) -> Dataset {
        let mut ds = self.data.clone();
        let id = CubeId::from(REVISED);
        let schema = ds
            .schema(&id)
            .expect("gdp inputs carry the revised cube")
            .clone();
        ds.put(Cube::new(schema, patch.clone()));
        ds
    }

    /// What an engine committed for the derived cubes, as a dataset
    /// (copy-on-write clones of the catalog's current versions).
    pub fn committed(&self, engine: &ExlEngine) -> Dataset {
        let mut ds = Dataset::new();
        for id in self.derived() {
            if let Some(data) = engine.data(&id) {
                ds.put(Cube::new(self.analyzed.schemas[&id].clone(), data.clone()));
            }
        }
        ds
    }
}
