//! The determination engine (§6).
//!
//! EXLEngine "handles a number of programs at the same time, which
//! globally define a graph of dependencies among all the stored cubes" — a
//! DAG, by the acyclicity of EXL programs. When elementary cubes change,
//! the determination engine finds every derived cube downstream of the
//! change, produces a topologically sorted plan, and partitions it into
//! per-target subgraphs that the dispatcher will delegate to the target
//! engines.

use std::collections::{BTreeMap, BTreeSet};

use exl_lang::analyze::AnalyzedProgram;
use exl_lang::ast::Statement;
use exl_model::schema::CubeId;

use crate::error::EngineError;
use crate::target::TargetKind;

/// The global dependency graph across all registered programs.
///
/// Statements are kept in registration order, which is a valid topological
/// order: analysis guarantees every statement only reads cubes defined
/// earlier (in its own program or in programs registered before it).
#[derive(Debug, Clone, Default)]
pub struct GlobalGraph {
    statements: Vec<Statement>,
    producers: BTreeMap<CubeId, usize>,
}

/// A contiguous run of plan statements delegated to one target system.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgraph {
    /// The assigned target.
    pub target: TargetKind,
    /// Indices into the global statement list, in topological order.
    pub statements: Vec<usize>,
}

impl GlobalGraph {
    /// Empty graph.
    pub fn new() -> GlobalGraph {
        GlobalGraph::default()
    }

    /// Add an analyzed program's statements. Rejects a derived cube that
    /// is already produced by another registered program (a cube has one
    /// definition, engine-wide).
    pub fn add_program(&mut self, analyzed: &AnalyzedProgram) -> Result<(), EngineError> {
        for stmt in &analyzed.program.statements {
            if self.producers.contains_key(&stmt.target) {
                return Err(EngineError::Catalog(format!(
                    "cube {} is already defined by another registered program",
                    stmt.target
                )));
            }
        }
        for stmt in &analyzed.program.statements {
            self.producers
                .insert(stmt.target.clone(), self.statements.len());
            self.statements.push(stmt.clone());
        }
        Ok(())
    }

    /// All statements, in global topological order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The statement producing a cube.
    pub fn producer(&self, id: &CubeId) -> Option<&Statement> {
        self.producers.get(id).map(|&i| &self.statements[i])
    }

    /// Determination: given changed (elementary) cubes, the indices of
    /// every statement that must re-run, in topological order — the
    /// "dynamically built EXL program" of §6.
    pub fn determine(&self, changed: &[CubeId]) -> Vec<usize> {
        let mut dirty: BTreeSet<&CubeId> = changed.iter().collect();
        let mut plan = Vec::new();
        for (i, stmt) in self.statements.iter().enumerate() {
            let reads_dirty = stmt.expr.cube_refs().iter().any(|r| dirty.contains(r));
            if reads_dirty {
                plan.push(i);
                dirty.insert(&stmt.target);
            }
        }
        plan
    }

    /// Partition a plan into per-target subgraphs: consecutive plan
    /// statements with the same assigned target form one subgraph
    /// ("each of them will be coherently delegated to a single target
    /// system", §6).
    pub fn partition(
        &self,
        plan: &[usize],
        affinity: &dyn Fn(&CubeId) -> TargetKind,
    ) -> Vec<Subgraph> {
        let mut out: Vec<Subgraph> = Vec::new();
        for &i in plan {
            let target = affinity(&self.statements[i].target);
            match out.last_mut() {
                Some(last) if last.target == target => last.statements.push(i),
                _ => out.push(Subgraph {
                    target,
                    statements: vec![i],
                }),
            }
        }
        out
    }

    /// Group subgraphs into *stages* for dispatch: a subgraph
    /// goes into the earliest stage after every subgraph it depends on
    /// (reads a cube produced by). Subgraphs within one stage are
    /// independent and can run concurrently.
    pub fn stages(&self, subgraphs: &[Subgraph]) -> Vec<Vec<usize>> {
        // cube -> producing subgraph
        let mut producer_sub: BTreeMap<&CubeId, usize> = BTreeMap::new();
        for (si, sub) in subgraphs.iter().enumerate() {
            for &stmt in &sub.statements {
                producer_sub.insert(&self.statements[stmt].target, si);
            }
        }
        // level per subgraph
        let mut level = vec![0usize; subgraphs.len()];
        for (si, sub) in subgraphs.iter().enumerate() {
            let mut lv = 0;
            for &stmt in &sub.statements {
                for r in self.statements[stmt].expr.cube_refs() {
                    if let Some(&p) = producer_sub.get(&r) {
                        if p != si {
                            lv = lv.max(level[p] + 1);
                        }
                    }
                }
            }
            level[si] = lv;
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut stages: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
        for (si, &lv) in level.iter().enumerate() {
            stages[lv].push(si);
        }
        stages.retain(|s| !s.is_empty());
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_lang::{analyze, parse_program};

    fn graph(srcs: &[&str]) -> GlobalGraph {
        let mut g = GlobalGraph::new();
        let mut external = Vec::new();
        for src in srcs {
            let analyzed = analyze(&parse_program(src).unwrap(), &external).unwrap();
            // later programs can reference earlier ones' cubes
            external.extend(analyzed.schemas.values().cloned());
            external.dedup_by(|a, b| a.id == b.id);
            g.add_program(&analyzed).unwrap();
        }
        g
    }

    const P1: &str = "cube A(k: int); B := 2 * A; C := B + A;";
    const P2: &str = "cube Z(k: int); D := C * Z; E := 3 * Z;";

    #[test]
    fn determine_propagates_through_programs() {
        let g = graph(&[P1, P2]);
        // changing A affects B, C, and (via C) D — but not E
        let plan = g.determine(&["A".into()]);
        let targets: Vec<&str> = plan
            .iter()
            .map(|&i| g.statements()[i].target.as_str())
            .collect();
        assert_eq!(targets, vec!["B", "C", "D"]);
        // changing Z affects D and E only
        let plan = g.determine(&["Z".into()]);
        let targets: Vec<&str> = plan
            .iter()
            .map(|&i| g.statements()[i].target.as_str())
            .collect();
        assert_eq!(targets, vec!["D", "E"]);
        // no change, no plan
        assert!(g.determine(&[]).is_empty());
    }

    #[test]
    fn duplicate_definition_across_programs_rejected() {
        let mut g = GlobalGraph::new();
        let a1 = analyze(&parse_program(P1).unwrap(), &[]).unwrap();
        g.add_program(&a1).unwrap();
        let a2 = analyze(
            &parse_program("cube A2(k: int); B := 5 * A2;").unwrap(),
            &[],
        )
        .unwrap();
        assert!(matches!(g.add_program(&a2), Err(EngineError::Catalog(_))));
    }

    #[test]
    fn partition_groups_consecutive_targets() {
        let g = graph(&[P1, P2]);
        let plan = g.determine(&["A".into(), "Z".into()]);
        // affinity: C and D go to SQL, everything else native
        let aff = |id: &CubeId| -> TargetKind {
            if id.as_str() == "C" || id.as_str() == "D" {
                TargetKind::Sql
            } else {
                TargetKind::Native
            }
        };
        let subs = g.partition(&plan, &aff);
        // plan: B(native), C(sql), D(sql), E(native) → 3 subgraphs
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].target, TargetKind::Native);
        assert_eq!(subs[1].target, TargetKind::Sql);
        assert_eq!(subs[1].statements.len(), 2);
        assert_eq!(subs[2].target, TargetKind::Native);
    }

    #[test]
    fn stages_expose_independent_subgraphs() {
        // two independent chains: each chain's subgraph can run in stage 0
        let g = graph(&["cube A(k: int); B := 2 * A;", "cube X(k: int); Y := 3 * X;"]);
        let plan = g.determine(&["A".into(), "X".into()]);
        // force two subgraphs by alternating targets
        let aff = |id: &CubeId| -> TargetKind {
            if id.as_str() == "B" {
                TargetKind::Native
            } else {
                TargetKind::Sql
            }
        };
        let subs = g.partition(&plan, &aff);
        assert_eq!(subs.len(), 2);
        let stages = g.stages(&subs);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].len(), 2);
    }

    #[test]
    fn stages_respect_dependencies() {
        let g = graph(&[P1, P2]);
        let plan = g.determine(&["A".into()]); // B, C, D
        let aff = |id: &CubeId| -> TargetKind {
            if id.as_str() == "D" {
                TargetKind::Sql
            } else {
                TargetKind::Native
            }
        };
        let subs = g.partition(&plan, &aff);
        assert_eq!(subs.len(), 2);
        let stages = g.stages(&subs);
        // D's subgraph reads C, so it must come in a later stage
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0], vec![0]);
        assert_eq!(stages[1], vec![1]);
    }

    #[test]
    fn producer_lookup() {
        let g = graph(&[P1]);
        assert!(g.producer(&"B".into()).is_some());
        assert!(g.producer(&"A".into()).is_none());
    }
}
