//! The chase driver: stratified (the paper's variant) and fair
//! (unstratified) application orders.

use std::collections::BTreeMap;

use exl_map::dep::Mapping;
use exl_model::schema::{CubeId, CubeSchema};
use exl_model::Dataset;

use crate::apply::apply_tgd;
use crate::error::ChaseError;
use crate::instance::Instance;

/// Rule-application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseMode {
    /// §4.2's variant: apply the tgds in statement order, completely
    /// applying each rule before the next. Terminates and never fails for
    /// mappings generated from well-formed EXL programs.
    Stratified,
    /// Classical fair chase: keep cycling over all tgds until no rule adds
    /// a fact. Terminates on full tuple-level tgds (the classical result
    /// cited in §4.2) but — as the paper warns — applies aggregations and
    /// table functions to *incomplete* operands, which can derive
    /// conflicting facts and make the chase fail on an egd. The B3
    /// benchmark and the failure-injection tests exercise both outcomes.
    Fair,
}

/// Counters describing a chase run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// tgd applications performed (including no-op re-applications in
    /// fair mode).
    pub applications: usize,
    /// Homomorphisms enumerated across all applications.
    pub homomorphisms: usize,
    /// Facts added to the target instance.
    pub facts_generated: usize,
    /// Full passes over the rule set (1 for stratified).
    pub passes: usize,
}

/// Result of a successful chase: the solution instance as a dataset, plus
/// run statistics.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The universal solution of the data exchange problem — by §4.2 equal
    /// to the EXL program output.
    pub solution: Dataset,
    /// Run counters.
    pub stats: ChaseStats,
}

/// Solve the data exchange problem `(M, I)`: find `J` such that `⟨I, J⟩`
/// satisfies `Σst` and `J` satisfies `Σt`.
///
/// `schemas` must cover every relation in the mapping (the re-analyzed
/// program's schema table from `generate_mapping` does).
pub fn chase(
    mapping: &Mapping,
    schemas: &BTreeMap<CubeId, CubeSchema>,
    source: &Dataset,
    mode: ChaseMode,
) -> Result<ChaseResult, ChaseError> {
    chase_traced(
        mapping,
        schemas,
        source,
        mode,
        &exl_obs::NoopRecorder,
        &exl_obs::Span::disabled(),
    )
}

/// [`chase`] with observability: the run is timed under the
/// `chase.run` span and the [`ChaseStats`] counters are mirrored into
/// the recorder as `chase.applications` / `chase.homomorphisms` /
/// `chase.facts_generated` / `chase.passes`. Each tgd application
/// becomes a `chase.tgd` child span of `trace`, carrying the target
/// relation, its dependency relations, and the homomorphism/fact counts
/// of that step — the chase's contribution to the run's lineage tree.
pub fn chase_traced(
    mapping: &Mapping,
    schemas: &BTreeMap<CubeId, CubeSchema>,
    source: &Dataset,
    mode: ChaseMode,
    recorder: &dyn exl_obs::Recorder,
    trace: &exl_obs::Span,
) -> Result<ChaseResult, ChaseError> {
    let _span = exl_obs::span(recorder, "chase.run");
    let result = chase_inner(mapping, schemas, source, mode, trace);
    if let Ok(r) = &result {
        recorder.incr_counter("chase.applications", r.stats.applications as u64);
        recorder.incr_counter("chase.homomorphisms", r.stats.homomorphisms as u64);
        recorder.incr_counter("chase.facts_generated", r.stats.facts_generated as u64);
        recorder.incr_counter("chase.passes", r.stats.passes as u64);
    }
    result
}

/// Apply one statement tgd under a `chase.tgd` span recording the step's
/// provenance: which relation it populates, which it reads, and how much
/// work the application did.
fn apply_tgd_traced(
    tgd: &exl_map::dep::Tgd,
    instance: &mut Instance,
    schemas: &BTreeMap<CubeId, CubeSchema>,
    trace: &exl_obs::Span,
) -> Result<crate::apply::ApplyStats, ChaseError> {
    let span = trace.child("chase.tgd");
    if span.is_enabled() {
        span.set_attr("cube", tgd.target_relation().to_string());
        let deps: Vec<String> = tgd
            .source_relations()
            .iter()
            .map(|r| r.to_string())
            .collect();
        span.set_attr("reads", deps.join(","));
    }
    let applied = apply_tgd(tgd, instance, schemas)?;
    // derived facts count against the run budget (key + measure cells,
    // coarsely; dimension arity is not known here, assume two cells)
    exl_fault::govern::charge(
        applied.new_facts as u64,
        exl_fault::govern::approx_cube_bytes(applied.new_facts as u64, 2),
    );
    if span.is_enabled() {
        span.set_attr("homomorphisms", applied.homomorphisms as u64);
        span.set_attr("new_facts", applied.new_facts as u64);
    }
    Ok(applied)
}

fn chase_inner(
    mapping: &Mapping,
    schemas: &BTreeMap<CubeId, CubeSchema>,
    source: &Dataset,
    mode: ChaseMode,
    trace: &exl_obs::Span,
) -> Result<ChaseResult, ChaseError> {
    // The running instance starts as ⟨I, ∅⟩; applying Σst copies the
    // source relations into their target counterparts. We keep source and
    // target relations in one namespace, as the paper does after noting
    // the renaming is immaterial.
    let mut instance = Instance::from_dataset(source);
    let mut stats = ChaseStats::default();

    for tgd in &mapping.copy_tgds {
        let a = apply_tgd(tgd, &mut instance, schemas)?;
        stats.applications += 1;
        stats.homomorphisms += a.homomorphisms;
        // copies land in the same-named relation: no new facts by design
    }

    match mode {
        ChaseMode::Stratified => {
            stats.passes = 1;
            for tgd in &mapping.statement_tgds {
                let a = apply_tgd_traced(tgd, &mut instance, schemas, trace)?;
                stats.applications += 1;
                stats.homomorphisms += a.homomorphisms;
                stats.facts_generated += a.new_facts;
                // within a stratum the rule is applied completely; since
                // its operands are final, one application reaches the
                // rule's fixpoint (re-application adds nothing — checked
                // by the idempotence test below)
            }
        }
        ChaseMode::Fair => {
            const MAX_PASSES: usize = 10_000;
            loop {
                stats.passes += 1;
                if stats.passes > MAX_PASSES {
                    return Err(ChaseError::NoFixpoint {
                        passes: stats.passes,
                    });
                }
                let mut added = 0;
                for tgd in &mapping.statement_tgds {
                    let a = apply_tgd_traced(tgd, &mut instance, schemas, trace)?;
                    stats.applications += 1;
                    stats.homomorphisms += a.homomorphisms;
                    stats.facts_generated += a.new_facts;
                    added += a.new_facts;
                    // fail-fast on conflicts, like the classical chase
                    if let Some((rel, key, l, r)) = instance.egd_violation() {
                        return Err(ChaseError::EgdViolation {
                            relation: rel.to_string(),
                            key: exl_model::format_tuple(&key),
                            left: l,
                            right: r,
                        });
                    }
                }
                if added == 0 {
                    break;
                }
            }
        }
    }

    // final egd check: the solution must satisfy Σt's egds
    if let Some((rel, key, l, r)) = instance.egd_violation() {
        return Err(ChaseError::EgdViolation {
            relation: rel.to_string(),
            key: exl_model::format_tuple(&key),
            left: l,
            right: r,
        });
    }

    Ok(ChaseResult {
        solution: instance.to_dataset(schemas),
        stats,
    })
}

/// Re-apply every statement tgd once to a solved instance and report
/// whether anything changed — used by tests to verify that the stratified
/// chase really reached a fixpoint (every tgd is satisfied).
pub fn is_fixpoint(
    mapping: &Mapping,
    schemas: &BTreeMap<CubeId, CubeSchema>,
    solution: &Dataset,
) -> Result<bool, ChaseError> {
    let mut instance = Instance::from_dataset(solution);
    for tgd in &mapping.statement_tgds {
        let a = apply_tgd(tgd, &mut instance, schemas)?;
        if a.new_facts > 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Convenience: strip a solution down to the relations named by `ids`
/// (e.g. only the original program's derived cubes, hiding auxiliary
/// cubes introduced by rewriting).
pub fn restrict_solution(solution: &Dataset, ids: &[CubeId]) -> Dataset {
    solution.restrict(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_lang::{analyze, parse_program};
    use exl_map::generate::{generate_mapping, GenMode};
    use exl_model::time::TimePoint;
    use exl_model::value::DimValue;
    use exl_model::{Cube, CubeData};

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    const GDP_SRC: &str = r#"
        cube PDR(d: time[day], r: text) -> p;
        cube RGDPPC(q: time[quarter], r: text) -> g;
        PQR := avg(PDR, group by quarter(d) as q, r);
        RGDP := RGDPPC * PQR;
        GDP := sum(RGDP, group by q);
        GDPT := stl_trend(GDP);
        PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
    "#;

    fn day(y: i32, m: u32, d: u32) -> DimValue {
        DimValue::Time(TimePoint::Day(exl_model::Date::from_ymd(y, m, d).unwrap()))
    }

    fn gdp_input(analyzed: &exl_lang::AnalyzedProgram) -> Dataset {
        let mut pdr = Vec::new();
        let mut rgdppc = Vec::new();
        for yq in 0..8i64 {
            let (y, qu) = ((2019 + yq / 4) as i32, (yq % 4 + 1) as u32);
            let m = (qu - 1) * 3 + 1;
            for r in ["north", "south"] {
                pdr.push((vec![day(y, m, 1), DimValue::str(r)], 100.0 + yq as f64));
                pdr.push((vec![day(y, m, 15), DimValue::str(r)], 102.0 + yq as f64));
                rgdppc.push((
                    vec![q(y, qu), DimValue::str(r)],
                    30.0 + yq as f64 + if r == "north" { 5.0 } else { 0.0 },
                ));
            }
        }
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("PDR")].clone(),
            CubeData::from_tuples(pdr).unwrap(),
        ));
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("RGDPPC")].clone(),
            CubeData::from_tuples(rgdppc).unwrap(),
        ));
        ds
    }

    /// §4.2's theorem, empirically: the chase solution equals the output
    /// of the EXL program.
    #[test]
    fn chase_equals_reference_interpreter_on_gdp() {
        let analyzed = analyze(&parse_program(GDP_SRC).unwrap(), &[]).unwrap();
        let input = gdp_input(&analyzed);
        let reference = exl_eval::run_program(&analyzed, &input).unwrap();

        for mode in [GenMode::Fused, GenMode::Normalized] {
            let (mapping, re) = generate_mapping(&analyzed, mode).unwrap();
            let result = chase(&mapping, &re.schemas, &input, ChaseMode::Stratified).unwrap();
            for id in analyzed.program.derived_ids() {
                let chased = result.solution.data(&id).unwrap();
                let evaled = reference.data(&id).unwrap();
                assert!(
                    chased.approx_eq(evaled, 1e-9),
                    "{mode:?} {id}: {:?}",
                    chased.diff(evaled, 1e-9)
                );
            }
            assert!(is_fixpoint(&mapping, &re.schemas, &result.solution).unwrap());
            assert!(result.stats.facts_generated > 0);
        }
    }

    #[test]
    fn fair_chase_agrees_on_tuple_level_programs() {
        let src = r#"
            cube A(q: quarter) -> y;
            B := 2 * A;
            C := B + A;
            D := shift(C, 1);
        "#;
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(
                (1..5)
                    .map(|i| (vec![q(2020, i)], i as f64))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        ));
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let strat = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        let fair = chase(&mapping, &re.schemas, &ds, ChaseMode::Fair).unwrap();
        assert!(strat
            .solution
            .approx_eq_report(&fair.solution, 1e-12)
            .is_ok());
        // fair mode needs at least one extra pass to detect the fixpoint
        assert!(fair.stats.passes > 1);
        assert_eq!(strat.stats.passes, 1);
    }

    /// The paper's warning made concrete: an unstratified chase applies a
    /// multi-tuple rule before its operand is complete; when the operand
    /// later grows, the rule re-derives a *different* value for the same
    /// dimension tuple and the chase fails on the functionality egd.
    #[test]
    fn fair_chase_can_fail_on_aggregation() {
        let src = r#"
            cube A(q: quarter, r: text) -> y;
            B := 2 * A;
            D := addz(B, A);
            C := sum(D, group by q);
        "#;
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![
                (vec![q(2020, 1), DimValue::str("n")], 1.0),
                (vec![q(2020, 1), DimValue::str("s")], 2.0),
            ])
            .unwrap(),
        ));
        let (mut mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        // in the correct (stratified) order everything is fine
        let ok = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        assert_eq!(
            ok.solution
                .data(&CubeId::new("C"))
                .unwrap()
                .get(&[q(2020, 1)]),
            Some(9.0) // (2·1+1) + (2·2+2)
        );
        // adversarial order: the consumers fire before their producers
        mapping.statement_tgds.reverse();
        let fair = chase(&mapping, &re.schemas, &ds, ChaseMode::Fair);
        // pass 1 computes D = addz(∅, A) = A's values; pass 2 sees B and
        // derives D = B + A ≠ A on the same keys → egd violation
        assert!(
            matches!(fair, Err(ChaseError::EgdViolation { .. })),
            "{fair:?}"
        );
        // stratified-with-wrong-order does not *fail*, but silently
        // produces the wrong (incomplete) result — which is exactly why
        // §4.2 requires the statement order
        let wrong = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        let d_wrong = wrong.solution.data(&CubeId::new("D")).unwrap();
        assert_eq!(d_wrong.get(&[q(2020, 1), DimValue::str("n")]), Some(1.0)); // should be 3.0
    }

    /// Failure injection: non-functional *base data* violates the source
    /// egd and is reported.
    #[test]
    fn non_functional_source_fails_the_chase() {
        let src = "cube A(k: int) -> y; B := 2 * A;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();

        // craft a dataset whose cube data is functional per CubeData, then
        // inject the conflict at the instance level via a second cube —
        // easiest path: chase from a dataset, then insert the conflicting
        // fact directly into the instance-like dataset is impossible, so
        // emulate by chasing a dataset where A appears with conflicting
        // values through two different cubes is also impossible. Instead,
        // we bypass CubeData's constructor guarantees using
        // insert_overwrite on *distinct* keys and then make the tgd
        // collapse them: B := sum over a constant key would do it, but the
        // cleanest injection is a direct Instance test.
        use crate::instance::Instance;
        let mut inst = Instance::new();
        inst.insert(&CubeId::new("A"), vec![DimValue::Int(1)], 1.0);
        inst.insert(&CubeId::new("A"), vec![DimValue::Int(1)], 2.0);
        assert!(inst.egd_violation().is_some());

        // and the public API path: a shift that makes two source tuples
        // collide cannot happen (shift is injective), but a *table
        // function* on a non-functional operand is caught:
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        ));
        let ok = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        assert_eq!(ok.solution.data(&CubeId::new("B")).unwrap().len(), 1);
    }

    #[test]
    fn division_by_zero_tuples_dropped_by_chase_too() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := A / B;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![
                (vec![DimValue::Int(1)], 1.0),
                (vec![DimValue::Int(2)], 4.0),
            ])
            .unwrap(),
        ));
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("B")].clone(),
            CubeData::from_tuples(vec![
                (vec![DimValue::Int(1)], 0.0),
                (vec![DimValue::Int(2)], 2.0),
            ])
            .unwrap(),
        ));
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let out = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        let c = out.solution.data(&CubeId::new("C")).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&[DimValue::Int(2)]), Some(2.0));
    }

    #[test]
    fn outer_tgd_unions_domains() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let mut ds = Dataset::new();
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        ));
        ds.put(Cube::new(
            analyzed.schemas[&CubeId::new("B")].clone(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 5.0)]).unwrap(),
        ));
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let out = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        let c = out.solution.data(&CubeId::new("C")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&[DimValue::Int(1)]), Some(1.0));
        assert_eq!(c.get(&[DimValue::Int(2)]), Some(5.0));
    }

    #[test]
    fn empty_source_chases_to_empty_solution() {
        let analyzed = analyze(&parse_program(GDP_SRC).unwrap(), &[]).unwrap();
        let mut ds = Dataset::new();
        for id in ["PDR", "RGDPPC"] {
            ds.put(Cube::new(
                analyzed.schemas[&CubeId::new(id)].clone(),
                CubeData::new(),
            ));
        }
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let out = chase(&mapping, &re.schemas, &ds, ChaseMode::Stratified).unwrap();
        assert_eq!(out.stats.facts_generated, 0);
        for id in analyzed.program.derived_ids() {
            assert!(out.solution.data(&id).map(|d| d.is_empty()).unwrap_or(true));
        }
    }
}
