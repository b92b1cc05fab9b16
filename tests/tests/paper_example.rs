//! C1–C4: golden reproduction of every worked translation in the paper
//! (§2 tgd listings, §5.1 SQL, §5.2 R and Matlab), executed end to end.

use exl_lang::{analyze, parse_program};
use exl_map::generate::{generate_mapping, GenMode};
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

fn gdp_mapping() -> (exl_map::Mapping, exl_lang::AnalyzedProgram) {
    let analyzed = analyze(&parse_program(GDP_PROGRAM).unwrap(), &[]).unwrap();
    generate_mapping(&analyzed, GenMode::Fused).unwrap()
}

/// C1 — the five tgds of §2, in the paper's notation (our variable names).
#[test]
fn c1_gdp_program_generates_the_papers_five_tgds() {
    let (mapping, _) = gdp_mapping();
    let tgds: Vec<String> = mapping
        .statement_tgds
        .iter()
        .map(|t| t.to_string())
        .collect();
    assert_eq!(
        tgds,
        vec![
            // (1) PDR(t, r, p) → PQR(quarter(t), r, avg(p))
            "PDR(d, r, p) -> PQR(quarter(d), r, avg(p))",
            // (2) PQR(q, r, p) ∧ RGDPPC(q, r, g) → RGDP(q, r, p*g)
            "RGDPPC(q, r, g) ∧ PQR(q, r, m) -> RGDP(q, r, g * m)",
            // (3) RGDP(q, r, g) → GDP(q, sum(g))
            "RGDP(q, r, m) -> GDP(q, sum(m))",
            // (4) GDP → GDPT(stl_T(GDP))
            "GDP -> GDPT(stl_trend(GDP))",
            // (5) GDPT(q, r1) ∧ GDPT(q−1, r2) → PCHNG(q, (r1−r2)×100/r1)
            "GDPT(q, m1) ∧ GDPT(q-1, m2) -> PCHNG(q, 100 * (m1 - m2) / m1)",
        ]
    );
}

/// C1 (continued) — the egds that enforce cube functionality.
#[test]
fn c1_functionality_egds_generated_for_every_relation() {
    let (mapping, _) = gdp_mapping();
    let egds: Vec<String> = mapping.egds.iter().map(|e| e.to_string()).collect();
    assert!(egds.contains(&"GDP(x1, y1) ∧ GDP(x1, y2) -> (y1 = y2)".to_string()));
    assert_eq!(mapping.egds.len(), 7);
}

/// C2 — the SQL translations of §5.1: join shape for tgd (2), GROUP BY for
/// tgd (3), tabular function for tgd (4), self-join with temporal
/// arithmetic for tgd (5) — and they *execute* with the right results.
#[test]
fn c2_sql_translations_match_paper_shapes_and_run() {
    let (mapping, re) = gdp_mapping();
    let sql = exl_sqlgen::mapping_to_sql(&mapping).unwrap();

    // shapes (paper §5.1)
    assert!(sql[6].contains("FROM RGDPPC C1, PQR C2"), "{}", sql[6]);
    assert!(
        sql[6].contains("WHERE C2.q = C1.q AND C2.r = C1.r"),
        "{}",
        sql[6]
    );
    assert!(sql[7].contains("GROUP BY RGDP.q"), "{}", sql[7]);
    assert!(sql[8].contains("FROM STL_TREND(GDP)"), "{}", sql[8]);
    assert!(sql[9].contains("FROM GDPT C1, GDPT C2"), "{}", sql[9]);
    assert!(sql[9].contains("WHERE C2.q = C1.q - 1"), "{}", sql[9]);

    // execution
    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    let mut engine = exl_sqlengine::Engine::new();
    for (_, cube) in input.iter() {
        engine
            .execute_script(&exl_sqlgen::create_table_sql(&cube.schema))
            .unwrap();
        for stmt in exl_sqlgen::insert_data_sql(cube, 256) {
            engine.execute_script(&stmt).unwrap();
        }
    }
    for stmt in &sql {
        engine.execute_script(stmt).unwrap();
    }
    for id in analyzed.program.derived_ids() {
        let got = engine
            .db
            .table(id.as_str())
            .unwrap()
            .to_cube_data(&re.schemas[&id])
            .unwrap();
        let want = reference.data(&id).unwrap();
        assert!(
            got.approx_eq(want, 1e-9),
            "{id}: {:?}",
            got.diff(want, 1e-9)
        );
    }
}

/// C3 — the R translation follows the §5.2 idioms (merge on q,r; stl +
/// time.series trend extraction) and runs on the mini interpreter.
#[test]
fn c3_r_translation_matches_paper_idioms_and_runs() {
    let (mapping, re) = gdp_mapping();
    let script = exl_rgen::mapping_to_r(&mapping).unwrap();
    assert!(
        script.contains("merge(t1, t2, by=c(\"q\",\"r\"))"),
        "{script}"
    );
    assert!(script.contains("stl(GDP, \"periodic\")"), "{script}");
    assert!(script.contains("$time.series[ , \"trend\"]"), "{script}");

    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    let mut interp = exl_rmini::RInterp::new();
    for id in exl_rgen::required_inputs(&mapping) {
        interp.bind_frame(
            id.as_str(),
            exl_rmini::frame_from_cube(input.get(&id).unwrap()),
        );
    }
    interp.run(&script, &exl_obs::Span::disabled()).unwrap();
    for id in analyzed.program.derived_ids() {
        let got =
            exl_rmini::frame_to_cube_data(interp.frame(id.as_str()).unwrap(), &re.schemas[&id])
                .unwrap();
        let want = reference.data(&id).unwrap();
        assert!(
            got.approx_eq(want, 1e-9),
            "{id}: {:?}",
            got.diff(want, 1e-9)
        );
    }
}

/// C4 — the Matlab translation follows the §5.2 idioms (join on 1:2,
/// element-wise product, isolateTrend) and runs on the mini interpreter.
#[test]
fn c4_matlab_translation_matches_paper_idioms_and_runs() {
    let (mapping, re) = gdp_mapping();
    let script = exl_matgen::mapping_to_matlab(&mapping).unwrap();
    assert!(script.contains("join(t1, 1:2, t2, 1:2)"), "{script}");
    assert!(script.contains(".*"), "{script}");
    assert!(script.contains("isolateTrend(GDP, 1, 4)"), "{script}");

    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    let mut session = exl_matmini::MatSession::new();
    let mut interp = exl_matmini::MatInterp::new();
    for id in exl_matgen::required_inputs(&mapping) {
        interp.bind(id.as_str(), session.encode(input.get(&id).unwrap()));
    }
    interp.run(&script, &exl_obs::Span::disabled()).unwrap();
    for id in analyzed.program.derived_ids() {
        let got = session
            .decode(interp.matrix(id.as_str()).unwrap(), &re.schemas[&id])
            .unwrap();
        let want = reference.data(&id).unwrap();
        assert!(
            got.approx_eq(want, 1e-9),
            "{id}: {:?}",
            got.diff(want, 1e-9)
        );
    }
}

/// §4.1's worked normalization: statement (5) splits into the (5a)–(5d)
/// chain and the normalized program yields the same results.
#[test]
fn section41_normalization_5a_to_5d() {
    let program = parse_program(GDP_PROGRAM).unwrap();
    let normalized = exl_lang::normalize(&program);
    assert_eq!(normalized.statements.len(), 8); // 4 untouched + 4 for (5)
    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    let re = analyze(&normalized, &[]).unwrap();
    let a = exl_eval::run_program(&analyzed, &input).unwrap();
    let b = exl_eval::run_program(&re, &input).unwrap();
    let want = a.data(&"PCHNG".into()).unwrap();
    let got = b.data(&"PCHNG".into()).unwrap();
    assert!(got.approx_eq(want, 1e-12));
}
