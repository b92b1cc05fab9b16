//! F1 — Figure 1 of the paper: the ETL flow generated for tgd (2), as a
//! structural assertion plus execution, and the overall job structure for
//! the full GDP program.

use exl_etl::{mapping_to_job, JoinKind, TransformStep};
use exl_lang::{analyze, parse_program};
use exl_map::generate::{generate_mapping, GenMode};
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

#[test]
fn fig1_tgd2_flow_topology() {
    let analyzed = analyze(&parse_program(GDP_PROGRAM).unwrap(), &[]).unwrap();
    let (mapping, _) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
    let job = mapping_to_job(&mapping).unwrap();
    let flow = &job.flows[1]; // tgd (2)

    // Figure 1: two data sources …
    assert_eq!(flow.sources.len(), 2);
    let sources: Vec<&str> = flow.sources.iter().map(|s| s.relation.as_str()).collect();
    assert!(sources.contains(&"PQR"));
    assert!(sources.contains(&"RGDPPC"));
    // … a merge step on the dimensions q, r …
    assert_eq!(flow.merges.len(), 1);
    assert_eq!(flow.merges[0].keys, vec!["q".to_string(), "r".to_string()]);
    assert_eq!(flow.merges[0].kind, JoinKind::Inner);
    // … a calculation step combining the measures …
    let calc = flow
        .transforms
        .iter()
        .find_map(|t| match t {
            TransformStep::Calculator { expr, .. } => Some(expr),
            _ => None,
        })
        .expect("calculator step");
    assert_eq!(calc.vars().len(), 2); // the two measure fields
                                      // … and an output step writing RGDP.
    assert_eq!(flow.output.relation.as_str(), "RGDP");
}

#[test]
fn fig1_every_tuple_treated_exactly_once() {
    // the paper's closing remark on Fig. 1: "every tuple in the sources is
    // fed into the stream and treated exactly once" — with an inner merge
    // and functional sources, the output size equals the join size and
    // re-running the flow is deterministic
    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    let (mapping, _) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
    let job = mapping_to_job(&mapping).unwrap();
    let once = job.run(&input, &exl_obs::Span::disabled()).unwrap();
    let twice = job.run(&input, &exl_obs::Span::disabled()).unwrap();
    assert!(once.approx_eq_report(&twice, 0.0).is_ok());
    // RGDP has one tuple per (quarter, region)
    let cfg = GdpConfig::default();
    assert_eq!(
        once.data(&"RGDP".into()).unwrap().len(),
        cfg.regions * cfg.quarters
    );
}

#[test]
fn job_has_one_flow_per_tgd_in_total_order() {
    let analyzed = analyze(&parse_program(GDP_PROGRAM).unwrap(), &[]).unwrap();
    let (mapping, _) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
    let job = mapping_to_job(&mapping).unwrap();
    assert_eq!(job.flows.len(), mapping.statement_tgds.len());
    let targets: Vec<&str> = job
        .flows
        .iter()
        .map(|f| f.output.relation.as_str())
        .collect();
    assert_eq!(targets, vec!["PQR", "RGDP", "GDP", "GDPT", "PCHNG"]);
}
