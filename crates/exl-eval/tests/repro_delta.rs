// repro: keyed delta patch writes wrong values at unaffected keys
use exl_eval::delta::{changed_keys, eval_statement_delta};
use exl_eval::eval::eval_statement;
use exl_lang::{analyze, parse_program};
use exl_model::fingerprint::{CubeDelta, Fingerprint};
use exl_model::hash::FxHashMap;
use exl_model::schema::CubeId;
use exl_model::time::TimePoint;
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset};

fn q(y: i32, n: u32) -> DimValue {
    DimValue::Time(TimePoint::Quarter {
        year: y,
        quarter: n,
    })
}

#[test]
fn addz_shift_patch_bit_identity() {
    let src = "cube A(t: quarter); C := addz(A, shift(A, 1));";
    let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
    let stmt = analyzed.program.statements.last().unwrap();
    let mut env = Dataset::new();
    let old = CubeData::from_tuples(vec![
        (vec![q(2022, 1)], 1.0), // "A[8]"
        (vec![q(2022, 2)], 2.0), // "A[9]"
        (vec![q(2022, 3)], 5.0), // "A[10]"
    ])
    .unwrap();
    env.put(Cube::new(
        analyzed.schemas[&CubeId::new("A")].clone(),
        old.clone(),
    ));
    let prev_output = eval_statement(stmt, &env).unwrap();

    // change only A[2022Q3]
    let mut newa = old.clone();
    newa.insert_overwrite(vec![q(2022, 3)], 6.0);
    let mut new_env = Dataset::new();
    new_env.put(Cube::new(analyzed.schemas[&CubeId::new("A")].clone(), newa));

    let cold = eval_statement(stmt, &new_env).unwrap();
    let base = Fingerprint::of_cube(&old);
    let mut input_deltas: FxHashMap<CubeId, CubeDelta> = FxHashMap::default();
    input_deltas.insert(
        CubeId::new("A"),
        changed_keys(base, &old, new_env.data(&CubeId::new("A")).unwrap()),
    );
    let prev_fp = Fingerprint::of_cube(&prev_output);
    let (warm, delta) =
        eval_statement_delta(stmt, &new_env, &input_deltas, &prev_output, prev_fp, None)
            .unwrap()
            .expect("delta-eligible");
    // the output delta replays the old output onto the cold one
    let mut replayed = prev_output.clone();
    delta.patch(&mut replayed);
    assert_eq!(replayed, cold, "output delta does not replay");
    let mut c: Vec<_> = cold.iter().map(|(k, v)| (k.clone(), v)).collect();
    let mut w: Vec<_> = warm.iter().map(|(k, v)| (k.clone(), v)).collect();
    c.sort_by(|a, b| a.0.cmp(&b.0));
    w.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(c, w, "cold vs warm mismatch");
}
