//! Delta-aware incremental re-evaluation of statements.
//!
//! A vintage update touches a handful of observations; recomputing every
//! derived cube from zero throws that sparsity away. This module
//! re-evaluates a statement from its previous output plus the *change
//! sets* of its inputs ([`CubeDelta`]s, each against the input version the
//! previous output was computed from), recomputing only what the changed
//! keys can reach:
//!
//! * **Keyed statements** — expression trees built from the tuple-level
//!   operators (scalar/vectorial arithmetic, unary maps, `shift`) compute
//!   each output key from a fixed set of aligned input keys. The affected
//!   output keys are the forward images of the changed input keys through
//!   the tree's shift chain; the statement is re-evaluated on the inputs
//!   restricted to their preimages and the previous output is patched.
//! * **Grouped statements** — a root aggregation over a tuple-level
//!   argument recomputes only the touched groups, feeding each one its
//!   *complete* bag (the *algebraic aggregate* maintenance of Gray et
//!   al.'s data cube, specialized to whole-group replay so the fold order
//!   — and therefore every float — matches the cold path bit for bit).
//!   Finding a touched group's rows is one scan of the argument's inputs
//!   through a reused scratch key: no allocation per row.
//! * Everything else — series operators (`stl_*`, `cumsum`, …) and nested
//!   aggregations — is whole-cube: any changed key can move every output
//!   value, so the caller must fall back to a full recompute.
//!
//! Every patch returns the output's own change set beside the patched
//! output, so a chain of statements carries deltas downstream without
//! diffing any derived cube. When a caller has no delta for an input it
//! diffs the two versions with [`changed_keys`]: free when both share
//! storage, otherwise one pass over the new version that walks the old
//! one alongside in storage order, probing a hash table only where the
//! two orders diverge.
//!
//! The contract, pinned by the `incremental_differential` suite, is
//! **bit-identity**: a patched output equals the cold from-scratch output
//! of [`eval_statement`](crate::eval::eval_statement) on the current
//! inputs, bit for bit, and its delta is exactly the difference between
//! the previous and the patched output.
//! This holds because affected keys/groups are recomputed by the very
//! same kernels over the very same (restricted) rows, and unaffected keys
//! keep values that were themselves cold-path results.

use exl_lang::ast::{Expr, GroupKey, Statement};
use exl_model::fingerprint::{CubeDelta, Fingerprint, Upsert};
use exl_model::hash::{FxHashMap, FxHashSet};
use exl_model::schema::{CubeId, Dimension};
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, DimTuple};

use crate::error::EvalError;
use crate::eval::{eval_statement_with_threads, key_parts, part_value};

/// The change set turning `old` (whose fingerprint is `base`) into `new`:
/// inserted and updated keys (by measure bits — the cache promises
/// bit-identical replay) and removed keys.
///
/// Costs nothing when both versions share storage. Otherwise it is one
/// pass over `new` with a cursor walking `old` alongside in storage
/// order. The hasher is deterministic, so two versions built by the same
/// insertion sequence, or one patched from a copy of the other, keep
/// nearly the same storage order, and most keys match at the cursor
/// without a hash probe. Where the orders diverge, the new key is looked
/// up in `old`, and the cursor entry it steps past is looked up in `new`.
/// The old entries the pass leaves behind are looked up only while the
/// length arithmetic says removed rows are still unfound. Any storage
/// order gives the same change set; only the number of probes differs.
pub fn changed_keys(base: Fingerprint, old: &CubeData, new: &CubeData) -> CubeDelta {
    let mut delta = CubeDelta::new(base);
    if old.storage_ptr() == new.storage_ptr() {
        return delta;
    }
    let mut cursor = old.iter().peekable();
    // an old entry the cursor steps past is removed when `new` lacks it
    let step_past = |delta: &mut CubeDelta, (k, v): (&DimTuple, f64)| {
        let gone = new.get(k).is_none();
        if gone {
            delta.removed.push((k.clone(), v.to_bits()));
        }
        gone
    };
    let mut matched = 0usize;
    for (k, v) in new.iter() {
        let old_bits = match cursor.next_if(|(ok, _)| *ok == k) {
            Some((_, o)) => Some(o.to_bits()),
            None => {
                let found = old.get(k).map(f64::to_bits);
                if found.is_some() {
                    // the orders diverge: step the cursor past the entry
                    // it holds (removed, or in `new` further on) and past
                    // `k` if that comes next
                    if let Some(entry) = cursor.next() {
                        step_past(&mut delta, entry);
                    }
                    cursor.next_if(|(ok, _)| *ok == k);
                }
                found
            }
        };
        matched += usize::from(old_bits.is_some());
        if old_bits != Some(v.to_bits()) {
            delta.upserts.push(Upsert {
                key: k.clone(),
                old: old_bits,
                new: v.to_bits(),
            });
        }
    }
    // every old key is either matched by a new key or removed
    let mut unfound = old.len() - matched - delta.removed.len();
    for entry in cursor {
        if unfound == 0 {
            break;
        }
        if step_past(&mut delta, entry) {
            unfound -= 1;
        }
    }
    delta
}

/// Rows of the two versions [`changed_keys`] compares: none when they
/// share storage, else the rows of both.
pub fn diff_rows(old: &CubeData, new: &CubeData) -> u64 {
    if old.storage_ptr() == new.storage_ptr() {
        return 0;
    }
    (old.len() + new.len()) as u64
}

/// How a statement can be maintained incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaShape {
    /// Tuple-level tree: patch affected output keys.
    Keyed,
    /// Root aggregation over a tuple-level argument: replay touched
    /// groups with their full bags.
    Grouped,
    /// Whole-cube (series operators, nested aggregation): always
    /// recompute from scratch.
    Full,
}

/// Classify an expression for incremental maintenance.
pub fn delta_shape(expr: &Expr) -> DeltaShape {
    if tuple_level(expr) {
        return DeltaShape::Keyed;
    }
    if let Expr::Aggregate { arg, .. } = expr {
        if tuple_level(arg) {
            return DeltaShape::Grouped;
        }
    }
    DeltaShape::Full
}

/// True when the tree contains only per-key operators: each output key's
/// value depends on a fixed set of input keys (its shift preimages).
fn tuple_level(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) | Expr::Cube(_) => true,
        Expr::Unary { arg, .. } | Expr::Shift { arg, .. } => tuple_level(arg),
        Expr::Binary { lhs, rhs, .. } => tuple_level(lhs) && tuple_level(rhs),
        Expr::Aggregate { .. } | Expr::SeriesFn { .. } => false,
    }
}

/// One cube occurrence in a tuple-level tree, with the shift steps
/// between it and the tree's root. Shifts on a key are per-dimension
/// additions, so they commute and the step order does not matter.
struct Leaf {
    id: CubeId,
    chain: Vec<(usize, i64)>,
}

/// Dimensions of a tuple-level subexpression (all nodes of such a tree
/// share one positional key space — binary operators align operands
/// positionally and take the left side's dimensions).
fn dims_of(expr: &Expr, env: &Dataset) -> Option<Vec<Dimension>> {
    match expr {
        Expr::Cube(id) => env.get(id).map(|c| c.schema.dims.clone()),
        Expr::Unary { arg, .. } | Expr::Shift { arg, .. } => dims_of(arg, env),
        Expr::Binary { lhs, rhs, .. } => dims_of(lhs, env).or_else(|| dims_of(rhs, env)),
        Expr::Number(_) | Expr::Aggregate { .. } | Expr::SeriesFn { .. } => None,
    }
}

/// Collect every cube occurrence of a tuple-level tree with its shift
/// chain. `None` means the tree cannot be mapped (a shift dimension did
/// not resolve) and the caller must fall back to a full recompute.
fn collect_leaves(
    expr: &Expr,
    env: &Dataset,
    chain: &mut Vec<(usize, i64)>,
    out: &mut Vec<Leaf>,
) -> Option<()> {
    match expr {
        Expr::Number(_) => Some(()),
        Expr::Cube(id) => {
            out.push(Leaf {
                id: id.clone(),
                chain: chain.clone(),
            });
            Some(())
        }
        Expr::Unary { arg, .. } => collect_leaves(arg, env, chain, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_leaves(lhs, env, chain, out)?;
            collect_leaves(rhs, env, chain, out)
        }
        Expr::Shift { arg, offset, dim } => {
            let dims = dims_of(arg, env)?;
            let idx = match dim.as_deref() {
                Some(name) => dims.iter().position(|d| d.name == name)?,
                None => dims.iter().position(|d| d.ty.is_time())?,
            };
            chain.push((idx, *offset));
            let r = collect_leaves(arg, env, chain, out);
            chain.pop();
            r
        }
        Expr::Aggregate { .. } | Expr::SeriesFn { .. } => None,
    }
}

/// Map a key through a shift chain into `out` (`sign = 1` leaf→root
/// forward image, `sign = -1` root→leaf preimage), mirroring the
/// evaluator's shift semantics exactly. `None` when a shifted dimension
/// holds a value the evaluator would reject (or an integer overflows) —
/// the caller bails to a full recompute so errors surface on the cold
/// path.
fn shift_into(
    key: &[DimValue],
    chain: &[(usize, i64)],
    sign: i64,
    out: &mut DimTuple,
) -> Option<()> {
    out.clear();
    out.extend_from_slice(key);
    for &(idx, off) in chain {
        let off = off.checked_mul(sign)?;
        let slot = out.get_mut(idx)?;
        *slot = match &*slot {
            DimValue::Time(t) => DimValue::Time(t.shift(off)),
            DimValue::Int(i) => DimValue::Int(i.checked_add(off)?),
            _ => return None,
        };
    }
    Some(())
}

/// [`shift_into`] a fresh tuple.
fn shift_key(key: &[DimValue], chain: &[(usize, i64)], sign: i64) -> Option<DimTuple> {
    let mut k = Vec::with_capacity(key.len());
    shift_into(key, chain, sign, &mut k)?;
    Some(k)
}

/// Incrementally re-evaluate `stmt` against the current inputs in `env`,
/// given the change set of every input cube against the version the
/// previous output was computed from, and that previous output with its
/// fingerprint.
///
/// Returns `Ok(None)` when the statement is not eligible (whole-cube
/// operators, unmapped shift dimensions, an input without a delta, or a
/// delta too large for patching to pay off) — the caller falls back to
/// [`eval_statement`](crate::eval::eval_statement).
/// `Ok(Some((out, delta)))`: `out` is bit-identical to
/// `eval_statement(stmt, env)`, and `delta` (based on `prev_output_fp`)
/// is exactly the change from `prev_output` to `out`. When nothing
/// changed, `out` shares `prev_output`'s storage. The patch evaluation
/// runs on `threads` evaluator workers (`None` probes the machine).
pub fn eval_statement_delta(
    stmt: &Statement,
    env: &Dataset,
    input_deltas: &FxHashMap<CubeId, CubeDelta>,
    prev_output: &CubeData,
    prev_output_fp: Fingerprint,
    threads: Option<usize>,
) -> Result<Option<(CubeData, CubeDelta)>, EvalError> {
    let shape = delta_shape(&stmt.expr);
    if shape == DeltaShape::Full {
        return Ok(None);
    }

    let refs = stmt.expr.cube_refs();
    let mut total_rows = 0usize;
    let mut changed = false;
    for id in &refs {
        let (Some(cur), Some(delta)) = (env.data(id), input_deltas.get(id)) else {
            return Ok(None);
        };
        total_rows += cur.len();
        changed |= !delta.is_empty();
    }
    let mut delta = CubeDelta::new(prev_output_fp);
    if !changed {
        // inputs are bit-identical to the previous run: the previous
        // output *is* the answer
        return Ok(Some((prev_output.clone(), delta)));
    }

    let patched = match shape {
        DeltaShape::Keyed => patch_keyed(stmt, env, input_deltas, total_rows, threads)?,
        DeltaShape::Grouped => patch_grouped(stmt, env, input_deltas, threads)?,
        DeltaShape::Full => unreachable!("rejected above"),
    };
    let Some((affected, patch)) = patched else {
        return Ok(None);
    };
    for k in affected {
        let old = prev_output.get(&k).map(f64::to_bits);
        match patch.get(&k).map(f64::to_bits) {
            Some(new) if old != Some(new) => delta.upserts.push(Upsert { key: k, old, new }),
            Some(_) => {}
            None => {
                if let Some(old) = old {
                    delta.removed.push((k, old));
                }
            }
        }
    }
    let mut out = prev_output.clone();
    delta.patch(&mut out);
    Ok(Some((out, delta)))
}

/// The output keys a patch recomputes, and the patch evaluated over them.
type Patch = Option<(FxHashSet<DimTuple>, CubeData)>;

/// Keyed patch: recompute exactly the forward images of the changed keys.
fn patch_keyed(
    stmt: &Statement,
    env: &Dataset,
    deltas: &FxHashMap<CubeId, CubeDelta>,
    total_rows: usize,
    threads: Option<usize>,
) -> Result<Patch, EvalError> {
    let mut leaves = Vec::new();
    if collect_leaves(&stmt.expr, env, &mut Vec::new(), &mut leaves).is_none() {
        return Ok(None);
    }

    // affected output keys: forward images of every changed key through
    // every occurrence of its cube
    let mut affected: FxHashSet<DimTuple> = FxHashSet::default();
    for leaf in &leaves {
        for k in deltas[&leaf.id].keys() {
            match shift_key(k, &leaf.chain, 1) {
                Some(out_k) => {
                    affected.insert(out_k);
                }
                // a changed key the evaluator would reject (or overflow):
                // let the cold path raise the error
                None => return Ok(None),
            }
        }
    }
    // patching probes every leaf once per affected key; past that point
    // the full kernels are cheaper (the floor keeps small cubes eligible,
    // where either path is trivially cheap and bit-identity still pays)
    if affected.len().saturating_mul(leaves.len()) > total_rows.max(64) {
        return Ok(None);
    }

    // restrict every input to the preimages of the affected keys
    let mut renv = Dataset::new();
    for id in stmt.expr.cube_refs() {
        let cube = env.get(&id).expect("checked by caller");
        let mut r = CubeData::new();
        for leaf in leaves.iter().filter(|l| l.id == id) {
            for out_k in &affected {
                // no preimage = no input row can land on this key
                if let Some(ik) = shift_key(out_k, &leaf.chain, -1) {
                    if let Some(v) = cube.data.get(&ik) {
                        r.insert_overwrite(ik, v);
                    }
                }
            }
        }
        renv.put(Cube::new(cube.schema.clone(), r));
    }

    // the restricted inputs are complete only for the affected keys; a
    // key outside the set (e.g. an outer join defaulting where a partner
    // row was restricted away) is computed from partial inputs and the
    // caller reads the patch at affected keys only
    let patch = eval_statement_with_threads(stmt, &renv, threads)?;
    Ok(Some((affected, patch)))
}

/// Grouped patch: replay the touched groups with their complete bags.
fn patch_grouped(
    stmt: &Statement,
    env: &Dataset,
    deltas: &FxHashMap<CubeId, CubeDelta>,
    threads: Option<usize>,
) -> Result<Patch, EvalError> {
    let Expr::Aggregate { arg, group_by, .. } = &stmt.expr else {
        unreachable!("classified as Grouped");
    };
    let Some(arg_dims) = dims_of(arg, env) else {
        return Ok(None);
    };
    if group_by.iter().any(|g| match g {
        GroupKey::Dim(name) => !arg_dims.iter().any(|d| &d.name == name),
        GroupKey::TimeMap { dim, .. } => !arg_dims.iter().any(|d| &d.name == dim),
    }) {
        return Ok(None);
    }
    let Ok(parts) = key_parts(&arg_dims, group_by) else {
        return Ok(None);
    };
    // the group key of `k`'s forward image through `chain`, written into
    // `group` (`shifted` is scratch); false when the shift or the
    // group-by rejects the key — the caller bails to the cold path, which
    // raises the error
    let group_into = |k: &DimTuple,
                      chain: &[(usize, i64)],
                      shifted: &mut DimTuple,
                      group: &mut DimTuple|
     -> bool {
        let image = if chain.is_empty() {
            k
        } else if shift_into(k, chain, 1, shifted).is_some() {
            &*shifted
        } else {
            return false;
        };
        group.clear();
        for p in &parts {
            match part_value(p, image) {
                Ok(v) => group.push(v.into_owned()),
                Err(_) => return false,
            }
        }
        true
    };

    let mut leaves = Vec::new();
    if collect_leaves(arg, env, &mut Vec::new(), &mut leaves).is_none() {
        return Ok(None);
    }

    // touched groups: group keys of the forward images of changed keys
    let (mut shifted, mut group) = (DimTuple::new(), DimTuple::new());
    let mut affected: FxHashSet<DimTuple> = FxHashSet::default();
    for leaf in &leaves {
        for k in deltas[&leaf.id].keys() {
            if !group_into(k, &leaf.chain, &mut shifted, &mut group) {
                return Ok(None);
            }
            if !affected.contains(group.as_slice()) {
                affected.insert(group.clone());
            }
        }
    }

    // restrict every input to the rows whose forward image lands in a
    // touched group — the touched groups' complete bags, nothing else
    let mut renv = Dataset::new();
    for id in arg.cube_refs() {
        let cube = env.get(&id).expect("checked by caller");
        let chains: Vec<&Leaf> = leaves.iter().filter(|l| l.id == id).collect();
        let mut r = CubeData::new();
        for (k, v) in cube.data.iter() {
            for leaf in &chains {
                if !group_into(k, &leaf.chain, &mut shifted, &mut group) {
                    // the cold path would reject this row
                    return Ok(None);
                }
                if affected.contains(group.as_slice()) {
                    r.insert_overwrite(k.clone(), v);
                    break;
                }
            }
        }
        renv.put(Cube::new(cube.schema.clone(), r));
    }

    let patch = eval_statement_with_threads(stmt, &renv, threads)?;
    debug_assert!(patch.iter().all(|(k, _)| affected.contains(k)));
    Ok(Some((affected, patch)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_statement;
    use exl_lang::{analyze, parse_program};
    use exl_model::fingerprint::CubeDigest;
    use exl_model::time::TimePoint;

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    fn bits(data: &CubeData) -> Vec<(DimTuple, u64)> {
        let mut v: Vec<(DimTuple, u64)> =
            data.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Every input's change set from its `prev` version to its version
    /// in `env`.
    fn input_deltas(
        prev: &FxHashMap<CubeId, CubeData>,
        env: &Dataset,
    ) -> FxHashMap<CubeId, CubeDelta> {
        prev.iter()
            .map(|(id, old)| {
                let base = Fingerprint::of_cube(old);
                (id.clone(), changed_keys(base, old, env.data(id).unwrap()))
            })
            .collect()
    }

    /// Analyze `src`, evaluate its single derived statement cold on both
    /// input versions, then warm-patch from the old state and assert
    /// bit-identity with the new cold result — and that the returned
    /// output delta is exactly the change from the old output, digest
    /// included.
    fn check_delta(
        src: &str,
        old: Vec<(&str, Vec<(DimTuple, f64)>)>,
        patch: impl Fn(&mut Dataset),
    ) {
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = analyzed.program.statements.last().unwrap();
        let mut env = Dataset::new();
        for (name, tuples) in old {
            let schema = analyzed.schemas[&CubeId::new(name)].clone();
            env.put(Cube::new(schema, CubeData::from_tuples(tuples).unwrap()));
        }
        // evaluate intermediate statements so multi-statement programs work
        for s in &analyzed.program.statements {
            let data = eval_statement(s, &env).unwrap();
            env.put(Cube::new(analyzed.schemas[&s.target].clone(), data));
        }
        let prev_output = env.data(&stmt.target).unwrap().clone();
        let prev_inputs: FxHashMap<CubeId, CubeData> = stmt
            .expr
            .cube_refs()
            .into_iter()
            .map(|id| (id.clone(), env.data(&id).unwrap().clone()))
            .collect();

        let mut new_env = env.clone();
        patch(&mut new_env);
        // recompute intermediates under the new inputs for the cold truth
        for s in &analyzed.program.statements {
            let data = eval_statement(s, &new_env).unwrap();
            new_env.put(Cube::new(analyzed.schemas[&s.target].clone(), data));
        }
        let cold = eval_statement(stmt, &new_env).unwrap();
        let prev_fp = Fingerprint::of_cube(&prev_output);
        let deltas = input_deltas(&prev_inputs, &new_env);
        let (warm, delta) =
            eval_statement_delta(stmt, &new_env, &deltas, &prev_output, prev_fp, None)
                .unwrap()
                .expect("statement should be delta-eligible");
        assert_eq!(bits(&cold), bits(&warm));
        assert_eq!(delta.base, prev_fp);
        let mut replayed = prev_output.clone();
        delta.patch(&mut replayed);
        assert_eq!(bits(&replayed), bits(&cold));
        assert_eq!(
            changed_keys(prev_fp, &prev_output, &warm).len(),
            delta.len()
        );
        let mut digest = CubeDigest::of_cube(&prev_output);
        digest.apply(&delta);
        assert_eq!(digest.fingerprint(), Fingerprint::of_cube(&cold));
    }

    fn poke(env: &mut Dataset, cube: &str, key: DimTuple, v: f64) {
        let mut c = env.get(&CubeId::new(cube)).unwrap().clone();
        c.data.insert_overwrite(key, v);
        env.put(c);
    }

    fn drop_key(env: &mut Dataset, cube: &str, key: &[DimValue]) {
        let mut c = env.get(&CubeId::new(cube)).unwrap().clone();
        c.data.remove(key);
        env.put(c);
    }

    #[test]
    fn keyed_binary_update_and_insert() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := A * B + 2;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 2.0), (vec![q(2020, 2)], 3.0)]),
                ("B", vec![(vec![q(2020, 1)], 5.0), (vec![q(2020, 2)], 7.0)]),
            ],
            |env| {
                poke(env, "A", vec![q(2020, 1)], 4.0); // update
                poke(env, "B", vec![q(2020, 3)], 9.0); // insert (no partner yet)
                poke(env, "A", vec![q(2020, 3)], 1.0); // completes the pair
            },
        );
    }

    #[test]
    fn keyed_shift_moves_affected_keys() {
        check_delta(
            "cube A(q: quarter); D := A - shift(A, 1);",
            vec![(
                "A",
                vec![
                    (vec![q(2020, 1)], 1.0),
                    (vec![q(2020, 2)], 4.0),
                    (vec![q(2020, 3)], 9.0),
                ],
            )],
            |env| poke(env, "A", vec![q(2020, 2)], 5.5),
        );
    }

    #[test]
    fn keyed_delete_removes_output_keys() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := A / B;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 8.0), (vec![q(2020, 2)], 6.0)]),
                ("B", vec![(vec![q(2020, 1)], 2.0), (vec![q(2020, 2)], 3.0)]),
            ],
            |env| drop_key(env, "B", &[q(2020, 2)]),
        );
    }

    #[test]
    fn keyed_outer_join_default() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := addz(A, B);",
            vec![
                ("A", vec![(vec![q(2020, 1)], 1.0)]),
                ("B", vec![(vec![q(2020, 2)], 10.0)]),
            ],
            |env| {
                poke(env, "B", vec![q(2020, 3)], 7.0);
                drop_key(env, "A", &[q(2020, 1)]);
            },
        );
    }

    #[test]
    fn grouped_touched_group_replayed_in_full() {
        check_delta(
            "cube R(q: quarter, r: text); G := sum(R, group by q);",
            vec![(
                "R",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 0.1),
                    (vec![q(2020, 1), DimValue::str("s")], 0.2),
                    (vec![q(2020, 2), DimValue::str("n")], 0.3),
                ],
            )],
            |env| poke(env, "R", vec![q(2020, 1), DimValue::str("w")], 0.7),
        );
    }

    #[test]
    fn grouped_group_emptied_by_delete_disappears() {
        check_delta(
            "cube R(q: quarter, r: text); G := avg(R, group by q);",
            vec![(
                "R",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 1.0),
                    (vec![q(2020, 2), DimValue::str("n")], 2.0),
                ],
            )],
            |env| drop_key(env, "R", &[q(2020, 2), DimValue::str("n")]),
        );
    }

    #[test]
    fn grouped_frequency_conversion() {
        use exl_model::time::Date;
        let day = |y, m, d| DimValue::Time(TimePoint::Day(Date::from_ymd(y, m, d).unwrap()));
        check_delta(
            "cube P(d: day, r: text); PQ := avg(P, group by quarter(d) as q, r);",
            vec![(
                "P",
                vec![
                    (vec![day(2020, 1, 1), DimValue::str("n")], 10.0),
                    (vec![day(2020, 2, 1), DimValue::str("n")], 20.0),
                    (vec![day(2020, 4, 1), DimValue::str("n")], 30.0),
                ],
            )],
            |env| poke(env, "P", vec![day(2020, 1, 15), DimValue::str("n")], 13.0),
        );
    }

    #[test]
    fn unchanged_inputs_return_previous_output() {
        let src = "cube A(q: quarter); B := 2 * A;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = &analyzed.program.statements[0];
        let mut env = Dataset::new();
        env.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 3.0)]).unwrap(),
        ));
        let prev_out = eval_statement(stmt, &env).unwrap();
        let prev_inputs: FxHashMap<CubeId, CubeData> = [(
            CubeId::new("A"),
            env.data(&CubeId::new("A")).unwrap().clone(),
        )]
        .into_iter()
        .collect();
        let fp = Fingerprint::of_cube(&prev_out);
        let (warm, delta) = eval_statement_delta(
            stmt,
            &env,
            &input_deltas(&prev_inputs, &env),
            &prev_out,
            fp,
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!(bits(&warm), bits(&prev_out));
        assert!(delta.is_empty());
        assert_eq!(delta.base, fp);
        // nothing changed: the previous output is handed back, not copied
        assert_eq!(warm.storage_ptr(), prev_out.storage_ptr());
    }

    #[test]
    fn series_ops_are_not_eligible() {
        assert_eq!(
            delta_shape(
                &analyze(
                    &parse_program("cube A(q: quarter); B := cumsum(A);").unwrap(),
                    &[]
                )
                .unwrap()
                .program
                .statements[0]
                    .expr
            ),
            DeltaShape::Full
        );
    }

    #[test]
    fn missing_previous_input_falls_back() {
        let src = "cube A(q: quarter); B := 2 * A;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = &analyzed.program.statements[0];
        let mut env = Dataset::new();
        env.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 3.0)]).unwrap(),
        ));
        let r = eval_statement_delta(
            stmt,
            &env,
            &FxHashMap::default(),
            &CubeData::new(),
            Fingerprint::EMPTY,
            None,
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn changed_keys_sees_inserts_updates_deletes() {
        let old =
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 1.0), (vec![q(2020, 2)], 2.0)]).unwrap();
        let mut new = old.clone();
        new.insert_overwrite(vec![q(2020, 2)], 2.5); // update
        new.insert_overwrite(vec![q(2020, 3)], 3.0); // insert
        new.remove(&[q(2020, 1)]); // delete
        let base = Fingerprint::of_cube(&old);
        let delta = changed_keys(base, &old, &new);
        let mut ks: Vec<DimTuple> = delta.keys().cloned().collect();
        ks.sort();
        assert_eq!(
            ks,
            vec![vec![q(2020, 1)], vec![q(2020, 2)], vec![q(2020, 3)]]
        );
        assert_eq!(delta.removed, vec![(vec![q(2020, 1)], 1.0f64.to_bits())]);
        let mut digest = CubeDigest::of_cube(&old);
        digest.apply(&delta);
        assert_eq!(digest.fingerprint(), Fingerprint::of_cube(&new));
        // shared storage short-circuits; a deep copy diffs to nothing
        assert!(changed_keys(base, &old, &old.clone()).is_empty());
        let deep = CubeData::from_tuples(old.to_tuples()).unwrap();
        assert!(changed_keys(base, &old, &deep).is_empty());
        // a pure update (to -0.0, equal to 0.0 as a float) is one upsert
        let mut updated = old.clone();
        updated.insert_overwrite(vec![q(2020, 1)], -0.0);
        let d = changed_keys(base, &old, &updated);
        assert_eq!((d.upserts.len(), d.removed.len()), (1, 0));
    }

    /// `changed_keys` against a naive set difference, whatever the two
    /// versions' storage orders: a version patched from a copy (orders
    /// aligned) and the same content rebuilt in shuffled order (orders
    /// diverge everywhere), with updates, inserts and removals mixed.
    #[test]
    fn changed_keys_is_independent_of_storage_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        type Entries = Vec<(DimTuple, u64)>;
        let naive =
            |old: &CubeData, new: &CubeData| -> (Entries, Vec<(DimTuple, Option<u64>, u64)>) {
                let mut removed: Entries = old
                    .iter()
                    .filter(|(k, _)| new.get(k).is_none())
                    .map(|(k, v)| (k.clone(), v.to_bits()))
                    .collect();
                let mut upserts: Vec<_> = new
                    .iter()
                    .filter(|(k, v)| old.get(k).map(f64::to_bits) != Some(v.to_bits()))
                    .map(|(k, v)| (k.clone(), old.get(k).map(f64::to_bits), v.to_bits()))
                    .collect();
                removed.sort();
                upserts.sort();
                (removed, upserts)
            };
        let sorted = |d: &CubeDelta| {
            let mut removed = d.removed.clone();
            let mut upserts: Vec<_> = d
                .upserts
                .iter()
                .map(|u| (u.key.clone(), u.old, u.new))
                .collect();
            removed.sort();
            upserts.sort();
            (removed, upserts)
        };
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..200i64);
            let old = CubeData::from_tuples(
                (0..n).map(|i| (vec![q(2000 + (i / 4) as i32, (i % 4 + 1) as u32)], i as f64)),
            )
            .unwrap();
            let mut patched = old.clone();
            for _ in 0..rng.gen_range(0..8) {
                let i = rng.gen_range(0..n + 20);
                let key = vec![q(2000 + (i / 4) as i32, (i % 4 + 1) as u32)];
                match rng.gen_range(0..3) {
                    0 => {
                        patched.remove(&key);
                    }
                    _ => patched.insert_overwrite(key, rng.gen_range(-1.0..1.0)),
                }
            }
            let mut shuffled = patched.to_tuples();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let rebuilt = CubeData::from_tuples(shuffled).unwrap();
            for new in [&patched, &rebuilt] {
                let want = naive(&old, new);
                assert_eq!(
                    sorted(&changed_keys(Fingerprint::EMPTY, &old, new)),
                    want,
                    "seed {seed}"
                );
                // and in the other direction
                let back = naive(new, &old);
                assert_eq!(
                    sorted(&changed_keys(Fingerprint::EMPTY, new, &old)),
                    back,
                    "seed {seed}"
                );
            }
        }
    }
}
