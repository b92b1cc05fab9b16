//! The run cache: content-addressed incremental recomputation.
//!
//! Production vintage updates load a handful of new observations and
//! re-derive downstream cubes; everything whose inputs are bit-identical
//! to the previous run is wasted work. The cache keys each *statement
//! execution* on content, not provenance:
//!
//! * a **statement fingerprint** covers the canonicalized statement text,
//!   the effective target kind (backends only agree to tolerance, so a
//!   result replayed from cache must come from the same engine), and the
//!   input/output schemas;
//! * a **cache key** chains the statement fingerprint with the
//!   [`Fingerprint::of_cube`] content hashes of the statement's inputs,
//!   in reference order.
//!
//! Output cubes live in a content-addressed store (deduplicated by their
//! own fingerprint), in memory and optionally on disk (`--cache-dir`).
//! Disk entries carry a version header; anything unreadable, unparsable,
//! or version-mismatched is treated as a **miss, never an error** — a
//! cold run is always a correct fallback. Disk writes go through a
//! temp-file rename and are guarded by the `cache.write` fault site
//! (reads by `cache.read`), which the chaos suite uses to prove the
//! degradation path.
//!
//! Besides exact hits, the cache remembers each statement's *latest* run
//! (input fingerprints + output). When a lookup misses on the native
//! target, the dispatcher hands the change set of every input against
//! that run, plus the previous output, to
//! [`exl_eval::delta::eval_statement_delta`], which patches only the keys
//! or groups the input delta can reach — bit-identical to a cold run by
//! construction, and pinned by the `incremental_differential` suite.
//!
//! **Incremental recompute in O(changed rows).** Within one
//! [`RunCache::resolve_statements`] call, change sets ([`CubeDelta`]) are
//! carried from statement to statement, so a vintage revision is diffed
//! once and no derived cube is diffed at all:
//!
//! * an input version the cache has not seen yet (a revised elementary
//!   cube) is diffed once against the base its statement's latest run
//!   read, when that base is in memory. The one pass yields both its
//!   change set and its fingerprint: the base's [`CubeDigest`] moved by
//!   the delta, equal to [`Fingerprint::of_cube`] by construction;
//! * a patched output comes back with its own delta, and its fingerprint
//!   is the previous output's digest moved by that delta;
//! * a statement uses a carried delta only when the delta's base
//!   fingerprint equals the input fingerprint its latest run recorded.
//!   An input whose fingerprint equals that base has an empty delta. Any
//!   other input falls back to a full diff ([`changed_keys`]); the rows
//!   such diffs compare are counted ([`RunCache::diff_rows`], the
//!   `cache.diff_rows` counter).
//!
//! Fingerprint values do not depend on which way they were computed, so
//! `CACHE_VERSION` and entries on disk are unaffected.
//!
//! **Sharded subgraphs** make the same two calls over their whole
//! statement list (`crate::shard`), so no key depends on the shard
//! count. Entries that older builds wrote under per-shard key spaces are
//! never looked up again; they stay on disk, unreachable, until the
//! cache directory is cleared.
//!
//! **Interaction with plan compilation.** The cache consults and stores
//! at *statement* granularity, and fusion (`exl_eval::plan`) respects
//! that boundary: statement targets are always materialization points,
//! so every statement still produces the exact batch its fingerprint
//! names. A warm run therefore splits each subgraph at the dirty
//! frontier — clean statements replay from the store or patch through
//! delta kernels (both statement-at-a-time, fusion never engages), and
//! only the fully-dirty remainder reaches the batch evaluator, where
//! regions fuse within it as usual. Cold ≡ warm stays bit for bit with
//! fusion on, pinned by the warm-cache matrix in
//! `tests/tests/fusion_differential.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use exl_eval::delta::{changed_keys, diff_rows, eval_statement_delta};
use exl_lang::ast::Statement;
use exl_model::fingerprint::{CubeDelta, CubeDigest, Fingerprint, FingerprintBuilder};
use exl_model::hash::FxHashMap;
use exl_model::schema::{CubeId, CubeSchema};
use exl_model::{Cube, CubeData, Dataset};

use crate::error::EngineError;
use crate::target::TargetKind;

/// Version header of every on-disk entry. Bump on any format or
/// fingerprint-recipe change: old entries then read as stale and miss.
const CACHE_VERSION: &str = "exl-cache-v1";

/// Cache activity of one run (or cumulative, for the I/O fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Statements skipped on an exact (statement, inputs) hit.
    pub hits: u64,
    /// Statements recomputed incrementally from the previous run's
    /// inputs and output (delta kernels).
    pub delta_hits: u64,
    /// Statements executed in full because the cache could not help.
    pub misses: u64,
    /// Statement results written into the cache.
    pub stores: u64,
    /// On-disk entries skipped as corrupt, truncated, or stale.
    pub corrupt_entries: u64,
    /// Disk writes that failed (the run degrades, it never errors).
    pub write_failures: u64,
}

impl CacheStats {
    /// Component-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            delta_hits: self.delta_hits - earlier.delta_hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            corrupt_entries: self.corrupt_entries - earlier.corrupt_entries,
            write_failures: self.write_failures - earlier.write_failures,
        }
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.delta_hits += other.delta_hits;
        self.misses += other.misses;
        self.stores += other.stores;
        self.corrupt_entries += other.corrupt_entries;
        self.write_failures += other.write_failures;
    }
}

/// Per-subgraph statement resolution counts, reported in
/// [`SubgraphReport`](crate::SubgraphReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtCacheCounts {
    /// Statements satisfied by exact cache hits.
    pub hits: u64,
    /// Statements satisfied by delta re-evaluation.
    pub delta_hits: u64,
    /// Statements executed in full.
    pub misses: u64,
}

/// The latest recorded run of one statement: what it read and produced.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct LatestEntry {
    inputs: Vec<(String, Fingerprint)>,
    output: Fingerprint,
}

impl LatestEntry {
    /// Fingerprint of the version of `id` this run read.
    fn input(&self, id: &CubeId) -> Option<Fingerprint> {
        self.inputs
            .iter()
            .find(|(name, _)| name == id.as_str())
            .map(|(_, fp)| *fp)
    }
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DiskCube {
    version: String,
    cube: CubeData,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DiskKey {
    version: String,
    output: Fingerprint,
}

#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DiskLatest {
    version: String,
    entry: LatestEntry,
}

/// The run cache. In-memory always; mirrored to a directory when built
/// with [`RunCache::with_dir`], so results survive the process.
#[derive(Debug, Clone, Default)]
pub struct RunCache {
    dir: Option<PathBuf>,
    /// Content-addressed cube store.
    cubes: FxHashMap<Fingerprint, CubeData>,
    /// (statement, inputs) cache key → output cube fingerprint.
    keys: FxHashMap<Fingerprint, Fingerprint>,
    /// Statement fingerprint → its latest run (the delta path's anchor).
    latest: FxHashMap<Fingerprint, LatestEntry>,
    /// Cube fingerprint memo keyed by CoW storage address. Each entry
    /// retains a clone of the cube, which pins the shared allocation (the
    /// address cannot be recycled) and forces copy-on-write for any
    /// would-be mutator — so `ptr equal ⇒ contents equal` stays sound.
    memo: FxHashMap<usize, (CubeData, Fingerprint)>,
    /// Cube fingerprint → the digest behind it, for every cube this cache
    /// fingerprinted or loaded: the base a delta moves.
    digests: FxHashMap<Fingerprint, CubeDigest>,
    stats: CacheStats,
    /// Rows of the cube versions full diffs compared, cumulative.
    diff_rows: u64,
}

impl RunCache {
    /// A process-local cache with no disk mirror.
    pub fn in_memory() -> RunCache {
        RunCache::default()
    }

    /// A cache mirrored to `dir` (created if absent, reused if present —
    /// entries written by previous processes are visible immediately).
    pub fn with_dir(dir: impl Into<PathBuf>) -> Result<RunCache, EngineError> {
        let dir = dir.into();
        for sub in ["cubes", "keys", "stmts"] {
            std::fs::create_dir_all(dir.join(sub)).map_err(|e| {
                EngineError::Catalog(format!("cannot create cache dir {}: {e}", dir.display()))
            })?;
        }
        Ok(RunCache {
            dir: Some(dir),
            ..RunCache::default()
        })
    }

    /// The disk mirror's root, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Cumulative I/O statistics (stores, corrupt entries, write
    /// failures; the hit/miss fields stay zero — those are counted per
    /// run by the dispatcher).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Rows of the cube versions full diffs compared, cumulative: the work
    /// the delta path spends finding change sets it was not handed.
    pub fn diff_rows(&self) -> u64 {
        self.diff_rows
    }

    /// Content fingerprint of a cube, memoized by storage address.
    pub fn fingerprint(&mut self, data: &CubeData) -> Fingerprint {
        if let Some((_, fp)) = self.memo.get(&data.storage_ptr()) {
            return *fp;
        }
        self.remember(data, CubeDigest::of_cube(data))
    }

    /// Memoize `data` under the fingerprint `digest` finishes to.
    fn remember(&mut self, data: &CubeData, digest: CubeDigest) -> Fingerprint {
        let fp = digest.fingerprint();
        debug_assert_eq!(
            fp,
            Fingerprint::of_cube(data),
            "digest drifted from content"
        );
        self.memo.insert(data.storage_ptr(), (data.clone(), fp));
        self.digests.insert(fp, digest);
        fp
    }

    /// Fingerprint of an input cube for a statement whose latest run read
    /// the version `base`. A version not seen before is diffed against
    /// `base` when that cube is in memory: the one pass gives both the
    /// change set, kept in `deltas` for the delta path, and the
    /// fingerprint, as the base digest moved by the delta. Otherwise the
    /// cube is hashed in full.
    fn input_fingerprint(
        &mut self,
        id: &CubeId,
        data: &CubeData,
        base: Option<Fingerprint>,
        deltas: &mut FxHashMap<CubeId, CubeDelta>,
    ) -> Fingerprint {
        if let Some((_, fp)) = self.memo.get(&data.storage_ptr()) {
            return *fp;
        }
        let known =
            base.and_then(|b| Some((b, self.cubes.get(&b)?.clone(), *self.digests.get(&b)?)));
        let Some((base, old, mut digest)) = known else {
            return self.fingerprint(data);
        };
        let delta = self.diff(base, &old, data);
        digest.apply(&delta);
        deltas.insert(id.clone(), delta);
        self.remember(data, digest)
    }

    /// A full diff of two versions of a cube, counted in
    /// [`RunCache::diff_rows`].
    fn diff(&mut self, base: Fingerprint, old: &CubeData, new: &CubeData) -> CubeDelta {
        let delta = changed_keys(base, old, new);
        self.diff_rows += diff_rows(old, new);
        delta
    }

    /// The digest behind a stored cube's fingerprint.
    fn digest_of(&mut self, fp: Fingerprint) -> Option<CubeDigest> {
        if let Some(d) = self.digests.get(&fp) {
            return Some(*d);
        }
        let digest = CubeDigest::of_cube(&self.cube(fp)?);
        self.digests.insert(fp, digest);
        Some(digest)
    }

    /// Resolve a whole subgraph from the cache, statement by statement:
    /// an exact (statement, inputs) hit replays the stored result; on the
    /// native target a miss first tries a delta re-evaluation, and — once
    /// at least one statement of the subgraph has resolved — the dirty
    /// remainder is evaluated inline on the dispatcher thread, so clean
    /// statements are skipped even when the subgraph is not whole-clean.
    ///
    /// Returns the statement outputs in order, or `None` when the
    /// subgraph needs a real execution: a non-native statement missed, or
    /// no native statement resolved (nothing to gain — normal dispatch
    /// keeps its parallelism and supervision), or an inline evaluation
    /// failed (the supervisor then owns the error). Partial progress is
    /// discarded, but any delta results computed on the way were stored
    /// and will hit next time.
    pub fn resolve_statements(
        &mut self,
        stmts: &[Statement],
        target: TargetKind,
        inputs: &Dataset,
        schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    ) -> Option<(Vec<(CubeId, CubeData)>, StmtCacheCounts)> {
        self.resolve_statements_with_threads(stmts, target, inputs, schema_of, None)
    }

    /// [`RunCache::resolve_statements`] whose inline evaluations and
    /// delta patches run on `eval_threads` evaluator workers (`None`
    /// probes the machine): the engine passes its
    /// [`ExecOpts::eval_threads`](crate::ExecOpts).
    pub fn resolve_statements_with_threads(
        &mut self,
        stmts: &[Statement],
        target: TargetKind,
        inputs: &Dataset,
        schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
        eval_threads: Option<usize>,
    ) -> Option<(Vec<(CubeId, CubeData)>, StmtCacheCounts)> {
        let mut env = inputs.clone();
        let mut outputs = Vec::with_capacity(stmts.len());
        let mut counts = StmtCacheCounts::default();
        // change sets of this call's cubes, each against the version its
        // `base` names: diffs of revised inputs and patched outputs
        let mut deltas: FxHashMap<CubeId, CubeDelta> = FxHashMap::default();
        // one interned working set for the whole subgraph: statements
        // evaluated inline hand their result batches to later inline
        // statements directly, without re-interning at each boundary
        let mut session = exl_eval::EvalSession::with_threads(eval_threads);
        for stmt in stmts {
            let stmt_fp = statement_fp(stmt, target, &env)?;
            let last = self.latest.get(&stmt_fp).cloned();
            let mut input_fps = Vec::new();
            for id in stmt.expr.cube_refs() {
                let base = last.as_ref().and_then(|l| l.input(&id));
                let fp = self.input_fingerprint(&id, &env.get(&id)?.data, base, &mut deltas);
                input_fps.push((id, fp));
            }
            let key_fp = cache_key(stmt_fp, &input_fps);
            let data = if let Some(data) = self.lookup_output(key_fp) {
                counts.hits += 1;
                data
            } else if target != TargetKind::Native {
                // other targets only replay their own prior bits
                return None;
            } else if let Some((data, delta)) =
                self.try_delta(stmt, &env, stmt_fp, &input_fps, &mut deltas, eval_threads)
            {
                counts.delta_hits += 1;
                // remember the fresh result so the next identical run
                // hits exactly instead of re-patching
                self.store_result(stmt_fp, key_fp, &input_fps, &env, &data);
                deltas.insert(stmt.target.clone(), delta);
                data
            } else if counts.hits + counts.delta_hits > 0 {
                // dirty statement in an otherwise-resolving subgraph:
                // evaluate it inline (same kernels as the native backend,
                // honoring its fault-injection site)
                exl_fault::check("exec.native").ok()?;
                for id in stmt.expr.cube_refs() {
                    if !session.is_loaded(&id) {
                        let cube = env.get(&id)?;
                        session.load(id.clone(), cube.schema.dims.clone(), &cube.data);
                    }
                }
                let data = catch_unwind(AssertUnwindSafe(|| {
                    session.eval(stmt).map(|()| session.resolve(&stmt.target))
                }))
                .ok()?
                .ok()??;
                counts.misses += 1;
                self.store_result(stmt_fp, key_fp, &input_fps, &env, &data);
                data
            } else {
                return None;
            };
            let schema = schema_of(&stmt.target)?;
            env.put(Cube::new(schema, data.clone()));
            outputs.push((stmt.target.clone(), data));
        }
        Some((outputs, counts))
    }

    /// Record every statement of an executed subgraph: inputs, cache key,
    /// and output, walking the statement chain so intra-subgraph
    /// dependencies fingerprint correctly.
    pub fn store_statements(
        &mut self,
        stmts: &[Statement],
        target: TargetKind,
        inputs: &Dataset,
        outputs: &[(CubeId, CubeData)],
        schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    ) {
        let mut env = inputs.clone();
        for (stmt, (id, data)) in stmts.iter().zip(outputs.iter()) {
            debug_assert_eq!(&stmt.target, id);
            let Some(stmt_fp) = statement_fp(stmt, target, &env) else {
                return;
            };
            let mut input_fps = Vec::new();
            for id in stmt.expr.cube_refs() {
                let Some(cube) = env.get(&id) else { return };
                let fp = self.fingerprint(&cube.data);
                input_fps.push((id, fp));
            }
            let key_fp = cache_key(stmt_fp, &input_fps);
            self.store_result(stmt_fp, key_fp, &input_fps, &env, data);
            let Some(schema) = schema_of(id) else { return };
            env.put(Cube::new(schema, data.clone()));
        }
    }

    /// Attempt the delta path for one statement: previous run known,
    /// every input's change set against it found (carried, empty, or
    /// diffed in full), the previous output retrievable, the statement
    /// delta-eligible, and the patch evaluation neither errs nor panics.
    /// The patched output comes back with its delta, and is memoized
    /// under the previous output's digest moved by that delta.
    fn try_delta(
        &mut self,
        stmt: &Statement,
        env: &Dataset,
        stmt_fp: Fingerprint,
        input_fps: &[(CubeId, Fingerprint)],
        deltas: &mut FxHashMap<CubeId, CubeDelta>,
        eval_threads: Option<usize>,
    ) -> Option<(CubeData, CubeDelta)> {
        let last = self.latest.get(&stmt_fp).cloned().or_else(|| {
            let e = self.read_latest(stmt_fp)?;
            self.latest.insert(stmt_fp, e.clone());
            Some(e)
        })?;
        for (id, fp) in input_fps {
            let base = last.input(id)?;
            if deltas.get(id).is_some_and(|d| d.base == base) {
                continue;
            }
            let delta = if *fp == base {
                CubeDelta::new(base)
            } else {
                let old = self.cube(base)?;
                self.diff(base, &old, &env.get(id)?.data)
            };
            deltas.insert(id.clone(), delta);
        }
        let prev_output = self.cube(last.output)?;
        // the delta kernels must degrade, never take the engine down: a
        // panic (or error) here just means a cold execution
        let (out, delta) = catch_unwind(AssertUnwindSafe(|| {
            eval_statement_delta(stmt, env, deltas, &prev_output, last.output, eval_threads)
        }))
        .ok()?
        .ok()??;
        if let Some(mut digest) = self.digest_of(last.output) {
            digest.apply(&delta);
            self.remember(&out, digest);
        }
        Some((out, delta))
    }

    /// Insert one statement result (memory, then disk).
    fn store_result(
        &mut self,
        stmt_fp: Fingerprint,
        key_fp: Fingerprint,
        input_fps: &[(CubeId, Fingerprint)],
        env: &Dataset,
        output: &CubeData,
    ) {
        let out_fp = self.fingerprint(output);
        for (id, fp) in input_fps {
            if !self.cubes.contains_key(fp) {
                if let Some(cube) = env.get(id) {
                    self.cubes.insert(*fp, cube.data.clone());
                    self.write_cube(*fp, &cube.data);
                }
            }
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = self.cubes.entry(out_fp) {
            slot.insert(output.clone());
            self.write_cube(out_fp, output);
        }
        self.keys.insert(key_fp, out_fp);
        let entry = LatestEntry {
            inputs: input_fps
                .iter()
                .map(|(id, fp)| (id.to_string(), *fp))
                .collect(),
            output: out_fp,
        };
        self.write_json(
            "keys",
            key_fp,
            &DiskKey {
                version: CACHE_VERSION.to_string(),
                output: out_fp,
            },
        );
        self.write_json(
            "stmts",
            stmt_fp,
            &DiskLatest {
                version: CACHE_VERSION.to_string(),
                entry: entry.clone(),
            },
        );
        self.latest.insert(stmt_fp, entry);
        self.stats.stores += 1;
    }

    /// Output cube for a cache key, consulting memory then disk.
    fn lookup_output(&mut self, key_fp: Fingerprint) -> Option<CubeData> {
        let out_fp = match self.keys.get(&key_fp) {
            Some(fp) => *fp,
            None => {
                let disk: DiskKey = self.read_json("keys", key_fp)?;
                self.keys.insert(key_fp, disk.output);
                disk.output
            }
        };
        self.cube(out_fp)
    }

    /// Count one corrupt (or unreadable) disk entry and leave a trace in
    /// the flight recorder's event ring.
    fn note_corrupt(&mut self, kind: &str, fp: Fingerprint, why: &str) {
        self.stats.corrupt_entries += 1;
        exl_obs::flight::record_with(
            exl_obs::flight::FlightKind::CacheCorrupt,
            "cache.read",
            || format!("{kind}/{fp}: {why}"),
        );
    }

    /// A cube from the content-addressed store (memory, then disk).
    fn cube(&mut self, fp: Fingerprint) -> Option<CubeData> {
        if let Some(c) = self.cubes.get(&fp) {
            return Some(c.clone());
        }
        let disk: DiskCube = self.read_json("cubes", fp)?;
        // a stored cube must hash to its own name; anything else is a
        // truncated or tampered entry
        let digest = CubeDigest::of_cube(&disk.cube);
        if digest.fingerprint() != fp {
            self.note_corrupt("cubes", fp, "content hash mismatch");
            return None;
        }
        self.digests.insert(fp, digest);
        self.cubes.insert(fp, disk.cube.clone());
        Some(disk.cube)
    }

    fn read_latest(&mut self, stmt_fp: Fingerprint) -> Option<LatestEntry> {
        let disk: DiskLatest = self.read_json("stmts", stmt_fp)?;
        Some(disk.entry)
    }

    fn entry_path(&self, kind: &str, fp: Fingerprint) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(kind).join(format!("{fp}.json")))
    }

    /// Read and parse one disk entry. Absent file = plain miss; present
    /// but unreadable, unparsable, or version-mismatched = corrupt (still
    /// a miss — the caller recomputes).
    fn read_json<T: serde::DeserializeOwned + HasVersion>(
        &mut self,
        kind: &str,
        fp: Fingerprint,
    ) -> Option<T> {
        let path = self.entry_path(kind, fp)?;
        if exl_fault::check("cache.read").is_err() {
            self.note_corrupt(kind, fp, "injected read fault");
            return None;
        }
        if !path.exists() {
            return None;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.note_corrupt(kind, fp, "unreadable");
                return None;
            }
        };
        match serde_json::from_str::<T>(&text) {
            Ok(v) if v.version() == CACHE_VERSION => Some(v),
            _ => {
                self.note_corrupt(kind, fp, "unparsable or version mismatch");
                None
            }
        }
    }

    fn write_cube(&mut self, fp: Fingerprint, cube: &CubeData) {
        self.write_json(
            "cubes",
            fp,
            &DiskCube {
                version: CACHE_VERSION.to_string(),
                cube: cube.clone(),
            },
        );
    }

    /// Write one disk entry via temp-file + fsync + rename, so a crash or
    /// cancellation at any instant leaves either the old entry, no entry,
    /// or the complete new entry — never a torn file under the final
    /// name. Any failure — including an injected `cache.write` fault —
    /// counts as a write failure and is otherwise ignored: the in-memory
    /// cache stays authoritative and the run proceeds.
    fn write_json<T: serde::Serialize>(&mut self, kind: &str, fp: Fingerprint, value: &T) {
        let Some(path) = self.entry_path(kind, fp) else {
            return;
        };
        if exl_fault::check("cache.write").is_err() {
            self.stats.write_failures += 1;
            return;
        }
        let write = || -> std::io::Result<()> {
            use std::io::Write as _;
            let text = serde_json::to_string(value)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            let tmp = path.with_extension("json.tmp");
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, &path)
        };
        if write().is_err() {
            self.stats.write_failures += 1;
        }
    }
}

/// Statement fingerprint of one statement against an environment: the
/// canonical statement text, the target kind, and every input's name and
/// dimensions. `None` when an input is missing from the environment (the
/// caller executes normally).
fn statement_fp(stmt: &Statement, target: TargetKind, env: &Dataset) -> Option<Fingerprint> {
    let mut sb = FingerprintBuilder::new("exl.stmt.v1");
    sb.push_str(&exl_lang::pretty::statement_to_string(stmt));
    sb.push_str(target.name());
    for id in stmt.expr.cube_refs() {
        let cube = env.get(&id)?;
        sb.push_str(id.as_str());
        // dims only: `kind` flips between catalog and subgraph-input
        // views of the same cube and must not perturb the key
        sb.push_str(&serde_json::to_string(&cube.schema.dims).ok()?);
    }
    Some(sb.finish())
}

/// The full cache key: the statement fingerprint chained with its input
/// fingerprints in reference order.
fn cache_key(stmt_fp: Fingerprint, input_fps: &[(CubeId, Fingerprint)]) -> Fingerprint {
    let mut kb = FingerprintBuilder::new("exl.key.v1");
    kb.push(stmt_fp);
    for (_, fp) in input_fps {
        kb.push(*fp);
    }
    kb.finish()
}

/// Internal: lets [`RunCache::read_json`] version-check any entry type.
trait HasVersion {
    fn version(&self) -> &str;
}

impl HasVersion for DiskCube {
    fn version(&self) -> &str {
        &self.version
    }
}

impl HasVersion for DiskKey {
    fn version(&self) -> &str {
        &self.version
    }
}

impl HasVersion for DiskLatest {
    fn version(&self) -> &str {
        &self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::DimValue;

    /// A subgraph whose first statement hits and whose second reads a
    /// cube with rows of two arities: the second is evaluated inline, and
    /// its interning pass rejects the ragged operand. The cache must then
    /// report a miss for the subgraph, never panic.
    #[test]
    fn ragged_operand_in_inline_evaluation_is_a_miss() {
        let analyzed = exl_lang::analyze(
            &exl_lang::parse_program(
                "cube A(k: int); cube W(k: int, r: text); B := 2 * A; C := 3 * W;",
            )
            .unwrap(),
            &[],
        )
        .unwrap();
        let schema_of = |id: &CubeId| analyzed.schemas.get(id).cloned();
        let stmts = &analyzed.program.statements;
        let a = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap();
        let w_rows = |ragged: bool| {
            let mut rows = vec![(vec![DimValue::Int(1), DimValue::str("x")], 2.0)];
            if ragged {
                rows.push((vec![DimValue::Int(2)], 3.0));
            }
            CubeData::from_tuples(rows).unwrap()
        };
        let inputs = |ragged: bool| {
            let mut ds = Dataset::new();
            ds.put(Cube::new(schema_of(&"A".into()).unwrap(), a.clone()));
            ds.put(Cube::new(schema_of(&"W".into()).unwrap(), w_rows(ragged)));
            ds
        };
        let b = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 2.0)]).unwrap();
        for ragged in [false, true] {
            let mut cache = RunCache::in_memory();
            let outputs = [("B".into(), b.clone())];
            cache.store_statements(
                &stmts[..1],
                TargetKind::Native,
                &inputs(ragged),
                &outputs,
                &schema_of,
            );
            let resolved =
                cache.resolve_statements(stmts, TargetKind::Native, &inputs(ragged), &schema_of);
            if ragged {
                assert!(resolved.is_none());
                continue;
            }
            // the well-formed operand resolves: B hits, C evaluates inline
            let (outputs, counts) = resolved.expect("inline evaluation of a well-formed operand");
            assert_eq!((counts.hits, counts.misses), (1, 1));
            let c = &outputs[1].1;
            assert_eq!(c.get(&[DimValue::Int(1), DimValue::str("x")]), Some(6.0));
        }
    }
}
