//! The metadata catalog (§6).
//!
//! EXLEngine is "metadata-driven in the sense that the definitions of
//! cubes (elementary or derived) and dependencies among them, expressed in
//! terms of EXL statements, guide its runtime behavior". The catalog holds
//! cube schemas, per-cube target affinities (the "technical metadata" that
//! route computations), registered program sources, and *historicity*: a
//! versioned sequence of datasets per cube, so that every recomputation is
//! an auditable new version rather than an overwrite.

use std::collections::BTreeMap;

use exl_model::schema::{CubeId, CubeKind, CubeSchema};
use exl_model::{Cube, CubeData, Dataset};

use crate::error::EngineError;
use crate::target::TargetKind;

/// One stored version of a cube's data.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CubeVersion {
    /// Monotonically increasing version number (engine-wide logical time).
    pub version: u64,
    /// The data.
    pub data: CubeData,
}

/// Catalog entry for one cube.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CubeMeta {
    /// The schema.
    pub schema: CubeSchema,
    /// Preferred target system, when the administrators pinned one.
    pub affinity: Option<TargetKind>,
    /// Version history, oldest first.
    pub versions: Vec<CubeVersion>,
}

impl CubeMeta {
    /// Latest data, if any version exists.
    pub fn current(&self) -> Option<&CubeData> {
        self.versions.last().map(|v| &v.data)
    }
}

/// The metadata catalog.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Catalog {
    cubes: BTreeMap<CubeId, CubeMeta>,
    /// Registered program sources by name, in registration order.
    programs: Vec<(String, String)>,
    /// Engine-wide logical clock for versioning.
    clock: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a cube schema. Re-registering the identical schema is a
    /// no-op; a conflicting one is an error.
    pub fn register_schema(&mut self, schema: CubeSchema) -> Result<(), EngineError> {
        match self.cubes.get(&schema.id) {
            Some(meta) if meta.schema == schema => Ok(()),
            Some(_) => Err(EngineError::Catalog(format!(
                "cube {} is already registered with a different schema",
                schema.id
            ))),
            None => {
                self.cubes.insert(
                    schema.id.clone(),
                    CubeMeta {
                        schema,
                        affinity: None,
                        versions: Vec::new(),
                    },
                );
                Ok(())
            }
        }
    }

    /// Record a program source under a name.
    pub fn register_program_source(&mut self, name: &str, source: &str) -> Result<(), EngineError> {
        if self.programs.iter().any(|(n, _)| n == name) {
            return Err(EngineError::Catalog(format!(
                "program {name} is already registered"
            )));
        }
        self.programs.push((name.to_string(), source.to_string()));
        Ok(())
    }

    /// Registered program sources, in order.
    pub fn programs(&self) -> &[(String, String)] {
        &self.programs
    }

    /// Pin a cube to a target system.
    pub fn set_affinity(
        &mut self,
        id: &CubeId,
        target: Option<TargetKind>,
    ) -> Result<(), EngineError> {
        let meta = self
            .cubes
            .get_mut(id)
            .ok_or_else(|| EngineError::Catalog(format!("unknown cube {id}")))?;
        meta.affinity = target;
        Ok(())
    }

    /// Metadata for a cube.
    pub fn meta(&self, id: &CubeId) -> Option<&CubeMeta> {
        self.cubes.get(id)
    }

    /// Schema lookup.
    pub fn schema(&self, id: &CubeId) -> Option<&CubeSchema> {
        self.cubes.get(id).map(|m| &m.schema)
    }

    /// All cube ids.
    pub fn cube_ids(&self) -> Vec<CubeId> {
        self.cubes.keys().cloned().collect()
    }

    /// Ids of elementary cubes.
    pub fn elementary_ids(&self) -> Vec<CubeId> {
        self.cubes
            .iter()
            .filter(|(_, m)| m.schema.kind == CubeKind::Elementary)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Store a new version of a cube's data, returning the version number.
    pub fn store(&mut self, id: &CubeId, data: CubeData) -> Result<u64, EngineError> {
        self.clock += 1;
        let clock = self.clock;
        let meta = self
            .cubes
            .get_mut(id)
            .ok_or_else(|| EngineError::Catalog(format!("unknown cube {id}")))?;
        meta.versions.push(CubeVersion {
            version: clock,
            data,
        });
        Ok(clock)
    }

    /// Commit a batch of new versions **atomically**: either every entry
    /// is stored (in order, each under its own version number) or — when
    /// any cube is unknown — none is, and the catalog is untouched. This
    /// is the transactional commit the dispatch supervisor uses: a run's
    /// results are staged outside the catalog and land here only once the
    /// run's policy is satisfied.
    pub fn commit_versions(
        &mut self,
        items: Vec<(CubeId, CubeData)>,
    ) -> Result<Vec<u64>, EngineError> {
        if let Some((id, _)) = items.iter().find(|(id, _)| !self.cubes.contains_key(id)) {
            return Err(EngineError::Catalog(format!(
                "cannot commit run: unknown cube {id}"
            )));
        }
        let mut versions = Vec::with_capacity(items.len());
        for (id, data) in items {
            versions.push(self.store(&id, data)?);
        }
        Ok(versions)
    }

    /// Latest data of a cube.
    pub fn current(&self, id: &CubeId) -> Option<&CubeData> {
        self.cubes.get(id).and_then(|m| m.current())
    }

    /// Data of a cube as of a logical time (the latest version ≤ `at`) —
    /// the historicity query.
    pub fn as_of(&self, id: &CubeId, at: u64) -> Option<&CubeData> {
        self.cubes
            .get(id)?
            .versions
            .iter()
            .rev()
            .find(|v| v.version <= at)
            .map(|v| &v.data)
    }

    /// Snapshot of the latest version of the given cubes as a dataset.
    pub fn snapshot(&self, ids: &[CubeId]) -> Result<Dataset, EngineError> {
        let mut ds = Dataset::new();
        for id in ids {
            let meta = self
                .cubes
                .get(id)
                .ok_or_else(|| EngineError::Catalog(format!("unknown cube {id}")))?;
            let data = meta
                .current()
                .ok_or_else(|| EngineError::Catalog(format!("cube {id} has no data yet")))?
                .clone();
            ds.put(Cube::new(meta.schema.clone(), data));
        }
        Ok(ds)
    }

    /// The engine-wide logical clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Serialize to JSON (the catalog's persistence format).
    pub fn to_json(&self) -> Result<String, EngineError> {
        serde_json::to_string_pretty(self).map_err(|e| EngineError::Persistence(e.to_string()))
    }

    /// Restore from JSON.
    pub fn from_json(json: &str) -> Result<Catalog, EngineError> {
        serde_json::from_str(json).map_err(|e| EngineError::Persistence(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::schema::Dimension;
    use exl_model::value::{DimType, DimValue};

    fn schema(name: &str) -> CubeSchema {
        CubeSchema::new(
            name,
            vec![Dimension::new("k", DimType::Int)],
            CubeKind::Elementary,
        )
    }

    fn data(v: f64) -> CubeData {
        CubeData::from_tuples(vec![(vec![DimValue::Int(0)], v)]).unwrap()
    }

    #[test]
    fn register_and_conflict() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        c.register_schema(schema("A")).unwrap(); // idempotent
        let mut other = schema("A");
        other.dims.push(Dimension::new("z", DimType::Str));
        assert!(c.register_schema(other).is_err());
    }

    #[test]
    fn versioning_and_historicity() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        c.register_schema(schema("B")).unwrap();
        let v1 = c.store(&"A".into(), data(1.0)).unwrap();
        let v2 = c.store(&"B".into(), data(10.0)).unwrap();
        let v3 = c.store(&"A".into(), data(2.0)).unwrap();
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(
            c.current(&"A".into()).unwrap().get(&[DimValue::Int(0)]),
            Some(2.0)
        );
        // as-of queries
        assert_eq!(
            c.as_of(&"A".into(), v1).unwrap().get(&[DimValue::Int(0)]),
            Some(1.0)
        );
        assert_eq!(
            c.as_of(&"A".into(), v3).unwrap().get(&[DimValue::Int(0)]),
            Some(2.0)
        );
        assert!(c.as_of(&"B".into(), v1).is_none());
    }

    #[test]
    fn snapshot_requires_data() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        assert!(c.snapshot(&["A".into()]).is_err());
        c.store(&"A".into(), data(1.0)).unwrap();
        let ds = c.snapshot(&["A".into()]).unwrap();
        assert_eq!(ds.len(), 1);
        assert!(c.snapshot(&["Z".into()]).is_err());
    }

    #[test]
    fn affinity_and_programs() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        c.set_affinity(&"A".into(), Some(TargetKind::Sql)).unwrap();
        assert_eq!(c.meta(&"A".into()).unwrap().affinity, Some(TargetKind::Sql));
        assert!(c.set_affinity(&"Z".into(), None).is_err());
        c.register_program_source("p1", "B := 2 * A;").unwrap();
        assert!(c.register_program_source("p1", "other").is_err());
        assert_eq!(c.programs().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        c.store(&"A".into(), data(1.5)).unwrap();
        c.set_affinity(&"A".into(), Some(TargetKind::R)).unwrap();
        c.register_program_source("p", "B := 2 * A;").unwrap();
        let json = c.to_json().unwrap();
        let back = Catalog::from_json(&json).unwrap();
        assert_eq!(c, back);
        assert!(Catalog::from_json("not json").is_err());
    }

    /// A persisted affinity naming a target that no longer exists (the
    /// removed pipeline-parallel ETL runner) is a typed error on load.
    #[test]
    fn removed_target_affinity_is_rejected() {
        let mut c = Catalog::new();
        c.register_schema(schema("A")).unwrap();
        c.set_affinity(&"A".into(), Some(TargetKind::Etl)).unwrap();
        let json = c.to_json().unwrap();
        let stale = json.replace("\"Etl\"", concat!("\"Etl", "Parallel\""));
        assert_ne!(stale, json);
        let err = Catalog::from_json(&stale).unwrap_err();
        assert!(matches!(err, EngineError::Persistence(_)), "{err}");
    }
}
