//! Output checks and failure accounting.
//!
//! Every op's output is checked, and a failed check is counted, not
//! raised: the run goes on, and the failure shows in `failed`,
//! `correct` and `ok_rate`.

use std::collections::HashMap;
use std::path::Path;

use caps_gpu_sim::stats::Stats;
use caps_json::Value;
use caps_metrics::{record_from_value, RunRecord};

/// The committed full-scale records of Fig. 10 (`results/fig10_records.json`),
/// keyed by (workload abbreviation, engine label).
#[derive(Debug, Clone, Default)]
pub struct Reference {
    cells: HashMap<(String, String), Stats>,
}

impl Reference {
    /// Parse a records file written by `run_all`.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let items = doc
            .as_arr()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let records = items
            .iter()
            .map(record_from_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Reference::from_records(&records))
    }

    /// A reference made of `records`.
    pub fn from_records(records: &[RunRecord]) -> Reference {
        let cells = records
            .iter()
            .map(|r| ((r.workload.clone(), r.engine.clone()), r.stats.clone()))
            .collect();
        Reference { cells }
    }

    /// The reference statistics of one cell.
    pub fn get(&self, workload: &str, engine: &str) -> Option<&Stats> {
        self.cells.get(&(workload.to_string(), engine.to_string()))
    }

    /// Set one cell's statistics.
    pub fn set(&mut self, workload: &str, engine: &str, stats: Stats) {
        self.cells
            .insert((workload.to_string(), engine.to_string()), stats);
    }

    /// A simulated record's statistics must equal the reference cell
    /// exactly, and its memory-path rings must never have grown.
    pub fn check(&self, rec: &RunRecord) -> Result<(), String> {
        let want = self
            .get(&rec.workload, &rec.engine)
            .ok_or_else(|| format!("{}/{}: no reference record", rec.workload, rec.engine))?;
        if &rec.stats != want {
            return Err(format!(
                "{}/{}: stats differ from the reference (cycles {} vs {})",
                rec.workload, rec.engine, rec.stats.cycles, want.cycles
            ));
        }
        no_ring_growth(rec)
    }
}

/// Steady state of the memory path is allocation-free: no ring may have
/// outgrown its preallocated capacity.
pub fn no_ring_growth(rec: &RunRecord) -> Result<(), String> {
    match rec.links.total().grows {
        0 => Ok(()),
        n => Err(format!("{}/{}: ring_grows = {n}", rec.workload, rec.engine)),
    }
}

/// Cached ≡ fresh: every field a cached record carries equals the
/// record that was stored.
pub fn same_record(cached: &RunRecord, fresh: &RunRecord) -> Result<(), String> {
    if cached.workload == fresh.workload
        && cached.engine == fresh.engine
        && cached.stats == fresh.stats
        && cached.energy == fresh.energy
        && cached.links == fresh.links
        && cached.per_kernel == fresh.per_kernel
    {
        Ok(())
    } else {
        Err(format!(
            "{}/{}: cached record differs from the fresh one",
            fresh.workload, fresh.engine
        ))
    }
}

/// How many ops were attempted and how many failed a check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with at least one failed check.
    pub failed: u64,
    /// The first few failure messages, for the run record.
    pub messages: Vec<String>,
}

impl Tally {
    const KEPT_MESSAGES: usize = 8;

    /// Count one op whose checks gave `outcome`.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < Self::KEPT_MESSAGES {
                self.messages.push(msg);
            }
        }
    }

    /// Share of attempted ops that passed every check.
    pub fn ok_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The first failure of several checks on one op, or success.
pub fn all(outcomes: impl IntoIterator<Item = Result<(), String>>) -> Result<(), String> {
    outcomes
        .into_iter()
        .collect::<Result<Vec<()>, String>>()
        .map(drop)
}
