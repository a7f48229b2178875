//! Result serialization: run records round-trip through JSON so figure
//! data can be archived, diffed, and post-processed outside Rust.
//!
//! Built on the in-repo [`caps_json`] crate (the build runs with no
//! registry access): a field-list macro generates both directions of the
//! conversion, so adding a counter to [`Stats`] only requires extending
//! one list here. `u64` counters round-trip exactly; floats go through
//! shortest-roundtrip formatting and come back bit-identical.

use std::io::Write as _;
use std::path::Path;

use caps_gpu_sim::port::PortSnapshot;
use caps_gpu_sim::stats::{KernelStats, LinkReport, Stats};
use caps_json::{obj, Error, Value};

use crate::energy::EnergyBreakdown;
use crate::harness::RunRecord;

/// Apply a macro to every `Stats` field (all `u64`).
macro_rules! for_each_stats_field {
    ($m:ident) => {
        $m!(
            cycles,
            warp_instructions,
            stall_cycles,
            mem_wait_cycles,
            l1d_demand_accesses,
            l1d_demand_hits,
            l1d_demand_misses,
            l1d_mshr_merges,
            l1d_reservation_fails,
            store_accesses,
            prefetch_issued,
            prefetch_dropped,
            prefetch_useful,
            prefetch_late,
            prefetch_early_evicted,
            prefetch_unused_resident,
            prefetch_distance_sum,
            prefetch_distance_count,
            prefetch_table_accesses,
            prefetch_mispredicts,
            prefetch_wakeups,
            icnt_requests,
            icnt_replies,
            icnt_stalls,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_reads,
            dram_writes,
            dram_row_hits,
            dram_row_misses,
            dram_queue_stalls,
            ctas_launched,
            ctas_completed
        )
    };
}

/// Apply a macro to every `EnergyBreakdown` field (all `f64`).
macro_rules! for_each_energy_field {
    ($m:ident) => {
        $m!(core_mj, l1_mj, l2_mj, dram_mj, icnt_mj, static_mj, caps_mj)
    };
}

fn stats_to_value(s: &Stats) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(s.$f)),)*])
        };
    }
    for_each_stats_field!(emit)
}

fn stats_from_value(v: &Value) -> Result<Stats, Error> {
    let mut s = Stats::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(s.$f = v.require(stringify!($f))?.as_u64()?;)*
        };
    }
    for_each_stats_field!(read);
    Ok(s)
}

fn energy_to_value(e: &EnergyBreakdown) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::Float(e.$f)),)*])
        };
    }
    for_each_energy_field!(emit)
}

fn energy_from_value(v: &Value) -> Result<EnergyBreakdown, Error> {
    let mut e = EnergyBreakdown::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(e.$f = v.require(stringify!($f))?.as_f64()?;)*
        };
    }
    for_each_energy_field!(read);
    Ok(e)
}

/// Apply a macro to every `LinkReport` subsystem (all [`PortSnapshot`]).
macro_rules! for_each_link_field {
    ($m:ident) => {
        $m!(
            req_net,
            pf_req_net,
            reply_net,
            pf_reply_net,
            sm_ports,
            partition_ports,
            dram_queues
        )
    };
}

fn snapshot_to_value(s: &PortSnapshot) -> Value {
    obj(vec![
        ("high_water", Value::UInt(s.high_water as u64)),
        ("credit_stalls", Value::UInt(s.credit_stalls)),
        ("grows", Value::UInt(s.grows)),
    ])
}

fn snapshot_from_value(v: &Value) -> Result<PortSnapshot, Error> {
    Ok(PortSnapshot {
        high_water: v.require("high_water")?.as_u64()? as usize,
        credit_stalls: v.require("credit_stalls")?.as_u64()?,
        grows: v.require("grows")?.as_u64()?,
    })
}

fn links_to_value(l: &LinkReport) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), snapshot_to_value(&l.$f)),)*])
        };
    }
    for_each_link_field!(emit)
}

fn links_from_value(v: &Value) -> Result<LinkReport, Error> {
    let mut l = LinkReport::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(l.$f = snapshot_from_value(v.require(stringify!($f))?)?;)*
        };
    }
    for_each_link_field!(read);
    Ok(l)
}

/// Apply a macro to every `KernelStats` field (all `u64`).
macro_rules! for_each_kernel_stats_field {
    ($m:ident) => {
        $m!(
            instructions,
            ctas_launched,
            ctas_completed,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_reads,
            dram_writes,
            start_cycle,
            finish_cycle
        )
    };
}

fn kernel_stats_to_value(k: &KernelStats) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(k.$f)),)*])
        };
    }
    for_each_kernel_stats_field!(emit)
}

fn kernel_stats_from_value(v: &Value) -> Result<KernelStats, Error> {
    let mut k = KernelStats::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(k.$f = v.require(stringify!($f))?.as_u64()?;)*
        };
    }
    for_each_kernel_stats_field!(read);
    Ok(k)
}

/// Serialize one record (also the format of the result cache's entry
/// files).
pub fn record_to_value(r: &RunRecord) -> Value {
    obj(vec![
        ("workload", Value::Str(r.workload.clone())),
        ("engine", Value::Str(r.engine.clone())),
        ("stats", stats_to_value(&r.stats)),
        ("energy", energy_to_value(&r.energy)),
        ("links", links_to_value(&r.links)),
        (
            "per_kernel",
            Value::Arr(r.per_kernel.iter().map(kernel_stats_to_value).collect()),
        ),
    ])
}

/// Parse one record (also reads the result cache's entry files).
pub fn record_from_value(v: &Value) -> Result<RunRecord, Error> {
    Ok(RunRecord {
        workload: v.require("workload")?.as_str()?.to_string(),
        engine: v.require("engine")?.as_str()?.to_string(),
        stats: stats_from_value(v.require("stats")?)?,
        energy: energy_from_value(v.require("energy")?)?,
        // Absent in records archived before the port layer existed.
        links: match v.get("links") {
            Some(lv) => links_from_value(lv)?,
            None => LinkReport::default(),
        },
        // Absent in records archived before the multi-tenant layer:
        // solo records legitimately carry an empty per-tenant block.
        per_kernel: match v.get("per_kernel") {
            Some(pv) => pv
                .as_arr()?
                .iter()
                .map(kernel_stats_from_value)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        },
    })
}

/// Serialize records to a JSON string (pretty-printed, stable field
/// order from the field-list macros above).
pub fn to_json(records: &[RunRecord]) -> String {
    Value::Arr(records.iter().map(record_to_value).collect()).pretty()
}

/// Parse records back from JSON.
pub fn from_json(s: &str) -> Result<Vec<RunRecord>, Error> {
    Value::parse(s)?.as_arr()?.iter().map(record_from_value).collect()
}

/// Write records to `path` as JSON.
pub fn save(records: &[RunRecord], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(records).as_bytes())
}

/// Load records from `path`.
pub fn load(path: &Path) -> std::io::Result<Vec<RunRecord>> {
    let s = std::fs::read_to_string(path)?;
    from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::harness::{run_one, RunSpec};
    use caps_workloads::Workload;

    #[test]
    fn records_round_trip_through_json() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Caps));
        let json = to_json(std::slice::from_ref(&r));
        let back = from_json(&json).expect("parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].workload, r.workload);
        assert_eq!(back[0].engine, r.engine);
        assert_eq!(back[0].stats, r.stats);
        assert!((back[0].energy.total_mj() - r.energy.total_mj()).abs() < 1e-12);
    }

    #[test]
    fn save_and_load_files() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Baseline));
        let dir = std::env::temp_dir().join("caps-export-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("records.json");
        save(std::slice::from_ref(&r), &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back[0].stats, r.stats);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn co_run_records_round_trip_per_kernel() {
        let spec = RunSpec::small(Workload::Scn, Engine::Caps)
            .co_resident(vec![Workload::Mrq], caps_gpu_sim::tenant::Partitioning::Shared);
        let r = run_one(&spec);
        assert_eq!(r.per_kernel.len(), 2);
        let back = from_json(&to_json(std::slice::from_ref(&r))).expect("parses");
        assert_eq!(back[0].per_kernel, r.per_kernel);
        assert_eq!(back[0].stats, r.stats);
    }

    #[test]
    fn pre_tenant_records_parse_with_empty_per_kernel() {
        // The on-disk shape before the multi-tenant layer: no
        // `per_kernel`, no `links`.
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Baseline));
        let legacy = Value::Arr(vec![obj(vec![
            ("workload", Value::Str(r.workload.clone())),
            ("engine", Value::Str(r.engine.clone())),
            ("stats", stats_to_value(&r.stats)),
            ("energy", energy_to_value(&r.energy)),
        ])])
        .pretty();
        let back = from_json(&legacy).expect("legacy shape parses");
        assert_eq!(back[0].stats, r.stats);
        assert!(back[0].per_kernel.is_empty());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_json("{not json").is_err());
    }

    #[test]
    fn missing_stats_field_is_an_error() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Baseline));
        let json = to_json(&[r]).replace("\"cycles\"", "\"cycels\"");
        assert!(from_json(&json).is_err());
    }
}
