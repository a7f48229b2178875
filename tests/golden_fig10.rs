//! Golden check: the committed Figure-10 records reproduce exactly.
//!
//! Every paper-scale BASE and CAPS cell of Fig. 10 is simulated fresh
//! through `run_one` (no result cache involved) and compared with the
//! record archived in `results/fig10_records.json`. Any change to
//! simulated behaviour shows up here as a `Stats` mismatch and must
//! come with regenerated results. Decoding the archive through
//! `record_from_value` also proves that records written by older
//! builds, which carry keys this build no longer knows, keep parsing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use caps_json::Value;
use caps_metrics::{record_from_value, run_one, Engine, RunRecord, RunSpec};
use caps_workloads::all_workloads;

fn committed_records() -> Vec<RunRecord> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fig10_records.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = Value::parse(&text).expect("fig10_records.json parses");
    doc.as_arr()
        .expect("fig10_records.json is an array")
        .iter()
        .map(|v| record_from_value(v).expect("archived record decodes"))
        .collect()
}

#[test]
fn fig10_base_and_caps_cells_match_the_committed_records() {
    let committed = committed_records();
    let specs: Vec<RunSpec> = all_workloads()
        .into_iter()
        .flat_map(|w| [Engine::Baseline, Engine::Caps].map(|e| RunSpec::paper(w, e)))
        .collect();
    assert_eq!(specs.len(), 32);

    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let fresh = run_one(spec);
                    let cell = format!("{}/{}", fresh.workload, fresh.engine);
                    let want = committed
                        .iter()
                        .find(|r| r.workload == fresh.workload && r.engine == fresh.engine);
                    let problem = match want {
                        None => Some(format!("{cell}: no committed record")),
                        Some(want) if want.stats != fresh.stats => Some(format!(
                            "{cell}: stats differ (cycles {} committed, {} fresh)",
                            want.stats.cycles, fresh.stats.cycles
                        )),
                        Some(_) if fresh.links.total().grows != 0 => {
                            Some(format!("{cell}: a ring grew past its preallocated size"))
                        }
                        Some(_) => None,
                    };
                    if let Some(p) = problem {
                        failures.lock().unwrap().push(p);
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}",
        failures.join("\n")
    );
}
