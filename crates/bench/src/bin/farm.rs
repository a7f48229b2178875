//! Sweep-farm driver and benchmark: run the standard sensitivity sweep
//! through the work-stealing farm and report cache/dedup counters.
//!
//! ```text
//! farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]
//!      [--workloads A,B,..] [--out PATH] [--stats PATH]
//! farm --bench [--small] [--jobs N] [--workloads A,B,..] [--out PATH]
//! ```
//!
//! The default mode runs every `standard_axes()` sensitivity axis over
//! the selected workloads on one farm, prints the sweep tables, and
//! optionally writes the sweep summary (`--out`, stable JSON suitable
//! for byte-comparison across passes) and the farm/cache counters
//! (`--stats`). Two invocations sharing a `--cache-dir` exercise the
//! persistent path: the second pass should resolve (almost) entirely
//! from disk — the CI smoke job asserts a ≥90% hit rate and
//! byte-identical sweep output.
//!
//! `--bench` times three passes of the same sweep against a fresh
//! throwaway cache directory — cold (simulating + storing), warm from
//! disk (in-memory index dropped), warm from memory — and writes
//! `BENCH_farm.json` (override with `--out`) recording the timings,
//! speedups, per-pass counters, and a `host` header describing the
//! machine (cores, SMT, model, oversubscription).
//!
//! `--prune-against PATH` loads a results archive — a result-cache
//! directory, or any JSON carrying job keys such as a previous `--stats`
//! file or `BENCH_farm.json` — and skips every sweep job whose content
//! key it covers (reported as `pruned`; pruned sweep points render as
//! `NaN` with a `(pruned)` label). The `job_keys` array written by
//! `--stats` and per-pass bench entries makes any run's output usable
//! as such an archive.
//!
//! Separate processes share results by pointing `--cache-dir` (or
//! `GPU_SIM_CACHE_DIR`) at the same directory; concurrent passes over
//! one directory produce byte-identical `--out` files.

use std::path::PathBuf;
use std::time::Instant;

use caps_json::{obj, Value};
use caps_metrics::{
    standard_axes, sweep_jobs, sweep_pruned, CacheMode, Engine, Farm, FarmStats, PruneSet,
    ResultCache, SweepResult, Table,
};
use caps_workloads::{all_workloads, Scale, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: farm [--small] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]\n\
         \x20           [--workloads A,B,..] [--out PATH] [--stats PATH] [--prune-against PATH]\n\
         \x20      farm --bench [--small] [--jobs N] [--workloads A,B,..] [--out PATH]\n\
         \x20           [--prune-against PATH]\n\
         BENCH: {}",
        all_workloads()
            .iter()
            .map(|w| w.abbr())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

/// The value following `flag`, if present. A flag given without a value
/// is a usage error (exit 2).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    })
}

/// `--workloads A,B,..` (default: the whole suite).
fn parse_workloads(args: &[String]) -> Vec<Workload> {
    match flag_value(args, "--workloads") {
        Some(list) => caps_bench::parse_workload_list(&list).unwrap_or_else(|e| {
            eprintln!("{e} (in --workloads)");
            std::process::exit(2);
        }),
        None => all_workloads(),
    }
}

/// `--prune-against PATH`: load a results archive (cache directory or
/// any JSON carrying job keys) whose covered points are skipped.
fn parse_prune(args: &[String]) -> PruneSet {
    match flag_value(args, "--prune-against") {
        Some(path) => {
            let set = PruneSet::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
                eprintln!("--prune-against {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("pruning against {path}: {} known job keys", set.len());
            set
        }
        None => PruneSet::new(),
    }
}

/// `--jobs N` worker threads (default: `available_parallelism`).
fn parse_jobs(args: &[String]) -> usize {
    match flag_value(args, "--jobs") {
        Some(n) => n.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--jobs requires a positive integer");
            std::process::exit(2);
        }),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

/// Run all standard axes on `farm`, skipping jobs covered by `prune`.
/// Returns the sweep summaries, the aggregated batch statistics, and
/// the submitted job content keys (pruned ones included) so the run's
/// own output can serve as a future `--prune-against` archive.
fn run_axes(
    farm: &Farm,
    workloads: &[Workload],
    scale: Scale,
    prune: &PruneSet,
) -> (Vec<SweepResult>, FarmStats, Vec<u128>) {
    let mut total = FarmStats::default();
    let mut results = Vec::new();
    let mut job_keys = Vec::new();
    for (axis, points) in standard_axes() {
        for job in sweep_jobs(&points, workloads, Engine::Caps, scale) {
            job_keys.push(job.digest());
        }
        let (r, s) = sweep_pruned(farm, &axis, points, workloads, Engine::Caps, scale, prune);
        total.jobs += s.jobs;
        total.sims += s.sims;
        total.mem_hits += s.mem_hits;
        total.disk_hits += s.disk_hits;
        total.dedup += s.dedup;
        total.pruned += s.pruned;
        results.push(r);
    }
    job_keys.sort_unstable();
    job_keys.dedup();
    (results, total, job_keys)
}

/// Render each axis as an ASCII speedup table on stdout.
fn print_tables(results: &[SweepResult]) {
    for r in results {
        let mut t = Table::new(&["point", "CAPS speedup"]);
        for (label, s) in r.labels.iter().zip(&r.speedup) {
            t.row(vec![label.clone(), format!("{s:.3}")]);
        }
        println!("{}\n{}", r.axis, t.render());
    }
}

/// Stable JSON for the sweep summaries — byte-comparable across passes
/// and processes (floats are shortest-roundtrip).
fn sweep_summary_json(results: &[SweepResult]) -> String {
    let axes: Vec<Value> = results
        .iter()
        .map(|r| {
            obj(vec![
                ("axis", Value::Str(r.axis.clone())),
                (
                    "labels",
                    Value::Arr(r.labels.iter().map(|l| Value::Str(l.clone())).collect()),
                ),
                (
                    "speedup",
                    Value::Arr(r.speedup.iter().map(|&s| Value::Float(s)).collect()),
                ),
            ])
        })
        .collect();
    Value::Arr(axes).pretty()
}

/// Farm/cache counter report, including the batch's `job_keys` so the
/// file doubles as a `--prune-against` archive.
fn stats_json(stats: &FarmStats, cache: &ResultCache, seconds: f64, job_keys: &[u128]) -> Value {
    let c = cache.counters();
    obj(vec![
        ("jobs", Value::UInt(stats.jobs)),
        ("sims", Value::UInt(stats.sims)),
        ("mem_hits", Value::UInt(stats.mem_hits)),
        ("disk_hits", Value::UInt(stats.disk_hits)),
        ("hits", Value::UInt(stats.hits())),
        ("dedup", Value::UInt(stats.dedup)),
        ("pruned", Value::UInt(stats.pruned)),
        ("hit_rate", Value::Float(stats.hit_rate())),
        ("seconds", Value::Float(seconds)),
        ("cache_stores", Value::UInt(c.stores)),
        ("cache_store_errors", Value::UInt(c.store_errors)),
        ("cache_misses", Value::UInt(c.misses)),
        // The batch's content keys: feed this file (or any JSON
        // containing it) back via --prune-against to skip every job it
        // covers.
        (
            "job_keys",
            Value::Arr(
                job_keys
                    .iter()
                    .map(|k| Value::Str(format!("{k:032x}")))
                    .collect(),
            ),
        ),
    ])
}

fn bench(args: &[String]) {
    let scale = caps_bench::scale_from_args();
    let workloads = parse_workloads(args);
    let jobs = parse_jobs(args);
    let out = flag_value(args, "--out").unwrap_or_else(|| "BENCH_farm.json".to_string());
    let prune = parse_prune(args);

    // A throwaway cache directory so the cold pass is genuinely cold and
    // the run leaves no state behind.
    let dir = std::env::temp_dir().join(format!("caps-farm-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(CacheMode::ReadWrite, &dir);
    let farm = Farm::new(&cache, jobs);

    let mut passes = Vec::new();
    let mut seconds = [0.0f64; 3];
    let mut cold_summary = String::new();
    for (pi, pass) in ["cold", "warm_disk", "warm_mem"].iter().enumerate() {
        if *pass == "warm_disk" {
            // Forget the in-memory index so every hit must parse disk.
            cache.drop_index();
        }
        let t0 = Instant::now();
        let (results, stats, job_keys) = run_axes(&farm, &workloads, scale, &prune);
        seconds[pi] = t0.elapsed().as_secs_f64();
        let summary = sweep_summary_json(&results);
        if pi == 0 {
            cold_summary = summary;
            print_tables(&results);
        } else {
            assert_eq!(
                summary, cold_summary,
                "{pass} pass produced different sweep output than the cold pass"
            );
        }
        eprintln!(
            "{pass}: {:.3}s  jobs={} sims={} mem={} disk={} dedup={} pruned={}",
            seconds[pi],
            stats.jobs,
            stats.sims,
            stats.mem_hits,
            stats.disk_hits,
            stats.dedup,
            stats.pruned
        );
        let mut entry = stats_json(&stats, &cache, seconds[pi], &job_keys);
        if let Value::Obj(fields) = &mut entry {
            fields.insert(0, ("pass".to_string(), Value::Str(pass.to_string())));
        }
        passes.push(entry);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let scale_str = if scale == Scale::Small { "small" } else { "full" };
    let doc = obj(vec![
        ("bench", Value::Str("sweep_farm".to_string())),
        ("host", caps_bench::host_json(jobs)),
        (
            "timing",
            Value::Str(
                "standard_axes sweep, three passes on one farm: cold, warm from disk \
                 (index dropped), warm from memory"
                    .to_string(),
            ),
        ),
        ("scale", Value::Str(scale_str.to_string())),
        (
            "workloads",
            Value::Arr(
                workloads
                    .iter()
                    .map(|w| Value::Str(w.abbr().to_string()))
                    .collect(),
            ),
        ),
        ("farm_workers", Value::UInt(jobs as u64)),
        ("warm_disk_speedup", Value::Float(seconds[0] / seconds[1])),
        ("warm_mem_speedup", Value::Float(seconds[0] / seconds[2])),
        ("passes", Value::Arr(passes)),
    ]);
    std::fs::write(&out, doc.pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "\nwrote {out} (warm-from-disk {:.1}x, warm-from-memory {:.1}x)",
        seconds[0] / seconds[1],
        seconds[0] / seconds[2]
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if args.iter().any(|a| a == "--bench") {
        bench(&args);
        return;
    }
    let scale = caps_bench::scale_from_args();
    let workloads = parse_workloads(&args);
    let jobs = parse_jobs(&args);
    let mode = match flag_value(&args, "--cache").as_deref() {
        None | Some("rw") => CacheMode::ReadWrite,
        Some("ro") => CacheMode::ReadOnly,
        Some("off") => CacheMode::Off,
        Some(other) => {
            eprintln!("unknown cache mode {other:?} (rw|ro|off)");
            usage()
        }
    };
    let dir = flag_value(&args, "--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(caps_metrics::cache::default_cache_dir);
    let cache = ResultCache::new(mode, dir);
    let farm = Farm::new(&cache, jobs);
    let prune = parse_prune(&args);

    let t0 = Instant::now();
    let (results, stats, job_keys) = run_axes(&farm, &workloads, scale, &prune);
    let seconds = t0.elapsed().as_secs_f64();
    print_tables(&results);
    eprintln!(
        "{:.3}s  jobs={} sims={} mem={} disk={} dedup={} pruned={}  (hit rate {:.1}%, cache dir {})",
        seconds,
        stats.jobs,
        stats.sims,
        stats.mem_hits,
        stats.disk_hits,
        stats.dedup,
        stats.pruned,
        stats.hit_rate() * 100.0,
        cache.dir().display(),
    );

    if let Some(out) = flag_value(&args, "--out") {
        std::fs::write(&out, sweep_summary_json(&results))
            .unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
    }
    if let Some(path) = flag_value(&args, "--stats") {
        let mut doc = stats_json(&stats, &cache, seconds, &job_keys);
        if let Value::Obj(fields) = &mut doc {
            fields.insert(0, ("host".to_string(), caps_bench::host_json(jobs)));
        }
        std::fs::write(&path, doc.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
