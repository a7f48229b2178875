//! The four workloads: set-up, the measured op loop, output checks,
//! and the metrics each run reports.
//!
//! One client, closed loop: the next op starts when the previous one
//! returns. Plain runs time each op from outside with `Instant` and
//! give the end-to-end metrics; traced runs wrap every public call in a
//! span and give the per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use caps_gpu_sim::stats::Stats;
use caps_json::Value;
use caps_metrics::{
    record_from_value, run_one, standard_axes, sweep_jobs, CacheMode, Engine, Farm, FarmJob,
    FarmStats, ResultCache, RunRecord, RunSpec,
};
use caps_workloads::{all_workloads, irregular_workloads, regular_workloads, Scale, Workload};

use crate::check::{self, Reference, Tally};
use crate::host;
use crate::speed::HostSpeed;
use crate::stats::{median, percentile, Rng};
use crate::trace::{traced_solo, HookTotals, SoloRun, Tracer};

/// The committed Fig. 10 records every simulated op is checked against.
pub const REFERENCE: &str = "results/fig10_records.json";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 12 regular kernels at paper scale under CAPS, one `run_one`
    /// per op.
    CapsRegular,
    /// The 4 irregular kernels at paper scale under the baseline, one
    /// `run_one` per op.
    BaseIrregular,
    /// The Fig. 10 matrix (16 kernels × 8 engines) through one farm
    /// into an empty cache directory; one pass per op.
    PaperMatrix,
    /// The standard sweep at small scale resolved from a warm cache
    /// directory by a fresh cache and a 1-worker farm; one batch per op.
    SweepWarm,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::CapsRegular,
        Kind::BaseIrregular,
        Kind::PaperMatrix,
        Kind::SweepWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CapsRegular => "caps-regular",
            Kind::BaseIrregular => "base-irregular",
            Kind::PaperMatrix => "paper-matrix",
            Kind::SweepWarm => "sweep-warm",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Permutes op order within each pass.
    pub seed: u64,
    /// How long the op loop runs.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Checkout root: holds `results/`.
    pub root: PathBuf,
    /// Scratch directory for cache directories; must not exist yet.
    pub work: PathBuf,
    /// Farm workers where a workload uses more than one.
    pub workers: usize,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Passes the op loop made.
    pub passes: usize,
    /// The spans of a traced run.
    pub spans: Option<Value>,
    /// The median factor a plain run's times were scaled by to the
    /// nominal host speed (`HostSpeed`); 1 on a traced run, whose times
    /// are raw.
    pub speed_factor: f64,
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work)
        .map_err(|e| format!("creating {}: {e}", cfg.work.display()))?;
    match cfg.kind {
        Kind::CapsRegular => solo(cfg, &regular_workloads(), Engine::Caps),
        Kind::BaseIrregular => solo(cfg, &irregular_workloads(), Engine::Baseline),
        Kind::PaperMatrix => paper_matrix(cfg),
        Kind::SweepWarm => sweep_warm(cfg),
    }
}

/// Run `setup` `repeats` times; keep the last result and the median
/// duration in seconds, scaled to the nominal host speed.
fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut speed = HostSpeed::new(1);
    let mut last = None;
    for k in 0..repeats {
        let t = Instant::now();
        last = Some(setup(k)?);
        speed.record(0, t.elapsed());
    }
    let setup_s = speed.finish().medians[0];
    Ok((last.expect("at least one set-up"), setup_s))
}

/// Keep making passes until the run has lasted `seconds` (at least one).
fn passes_until(
    seconds: Duration,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < seconds {
        pass(n)?;
        n += 1;
    }
    Ok(n)
}

/// The plain run's samples: every repeat of each distinct op, scaled
/// to the nominal host speed.
struct Samples {
    setup_s: f64,
    speed: HostSpeed,
    /// Per distinct op: jobs resolved and warp instructions.
    work: Vec<(usize, u64)>,
}

impl Samples {
    fn new(setup_s: f64, ops: usize) -> Samples {
        Samples {
            setup_s,
            speed: HostSpeed::new(ops),
            work: vec![(0, 0); ops],
        }
    }

    /// A repeat of op `i`.
    fn op(&mut self, i: usize, dt: Duration, jobs: usize, insns: u64) {
        self.speed.record(i, dt);
        self.work[i] = (jobs, insns);
    }

    /// The end-to-end metrics, from one pass made of each op's median
    /// scaled time, and the median scaling factor.
    fn end_to_end(self, tally: &Tally) -> Result<(Vec<Metric>, f64), String> {
        let rss = host::peak_rss_mb().ok_or("peak RSS is not available on this platform")?;
        let scaled = self.speed.finish();
        let secs: f64 = scaled.medians.iter().sum();
        let jobs: usize = self.work.iter().map(|w| w.0).sum();
        let insns: u64 = self.work.iter().map(|w| w.1).sum();
        let op_ms: Vec<f64> = scaled.medians.iter().map(|s| s * 1e3).collect();
        let metrics = vec![
            metric("setup_s", self.setup_s, "s"),
            metric("sim_kips", insns as f64 / secs / 1e3, "kinsn/s"),
            metric("op_ms_p50", percentile(&op_ms, 50.0), "ms"),
            metric("op_ms_p90", percentile(&op_ms, 90.0), "ms"),
            metric("jobs_per_s", jobs as f64 / secs, "1/s"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("ok_rate", tally.ok_rate(), "ratio"),
        ];
        Ok((metrics, scaled.factor))
    }
}

fn load_reference(root: &Path, specs: &[RunSpec]) -> Result<Reference, String> {
    let all = Reference::load(&root.join(REFERENCE))?;
    let mut mine = Reference::default();
    for s in specs {
        let (w, e) = (s.workload.abbr(), s.engine.label());
        let stats = all
            .get(w, e)
            .ok_or_else(|| format!("{REFERENCE} has no record for {w}/{e}"))?;
        mine.set(w, e, stats.clone());
    }
    Ok(mine)
}

// --- caps-regular, base-irregular ------------------------------------

fn solo(cfg: &Config, workloads: &[Workload], engine: Engine) -> Result<Report, String> {
    let specs: Vec<RunSpec> = workloads
        .iter()
        .map(|&w| RunSpec::paper(w, engine))
        .collect();
    let (reference, setup_s) = timed_setup(101, |_| load_reference(&cfg.root, &specs))?;
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);
    if !cfg.trace {
        // Each kernel is a distinct op.
        let mut s = Samples::new(setup_s, specs.len());
        let passes = passes_until(cfg.seconds, |_| {
            for i in rng.permutation(specs.len()) {
                let (dt, insns) = solo_op(&specs[i], &reference, &mut tally);
                s.op(i, dt, 1, insns);
            }
            Ok(())
        })?;
        let (metrics, speed_factor) = s.end_to_end(&tally)?;
        return Ok(Report {
            tally,
            metrics,
            passes,
            spans: None,
            speed_factor,
        });
    }

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let mut overhead = Overhead::default();
    let dir = cfg.work.join("roundtrip");
    let mut op = 0;
    let passes = passes_until(cfg.seconds, |pass| {
        for i in rng.permutation(specs.len()) {
            op += 1;
            tr.set_op(op);
            let (plain, traced) = plain_and_traced(&mut tr, &specs[i], op, &mut overhead);
            if pass == 0 {
                layers.sim.add(&traced);
            }
            tally.op(check::all([
                reference.check(&plain),
                same_stats(&traced.stats, &plain),
                round_trip(&mut tr, &dir, &specs[i], &plain, &mut layers),
            ]));
        }
        Ok(())
    })?;
    layers.host_passes = passes as u64;
    layers.overhead = overhead.share();
    Ok(Report {
        metrics: layers.metrics(&tr),
        tally,
        passes,
        spans: Some(tr.to_value()),
        speed_factor: 1.0,
    })
}

/// One plain solo op: `run_one`, timed from outside, then checked.
/// Returns the latency and the warp instructions simulated.
fn solo_op(spec: &RunSpec, reference: &Reference, tally: &mut Tally) -> (Duration, u64) {
    let t = Instant::now();
    let rec = run_one(spec);
    let dt = t.elapsed();
    tally.op(reference.check(&rec));
    (dt, rec.stats.warp_instructions)
}

/// Run `spec` plainly through `run_one` and through the decorated
/// rebuild; which goes first alternates with `op`, so warm-up effects
/// fall on both sides equally.
fn plain_and_traced(
    tr: &mut Tracer,
    spec: &RunSpec,
    op: u64,
    overhead: &mut Overhead,
) -> (RunRecord, SoloRun) {
    let plain_first = op.is_multiple_of(2);
    let mut plain = None;
    let mut traced = None;
    for side in [plain_first, !plain_first] {
        let t = Instant::now();
        if side {
            plain = Some(tr.time("harness.run_one", || run_one(spec)));
            overhead.plain_ns += t.elapsed().as_nanos() as u64;
        } else {
            traced = Some(traced_solo(spec, tr));
            overhead.last_traced_ns = t.elapsed().as_nanos() as u64;
            overhead.traced_ns += overhead.last_traced_ns;
        }
    }
    (
        plain.expect("plain side ran"),
        traced.expect("traced side ran"),
    )
}

fn same_stats(traced: &Stats, plain: &RunRecord) -> Result<(), String> {
    if traced == &plain.stats {
        Ok(())
    } else {
        Err(format!(
            "{}/{}: decorated rebuild differs from run_one",
            plain.workload, plain.engine
        ))
    }
}

/// Store `fresh` in the cache at `dir` and read it back through a fresh
/// cache and through the entry file: both must equal `fresh`.
fn round_trip(
    tr: &mut Tracer,
    dir: &Path,
    spec: &RunSpec,
    fresh: &RunRecord,
    layers: &mut Layers,
) -> Result<(), String> {
    let job = FarmJob::new(spec.clone());
    let key = tr.time("cache.digest", || job.digest());
    let cache = ResultCache::new(CacheMode::ReadWrite, dir);
    tr.time("cache.insert", || cache.insert(key, fresh));
    layers.add_cache(&cache);
    let cold = ResultCache::new(CacheMode::ReadWrite, dir);
    let hit = tr
        .time("cache.lookup", || cold.lookup(key))
        .ok_or_else(|| {
            format!(
                "{}/{}: stored record not found",
                fresh.workload, fresh.engine
            )
        })?;
    check::same_record(&hit, fresh)?;
    check::same_record(&read_entry(tr, dir, key, layers)?, fresh)
}

/// A cache entry read, parsed and decoded by hand, one span per step
/// (`ResultCache::lookup` does the same three steps inside one call).
fn read_entry(
    tr: &mut Tracer,
    dir: &Path,
    key: u128,
    layers: &mut Layers,
) -> Result<RunRecord, String> {
    let path = dir.join(format!("{key:032x}.json"));
    let text = tr
        .time("fs.read", || std::fs::read_to_string(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    layers.entry_bytes.push(text.len() as f64);
    let doc = tr
        .time("json.parse", || Value::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let record = doc
        .get("record")
        .ok_or_else(|| format!("{}: no record", path.display()))?;
    tr.time("export.decode", || record_from_value(record))
        .map_err(|e| format!("{}: {e}", path.display()))
}

// --- paper-matrix ----------------------------------------------------

fn matrix_jobs() -> Vec<FarmJob> {
    let mut jobs = Vec::new();
    for w in all_workloads() {
        for e in std::iter::once(Engine::Baseline).chain(Engine::FIGURE10) {
            jobs.push(FarmJob::new(RunSpec::paper(w, e)));
        }
    }
    jobs
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// One cold farm pass over `jobs` in `order` into a fresh directory.
/// Returns the wall time, the batch statistics and the checks' outcome.
fn matrix_pass(
    cfg: &Config,
    jobs: &[FarmJob],
    order: &[usize],
    reference: &Reference,
    dir: &Path,
    tr: Option<&mut Tracer>,
) -> Result<(Duration, FarmStats, u64, Result<(), String>), String> {
    remove_dir(dir)?;
    let batch: Vec<FarmJob> = order.iter().map(|&i| jobs[i].clone()).collect();
    let span = tr.map(|tr| (tr.enter("farm.run"), tr));
    let t = Instant::now();
    let cache = ResultCache::new(CacheMode::ReadWrite, dir);
    let (recs, stats) = Farm::new(&cache, cfg.workers).run(&batch);
    let dt = t.elapsed();
    if let Some((id, tr)) = span {
        tr.exit(id);
    }
    let counters = cache.counters();
    let insns = recs.iter().map(|r| r.stats.warp_instructions).sum();
    let mut outcomes = vec![
        expect_eq("farm sims", stats.sims, jobs.len() as u64),
        expect_eq("cache stores", counters.stores, jobs.len() as u64),
        expect_eq("cache store errors", counters.store_errors, 0),
    ];
    outcomes.extend(recs.iter().map(|r| reference.check(r)));
    remove_dir(dir)?;
    Ok((dt, stats, insns, check::all(outcomes)))
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

fn paper_matrix(cfg: &Config) -> Result<Report, String> {
    let ((jobs, reference), setup_s) = timed_setup(15, |_| {
        let jobs = matrix_jobs();
        let specs: Vec<RunSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        Ok((jobs, load_reference(&cfg.root, &specs)?))
    })?;
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);
    let dir = cfg.work.join("matrix");
    if !cfg.trace {
        // Every pass is the same op: the same jobs in another order.
        let mut s = Samples::new(setup_s, 1);
        let passes = passes_until(cfg.seconds, |_| {
            let order = rng.permutation(jobs.len());
            let (dt, _, insns, outcome) = matrix_pass(cfg, &jobs, &order, &reference, &dir, None)?;
            tally.op(outcome);
            s.op(0, dt, jobs.len(), insns);
            Ok(())
        })?;
        let (metrics, speed_factor) = s.end_to_end(&tally)?;
        return Ok(Report {
            tally,
            metrics,
            passes,
            spans: None,
            speed_factor,
        });
    }

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let mut walls = Vec::new();
    let mut op = 0;
    let passes = passes_until(cfg.seconds, |_| {
        op += 1;
        tr.set_op(op);
        let order = rng.permutation(jobs.len());
        let (dt, stats, _, outcome) =
            matrix_pass(cfg, &jobs, &order, &reference, &dir, Some(&mut tr))?;
        tally.op(outcome);
        walls.push(dt.as_secs_f64() * 1e9);
        layers.farm = FarmLayer::from_stats(&stats);
        Ok(())
    })?;

    // One serial pass rebuilt from public calls, as a 1-worker farm
    // resolves a cold batch: digest, lookup (a miss), simulate, insert.
    // It gives each job's serial time, and with the decorated rebuild
    // of the same job, the simulator and prefetcher split.
    let serial = cfg.work.join("serial");
    let cache = ResultCache::new(CacheMode::ReadWrite, &serial);
    let mut overhead = Overhead::default();
    let mut job_ns = Vec::with_capacity(jobs.len());
    let mut fresh = Vec::with_capacity(jobs.len());
    for i in rng.permutation(jobs.len()) {
        op += 1;
        tr.set_op(op);
        let job = &jobs[i];
        let t = Instant::now();
        let key = tr.time("cache.digest", || job.digest());
        let miss = tr.time("cache.lookup", || cache.lookup(key));
        let (plain, traced) = plain_and_traced(&mut tr, &job.spec, op, &mut overhead);
        tr.time("cache.insert", || cache.insert(key, &plain));
        job_ns.push((t.elapsed().as_nanos() as u64 - overhead.last_traced_ns) as f64);
        layers.sim.add(&traced);
        tally.op(check::all([
            miss.map_or(Ok(()), |_| Err("cold cache served a hit".to_string())),
            reference.check(&plain),
            same_stats(&traced.stats, &plain),
        ]));
        fresh.push((key, plain));
    }
    layers.add_cache(&cache);

    // Read the serial pass's entries back through a fresh cache and by
    // hand: cached ≡ fresh for every record the pass wrote.
    let cold = ResultCache::new(CacheMode::ReadWrite, &serial);
    for (key, plain) in &fresh {
        op += 1;
        tr.set_op(op);
        let outcome = tr
            .time("cache.lookup", || cold.lookup(*key))
            .ok_or_else(|| {
                format!(
                    "{}/{}: stored record not found",
                    plain.workload, plain.engine
                )
            })
            .and_then(|hit| check::same_record(&hit, plain))
            .and_then(|()| read_entry(&mut tr, &serial, *key, &mut layers))
            .and_then(|rec| check::same_record(&rec, plain));
        tally.op(outcome);
    }

    let wall = median(&walls);
    layers.farm.parallel_efficiency = job_ns.iter().sum::<f64>() / (wall * cfg.workers as f64);
    layers.farm.longest_job_share = job_ns.iter().copied().fold(0.0, f64::max) / wall;
    layers.host_passes = 1;
    layers.overhead = overhead.share();
    Ok(Report {
        metrics: layers.metrics(&tr),
        tally,
        passes,
        spans: Some(tr.to_value()),
        speed_factor: 1.0,
    })
}

// --- sweep-warm ------------------------------------------------------

fn sweep_batch() -> Vec<FarmJob> {
    let mut jobs = Vec::new();
    for (_, points) in standard_axes() {
        jobs.extend(sweep_jobs(
            &points,
            &all_workloads(),
            Engine::Caps,
            Scale::Small,
        ));
    }
    jobs
}

fn sweep_warm(cfg: &Config) -> Result<Report, String> {
    // Set-up fills a fresh cache directory with the whole sweep; the
    // last fill is the one the ops read, and its records are what every
    // batch must return. One worker, as in the ops: with two, the peak
    // resident set depends on how the workers' simulations overlap.
    const FILLS: usize = 3;
    let fill_dir = |k: usize| cfg.work.join(format!("sweep-{k}"));
    let ((jobs, fill, dir), setup_s) = timed_setup(FILLS, |k| {
        let dir = fill_dir(k);
        let jobs = sweep_batch();
        let cache = ResultCache::new(CacheMode::ReadWrite, &dir);
        let (recs, stats) = Farm::new(&cache, 1).run(&jobs);
        let c = cache.counters();
        check::all([
            expect_eq("fill stores", c.stores, stats.sims),
            expect_eq("fill store errors", c.store_errors, 0),
            expect_eq("fill jobs", stats.sims + stats.dedup, jobs.len() as u64),
        ])
        .map_err(|e| format!("sweep set-up: {e}"))?;
        Ok((jobs, recs, dir))
    })?;
    for k in 0..FILLS - 1 {
        remove_dir(&fill_dir(k))?;
    }
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);

    // One op: a fresh cache and a 1-worker farm resolve the permuted
    // batch; it must simulate nothing and return the fill's records.
    let batch_op = |rng: &mut Rng| {
        let order = rng.permutation(jobs.len());
        let batch: Vec<FarmJob> = order.iter().map(|&i| jobs[i].clone()).collect();
        let t = Instant::now();
        let cache = ResultCache::new(CacheMode::ReadWrite, &dir);
        let (recs, stats) = Farm::new(&cache, 1).run(&batch);
        let dt = t.elapsed();
        let mut outcomes = vec![expect_eq("warm batch sims", stats.sims, 0)];
        outcomes.extend(
            order
                .iter()
                .zip(&recs)
                .map(|(&i, r)| check::same_record(r, &fill[i])),
        );
        let insns: u64 = recs.iter().map(|r| r.stats.warp_instructions).sum();
        (dt, stats, insns, check::all(outcomes))
    };

    if !cfg.trace {
        // Every batch is the same op: the same jobs in another order.
        let mut s = Samples::new(setup_s, 1);
        let passes = passes_until(cfg.seconds, |_| {
            let (dt, _, insns, outcome) = batch_op(&mut rng);
            tally.op(outcome);
            s.op(0, dt, jobs.len(), insns);
            Ok(())
        })?;
        let (metrics, speed_factor) = s.end_to_end(&tally)?;
        return Ok(Report {
            tally,
            metrics,
            passes,
            spans: None,
            speed_factor,
        });
    }

    // Plain and traced batches alternate; the traced one is one span.
    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut op = 0;
    let passes = passes_until(cfg.seconds, |n| {
        op += 1;
        tr.set_op(op);
        let traced = n % 2 == 1;
        let span = traced.then(|| tr.enter("farm.run"));
        let (dt, stats, _, outcome) = batch_op(&mut rng);
        if let Some(id) = span {
            tr.exit(id);
            traced_ns.push(dt.as_nanos() as f64);
        } else {
            plain_ns.push(dt.as_nanos() as f64);
        }
        layers.farm = FarmLayer::from_stats(&stats);
        tally.op(outcome);
        Ok(())
    })?;

    // Each job's share of a batch, by hand: digest every job, then look
    // up and read each distinct key once through a fresh cache.
    let cold = ResultCache::new(CacheMode::ReadWrite, &dir);
    let mut seen = std::collections::HashSet::new();
    let mut job_ns = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        op += 1;
        tr.set_op(op);
        let t = Instant::now();
        let key = tr.time("cache.digest", || job.digest());
        if !seen.insert(key) {
            job_ns.push(t.elapsed().as_nanos() as f64);
            continue;
        }
        let hit = tr.time("cache.lookup", || cold.lookup(key));
        job_ns.push(t.elapsed().as_nanos() as f64);
        let outcome = hit
            .ok_or_else(|| "warm cache missed".to_string())
            .and_then(|hit| check::same_record(&hit, &fill[i]))
            .and_then(|()| read_entry(&mut tr, &dir, key, &mut layers))
            .and_then(|rec| check::same_record(&rec, &fill[i]));
        tally.op(outcome);
    }

    // Cached ≡ fresh: simulate the sweep's first point again, plainly
    // and decorated, against the records the cache serves. Storing the
    // fresh records in a scratch cache times the write side too.
    let mut overhead = Overhead::default();
    let scratch = ResultCache::new(CacheMode::ReadWrite, cfg.work.join("fresh"));
    let first_point = 2 * all_workloads().len();
    for (i, job) in jobs.iter().enumerate().take(first_point) {
        op += 1;
        tr.set_op(op);
        let (plain, traced) = plain_and_traced(&mut tr, &job.spec, op, &mut overhead);
        let key = job.digest();
        tr.time("cache.insert", || scratch.insert(key, &plain));
        layers.sim.add(&traced);
        tally.op(check::all([
            check::same_record(&fill[i], &plain),
            same_stats(&traced.stats, &plain),
            check::no_ring_growth(&plain),
        ]));
    }
    layers.add_cache(&scratch);

    let wall = median(&plain_ns);
    layers.farm.parallel_efficiency = job_ns.iter().sum::<f64>() / wall;
    layers.farm.longest_job_share = job_ns.iter().copied().fold(0.0, f64::max) / wall;
    layers.host_passes = 1;
    layers.overhead = match traced_ns.is_empty() {
        true => 0.0,
        false => median(&traced_ns) / wall - 1.0,
    };
    Ok(Report {
        metrics: layers.metrics(&tr),
        tally,
        passes,
        spans: Some(tr.to_value()),
        speed_factor: 1.0,
    })
}

// --- per-layer metrics -----------------------------------------------

/// Host time of the same jobs run plainly and decorated.
#[derive(Debug, Default)]
struct Overhead {
    plain_ns: u64,
    traced_ns: u64,
    /// The decorated side of the latest job.
    last_traced_ns: u64,
}

impl Overhead {
    fn share(&self) -> f64 {
        self.traced_ns as f64 / self.plain_ns.max(1) as f64 - 1.0
    }
}

/// Simulated counts and host-side simulator counters of one pass.
#[derive(Debug, Default)]
struct SimCounts {
    stats: Stats,
    skipped_cycles: u64,
    skip_events: u64,
    credit_stalls: u64,
    ring_high_water: usize,
    ring_grows: u64,
    hooks: HookTotals,
}

impl SimCounts {
    fn add(&mut self, run: &SoloRun) {
        macro_rules! sum {
            ($($f:ident),* $(,)?) => { $( self.stats.$f += run.stats.$f; )* };
        }
        sum!(
            cycles,
            warp_instructions,
            stall_cycles,
            mem_wait_cycles,
            l1d_demand_accesses,
            l1d_demand_misses,
            l1d_mshr_merges,
            l1d_reservation_fails,
            prefetch_issued,
            prefetch_dropped,
            prefetch_useful,
            prefetch_late,
            prefetch_early_evicted,
            prefetch_table_accesses,
            prefetch_mispredicts,
            prefetch_wakeups,
            icnt_requests,
            icnt_stalls,
            l2_accesses,
            l2_hits,
            dram_reads,
            dram_row_hits,
            dram_row_misses,
            dram_queue_stalls,
        );
        self.skipped_cycles += run.skipped_cycles;
        self.skip_events += run.skip_events;
        let links = run.links.total();
        self.credit_stalls += links.credit_stalls;
        self.ring_high_water = self.ring_high_water.max(links.high_water);
        self.ring_grows += links.grows;
        let h = &run.hooks;
        self.hooks.on_demand_calls += h.on_demand_calls;
        self.hooks.on_l1_miss_calls += h.on_l1_miss_calls;
        self.hooks.requests += h.requests;
    }
}

/// Farm counters of one batch, and how well its workers were used.
#[derive(Debug, Default, Clone, Copy)]
struct FarmLayer {
    sims: u64,
    dedup: u64,
    disk_hits: u64,
    mem_hits: u64,
    /// Σ serial job time ÷ (batch wall × workers).
    parallel_efficiency: f64,
    /// Longest serial job ÷ batch wall.
    longest_job_share: f64,
}

impl FarmLayer {
    fn from_stats(s: &FarmStats) -> FarmLayer {
        FarmLayer {
            sims: s.sims,
            dedup: s.dedup,
            disk_hits: s.disk_hits,
            mem_hits: s.mem_hits,
            ..FarmLayer::default()
        }
    }
}

/// What a traced run gathers besides its spans.
#[derive(Debug, Default)]
struct Layers {
    /// Simulated counts of one pass.
    sim: SimCounts,
    /// Passes the host-time spans cover.
    host_passes: u64,
    farm: FarmLayer,
    stores: u64,
    store_errors: u64,
    entry_bytes: Vec<f64>,
    overhead: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    fn add_cache(&mut self, cache: &ResultCache) {
        let c = cache.counters();
        self.stores += c.stores;
        self.store_errors += c.store_errors;
    }

    fn metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let totals = tr.totals();
        let of = |name: &str| totals.get(name).copied().unwrap_or_default();
        let count = |n: u64| n as f64;
        let (on_demand, on_l1_miss) = (of("prefetcher.on_demand"), of("prefetcher.on_l1_miss"));
        let run = of("gpu_sim.run_launches");
        let s = &self.sim.stats;
        let hook_ns = on_demand.total_ns + on_l1_miss.total_ns;
        let host_cycles = s.cycles * self.host_passes;
        let entry_bytes = match self.entry_bytes.is_empty() {
            true => 0.0,
            false => self.entry_bytes.iter().sum::<f64>() / self.entry_bytes.len() as f64,
        };
        vec![
            metric(
                "prefetcher.on_demand_calls",
                count(self.sim.hooks.on_demand_calls),
                "count",
            ),
            metric(
                "prefetcher.on_demand_ns",
                ratio(on_demand.total_ns, on_demand.calls),
                "ns",
            ),
            metric(
                "prefetcher.on_l1_miss_calls",
                count(self.sim.hooks.on_l1_miss_calls),
                "count",
            ),
            metric(
                "prefetcher.on_l1_miss_ns",
                ratio(on_l1_miss.total_ns, on_l1_miss.calls),
                "ns",
            ),
            metric(
                "prefetcher.requests",
                count(self.sim.hooks.requests),
                "count",
            ),
            metric(
                "prefetcher.hook_share",
                ratio(hook_ns, run.total_ns),
                "ratio",
            ),
            metric("cap.prefetch_issued", count(s.prefetch_issued), "count"),
            metric("cap.prefetch_dropped", count(s.prefetch_dropped), "count"),
            metric("cap.accuracy", s.accuracy(), "ratio"),
            metric("cap.coverage", s.coverage(), "ratio"),
            metric("cap.late", count(s.prefetch_late), "count"),
            metric(
                "cap.early_evicted",
                count(s.prefetch_early_evicted),
                "count",
            ),
            metric(
                "cap.table_accesses",
                count(s.prefetch_table_accesses),
                "count",
            ),
            metric("cap.mispredicts", count(s.prefetch_mispredicts), "count"),
            metric("pas.wakeups", count(s.prefetch_wakeups), "count"),
            metric(
                "gpu_sim.run_self_ms",
                run.self_ns as f64 / 1e6 / self.host_passes.max(1) as f64,
                "ms",
            ),
            metric(
                "gpu_sim.self_ns_per_cycle",
                ratio(run.self_ns, host_cycles),
                "ns",
            ),
            metric("gpu_sim.new_us", of("gpu_sim.new").mean_us(), "us"),
            metric(
                "gpu_sim.skipped_cycle_share",
                ratio(self.sim.skipped_cycles, s.cycles),
                "ratio",
            ),
            metric("gpu_sim.skip_events", count(self.sim.skip_events), "count"),
            metric(
                "gpu_sim.credit_stalls",
                count(self.sim.credit_stalls),
                "count",
            ),
            metric(
                "gpu_sim.ring_high_water",
                self.sim.ring_high_water as f64,
                "count",
            ),
            metric("gpu_sim.ring_grows", count(self.sim.ring_grows), "count"),
            metric("sm.cycles", count(s.cycles), "count"),
            metric("sm.warp_instructions", count(s.warp_instructions), "count"),
            metric("sm.stall_cycles", count(s.stall_cycles), "count"),
            metric("sm.mem_wait_cycles", count(s.mem_wait_cycles), "count"),
            metric("l1d.demand_accesses", count(s.l1d_demand_accesses), "count"),
            metric("l1d.miss_rate", s.l1d_miss_rate(), "ratio"),
            metric("l1d.mshr_merges", count(s.l1d_mshr_merges), "count"),
            metric(
                "l1d.reservation_fails",
                count(s.l1d_reservation_fails),
                "count",
            ),
            metric("icnt.requests", count(s.icnt_requests), "count"),
            metric("icnt.stalls", count(s.icnt_stalls), "count"),
            metric("l2.accesses", count(s.l2_accesses), "count"),
            metric("l2.hit_rate", ratio(s.l2_hits, s.l2_accesses), "ratio"),
            metric("dram.reads", count(s.dram_reads), "count"),
            metric(
                "dram.row_hit_rate",
                ratio(s.dram_row_hits, s.dram_row_hits + s.dram_row_misses),
                "ratio",
            ),
            metric("dram.queue_stalls", count(s.dram_queue_stalls), "count"),
            metric("farm.sims", self.farm.sims as f64, "count"),
            metric("farm.dedup", self.farm.dedup as f64, "count"),
            metric("farm.disk_hits", self.farm.disk_hits as f64, "count"),
            metric("farm.mem_hits", self.farm.mem_hits as f64, "count"),
            metric(
                "farm.parallel_efficiency",
                self.farm.parallel_efficiency,
                "ratio",
            ),
            metric(
                "farm.longest_job_share",
                self.farm.longest_job_share,
                "ratio",
            ),
            metric("cache.insert_us", of("cache.insert").mean_us(), "us"),
            metric("cache.stores", self.stores as f64, "count"),
            metric("cache.store_errors", self.store_errors as f64, "count"),
            metric("cache.digest_us", of("cache.digest").mean_us(), "us"),
            metric("cache.lookup_us", of("cache.lookup").mean_us(), "us"),
            metric("json.parse_us", of("json.parse").mean_us(), "us"),
            metric("export.decode_us", of("export.decode").mean_us(), "us"),
            metric("cache.entry_bytes", entry_bytes, "bytes"),
            metric("trace.overhead_share", self.overhead, "ratio"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed check is counted against the op; the run goes on.
    #[test]
    fn perturbed_reference_counts_as_failed() {
        let spec = RunSpec::small(Workload::Scn, Engine::Caps);
        let good = Reference::from_records(&[run_one(&spec)]);
        let mut bad = good.clone();
        let mut stats = good.get("SCN", "CAPS").expect("reference cell").clone();
        stats.cycles += 1;
        bad.set("SCN", "CAPS", stats);

        let mut tally = Tally::default();
        solo_op(&spec, &good, &mut tally);
        solo_op(&spec, &bad, &mut tally);
        solo_op(&spec, &good, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(
            tally.messages[0].starts_with("SCN/CAPS"),
            "{:?}",
            tally.messages
        );
        assert!((tally.ok_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("caps"), None);
    }
}
