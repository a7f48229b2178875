//! Parameter-sensitivity sweeps.
//!
//! The paper fixes Table III and sweeps only the concurrent-CTA count
//! (Fig. 11). For a library release the natural follow-up questions are
//! "how sensitive is the CAPS benefit to the cache budget, the MSHR
//! count, the ready-queue size, the prefetch-queue depth?" — this module
//! answers them with one generic sweep primitive.

use caps_gpu_sim::config::GpuConfig;
use caps_workloads::{Scale, Workload};

use crate::engine::Engine;
use crate::farm::{Farm, FarmJob, FarmStats, PruneSet};
use crate::harness::{default_threads, RunSpec};
use crate::report::mean;

/// One swept parameter point: label plus the config it produces.
pub struct SweepPoint {
    /// Axis label, e.g. `"l1=32KB"`.
    pub label: String,
    /// The configuration at this point.
    pub config: GpuConfig,
}

/// The result of a sweep: per point, the mean baseline-normalized IPC of
/// the swept engine across the workload set.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Which knob was swept.
    pub axis: String,
    /// Point labels.
    pub labels: Vec<String>,
    /// Mean CAPS speedup at each point (engine IPC / baseline IPC,
    /// both at that point's configuration).
    pub speedup: Vec<f64>,
}

/// Run `engine` and the baseline at every point, over `workloads`, on
/// the process-wide farm (environment-configured cache, default worker
/// count).
pub fn sweep(
    axis: &str,
    points: Vec<SweepPoint>,
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
) -> SweepResult {
    sweep_on(&Farm::global(default_threads()), axis, points, workloads, engine, scale).0
}

/// [`sweep`] on an explicit farm, also returning the batch statistics
/// (simulations run, cache hits, points deduplicated). Duplicate sweep
/// points — overlapping axes that both contain the base configuration,
/// or caller-supplied repeats — collapse to one simulation each via the
/// farm's content-keyed submission dedup.
pub fn sweep_on(
    farm: &Farm,
    axis: &str,
    points: Vec<SweepPoint>,
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
) -> (SweepResult, FarmStats) {
    sweep_pruned(farm, axis, points, workloads, engine, scale, &PruneSet::new())
}

/// [`sweep_on`] against a [`PruneSet`] archive: any `(point, workload,
/// engine)` job whose content key appears in the archive is skipped
/// entirely. A point with *any* pruned job gets a `NaN` speedup and a
/// `"(pruned)"`-suffixed label — callers distinguish "measured here"
/// from "already covered elsewhere" without re-simulating the latter.
#[allow(clippy::too_many_arguments)]
pub fn sweep_pruned(
    farm: &Farm,
    axis: &str,
    points: Vec<SweepPoint>,
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
    prune: &PruneSet,
) -> (SweepResult, FarmStats) {
    let jobs = sweep_jobs(&points, workloads, engine, scale);
    let (recs, stats) = farm.run_pruned(&jobs, prune);
    let per_point = workloads.len() * 2;
    let mut speedup = Vec::new();
    let mut pruned_points = Vec::new();
    for (pi, _) in points.iter().enumerate() {
        let vals: Option<Vec<f64>> = (0..workloads.len())
            .map(|wi| {
                let base = recs[pi * per_point + wi * 2].as_ref()?.ipc();
                let eng = recs[pi * per_point + wi * 2 + 1].as_ref()?.ipc();
                Some(eng / base)
            })
            .collect();
        match vals {
            Some(vals) => {
                speedup.push(mean(&vals));
                pruned_points.push(false);
            }
            None => {
                speedup.push(f64::NAN);
                pruned_points.push(true);
            }
        }
    }
    let labels = points
        .into_iter()
        .zip(&pruned_points)
        .map(|(p, &was_pruned)| {
            if was_pruned {
                format!("{} (pruned)", p.label)
            } else {
                p.label
            }
        })
        .collect();
    let result = SweepResult {
        axis: axis.to_string(),
        labels,
        speedup,
    };
    (result, stats)
}

/// The farm jobs a sweep submits, in submission order: `points ×
/// workloads × [baseline, engine]`, point-major. Public so sweep
/// drivers can archive the batch's content keys ([`FarmJob::digest`])
/// and prune them from later invocations.
pub fn sweep_jobs(
    points: &[SweepPoint],
    workloads: &[Workload],
    engine: Engine,
    scale: Scale,
) -> Vec<FarmJob> {
    let mut jobs = Vec::new();
    for p in points {
        for &w in workloads {
            for e in [Engine::Baseline, engine] {
                let mut s = RunSpec::paper(w, e);
                s.scale = scale;
                s.base_config = p.config.clone();
                jobs.push(FarmJob::new(s));
            }
        }
    }
    jobs
}

/// The four standard sensitivity axes, centred on Table III.
pub fn standard_axes() -> Vec<(String, Vec<SweepPoint>)> {
    let base = GpuConfig::fermi_gtx480;
    let mut axes = Vec::new();

    let l1: Vec<SweepPoint> = [8u32, 16, 32, 64]
        .iter()
        .map(|&kb| {
            let mut c = base();
            c.l1d.size_bytes = kb * 1024;
            SweepPoint {
                label: format!("{kb}KB"),
                config: c,
            }
        })
        .collect();
    axes.push(("L1D size".to_string(), l1));

    let mshr: Vec<SweepPoint> = [8u32, 16, 32, 64]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.l1d.mshr_entries = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("L1 MSHR entries".to_string(), mshr));

    let rq: Vec<SweepPoint> = [4usize, 8, 16]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.ready_queue_size = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("ready-queue size".to_string(), rq));

    let pfq: Vec<SweepPoint> = [16usize, 64, 256]
        .iter()
        .map(|&n| {
            let mut c = base();
            c.prefetch_queue_depth = n;
            SweepPoint {
                label: format!("{n}"),
                config: c,
            }
        })
        .collect();
    axes.push(("prefetch-queue depth".to_string(), pfq));

    axes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_are_consistent() {
        let axes = standard_axes();
        assert_eq!(axes.len(), 4);
        for (_, points) in &axes {
            assert!(points.len() >= 3);
        }
        let (axis, points) = axes.into_iter().next().expect("non-empty");
        let r = sweep(&axis, points, &[Workload::Scn], Engine::Caps, Scale::Small);
        assert_eq!(r.labels.len(), 4);
        assert_eq!(r.speedup.len(), 4);
        assert!(
            r.speedup.iter().all(|&s| s > 0.3 && s < 3.0),
            "{:?}",
            r.speedup
        );
    }

    #[test]
    fn sweep_dedups_repeated_points() {
        use crate::cache::{CacheMode, ResultCache};
        let cache = ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-sweep-unused"));
        let farm = Farm::new(&cache, 4);
        let base = GpuConfig::fermi_gtx480;
        // Two identical points plus one distinct, mimicking overlapping
        // axes that both contain the base configuration.
        let mut big = base();
        big.l1d.size_bytes = 64 * 1024;
        let points = vec![
            SweepPoint { label: "base".into(), config: base() },
            SweepPoint { label: "base-again".into(), config: base() },
            SweepPoint { label: "64KB".into(), config: big },
        ];
        let (r, stats) = sweep_on(
            &farm,
            "dup-axis",
            points,
            &[Workload::Scn],
            Engine::Caps,
            Scale::Small,
        );
        // 3 points × 1 workload × 2 engines = 6 jobs, but the repeated
        // point's pair dedups: only 4 simulations, deterministically.
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.sims, 4);
        assert_eq!(stats.dedup, 2);
        assert_eq!(stats.hits(), 0, "cache off: dedup alone collapses repeats");
        assert_eq!(r.speedup[0], r.speedup[1], "identical points, identical result");
    }

    #[test]
    fn pruned_sweep_marks_covered_points() {
        use crate::cache::{CacheMode, ResultCache};
        use crate::farm::FarmJob;
        let cache = ResultCache::new(CacheMode::Off, std::env::temp_dir().join("caps-sweep-unused"));
        let farm = Farm::new(&cache, 2);
        let base = GpuConfig::fermi_gtx480;
        let mut big = base();
        big.l1d.size_bytes = 64 * 1024;
        let points = vec![
            SweepPoint { label: "base".into(), config: base() },
            SweepPoint { label: "64KB".into(), config: big.clone() },
        ];
        // Archive covers the base point's baseline job: the whole point
        // is reported as pruned, the other point still measures.
        let mut prune = PruneSet::new();
        let mut covered = RunSpec::paper(Workload::Scn, Engine::Baseline);
        covered.scale = Scale::Small;
        covered.base_config = base();
        prune.insert(FarmJob::new(covered).digest());
        let (r, stats) = sweep_pruned(
            &farm,
            "axis",
            points,
            &[Workload::Scn],
            Engine::Caps,
            Scale::Small,
            &prune,
        );
        assert_eq!(stats.pruned, 1);
        assert_eq!(r.labels[0], "base (pruned)");
        assert!(r.speedup[0].is_nan());
        assert_eq!(r.labels[1], "64KB");
        assert!(r.speedup[1] > 0.0);
    }

    #[test]
    fn standard_axes_stay_valid_configs() {
        for (_, points) in standard_axes() {
            for p in points {
                assert_eq!(p.config.validate(), Ok(()), "{}", p.label);
            }
        }
    }
}
