//! The result cache's core contract: a record served from the cache —
//! from the in-memory index, or parsed back out of a JSON entry written
//! by a *different* cache instance — is bit-identical to a fresh
//! simulation of the same spec. Plus the mode lattice (`rw`/`ro`/`off`),
//! the torn/mismatched-entry miss behaviour, and two farms sharing one
//! directory at once.

use caps_metrics::{
    job_digest, record_to_value, run_one, CacheMode, Engine, Farm, FarmJob, Partitioning,
    ResultCache, RunOpts, RunRecord, RunSpec,
};
use caps_workloads::Workload;

/// A unique throwaway cache directory per test (tests run in parallel
/// within one process).
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("caps-farm-cache-{tag}-{}", std::process::id()))
}

/// Representative (workload, engine) pairs: the baseline scheduler, the
/// paper configuration, and a simple prefetcher on a second workload.
fn pairs() -> [(Workload, Engine); 3] {
    [
        (Workload::Scn, Engine::Baseline),
        (Workload::Scn, Engine::Caps),
        (Workload::Mrq, Engine::Nlp),
    ]
}

#[test]
fn cached_records_are_bit_identical_to_fresh_runs() {
    let dir = tmp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    for (w, e) in pairs() {
        let spec = RunSpec::small(w, e);
        let fresh = run_one(&spec);

        // Writer process stand-in: simulate once, persisting to disk.
        let writer = ResultCache::new(CacheMode::ReadWrite, &dir);
        let (recs, stats) = Farm::new(&writer, 2).run(&[FarmJob::new(spec.clone())]);
        assert_eq!(stats.sims, 1, "{w:?}/{e:?}: cold farm must simulate");
        assert_eq!(recs[0].stats, fresh.stats, "{w:?}/{e:?}: farm == direct run");

        // Reader process stand-in: a fresh instance with an empty index
        // must reconstruct the record from the JSON entry alone.
        let reader = ResultCache::new(CacheMode::ReadWrite, &dir);
        let (recs, stats) = Farm::new(&reader, 2).run(&[FarmJob::new(spec.clone())]);
        assert_eq!(stats.sims, 0, "{w:?}/{e:?}: warm farm must not simulate");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(
            recs[0].stats, fresh.stats,
            "{w:?}/{e:?}: disk round-trip must be bit-identical"
        );
        assert_eq!(recs[0].workload, fresh.workload);
        assert_eq!(recs[0].engine, fresh.engine);
        let de = (recs[0].energy.total_mj() - fresh.energy.total_mj()).abs();
        assert_eq!(de, 0.0, "{w:?}/{e:?}: energy floats round-trip exactly");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_co_run_records_are_bit_identical_to_fresh_runs() {
    let dir = tmp_dir("tenants");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RunSpec::small(Workload::Scn, Engine::Caps)
        .co_resident(vec![Workload::Mrq], Partitioning::Shared);
    let fresh = run_one(&spec);
    assert_eq!(fresh.per_kernel.len(), 2, "co-run carries per-tenant stats");

    // The co-run key must not alias the solo key for the same
    // (workload, engine): a warm solo cache cannot answer a co-run.
    let solo = RunSpec::small(Workload::Scn, Engine::Caps);
    assert_ne!(
        job_digest(&spec, &RunOpts::default()),
        job_digest(&solo, &RunOpts::default())
    );

    let writer = ResultCache::new(CacheMode::ReadWrite, &dir);
    let (recs, stats) = Farm::new(&writer, 2).run(&[FarmJob::new(spec.clone())]);
    assert_eq!(stats.sims, 1);
    assert_eq!(recs[0].stats, fresh.stats);

    // A fresh instance reconstructs the whole record — including the
    // per-tenant block — from the JSON entry alone, bit-identically.
    let reader = ResultCache::new(CacheMode::ReadWrite, &dir);
    let (recs, stats) = Farm::new(&reader, 2).run(&[FarmJob::new(spec)]);
    assert_eq!((stats.sims, stats.disk_hits), (0, 1));
    assert_eq!(recs[0].stats, fresh.stats);
    assert_eq!(recs[0].per_kernel, fresh.per_kernel);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_mode_reads_but_never_writes() {
    let dir = tmp_dir("ro");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RunSpec::small(Workload::Scn, Engine::Baseline);
    let key = job_digest(&spec, &RunOpts::default());

    let ro = ResultCache::new(CacheMode::ReadOnly, &dir);
    let (_, stats) = Farm::new(&ro, 1).run(&[FarmJob::new(spec.clone())]);
    assert_eq!(stats.sims, 1);
    assert!(!dir.exists(), "ro mode must not create entries");
    // ...but it does populate the in-process index.
    let (_, stats) = Farm::new(&ro, 1).run(&[FarmJob::new(spec.clone())]);
    assert_eq!((stats.sims, stats.mem_hits), (0, 1));

    // Seed the directory with a rw cache; a fresh ro instance reads it.
    let rw = ResultCache::new(CacheMode::ReadWrite, &dir);
    Farm::new(&rw, 1).run(&[FarmJob::new(spec.clone())]);
    assert!(rw.lookup(key).is_some());
    let ro2 = ResultCache::new(CacheMode::ReadOnly, &dir);
    let (_, stats) = Farm::new(&ro2, 1).run(&[FarmJob::new(spec)]);
    assert_eq!((stats.sims, stats.disk_hits), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_mismatched_entries_read_as_misses() {
    let dir = tmp_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RunSpec::small(Workload::Scn, Engine::Baseline);
    let key = job_digest(&spec, &RunOpts::default());
    let rw = ResultCache::new(CacheMode::ReadWrite, &dir);
    Farm::new(&rw, 1).run(&[FarmJob::new(spec.clone())]);
    let entry = dir.join(format!("{key:032x}.json"));
    assert!(entry.exists(), "entry file written");

    // Truncate mid-JSON: a torn write that bypassed the tmp+rename
    // protocol must read as a miss, not an error.
    let text = std::fs::read_to_string(&entry).unwrap();
    std::fs::write(&entry, &text[..text.len() / 2]).unwrap();
    let fresh = ResultCache::new(CacheMode::ReadWrite, &dir);
    assert!(fresh.lookup(key).is_none(), "torn entry is a miss");

    // An entry whose embedded key disagrees with its filename (renamed
    // by hand, or a digest-scheme change) is also a miss.
    let other = dir.join(format!("{:032x}.json", key ^ 1));
    std::fs::write(&other, &text).unwrap();
    let fresh = ResultCache::new(CacheMode::ReadWrite, &dir);
    assert!(fresh.lookup(key ^ 1).is_none(), "key mismatch is a miss");
    // And the farm recovers by re-simulating and re-writing.
    let (recs, stats) = Farm::new(&fresh, 1).run(&[FarmJob::new(spec.clone())]);
    assert_eq!(stats.sims, 1);
    assert_eq!(recs[0].stats, run_one(&spec).stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn off_mode_always_simulates() {
    let dir = tmp_dir("off");
    let _ = std::fs::remove_dir_all(&dir);
    let off = ResultCache::new(CacheMode::Off, &dir);
    let spec = RunSpec::small(Workload::Scn, Engine::Baseline);
    let jobs = [FarmJob::new(spec.clone()), FarmJob::new(spec)];
    let (_, s1) = Farm::new(&off, 1).run(&jobs);
    let (_, s2) = Farm::new(&off, 1).run(&jobs);
    // Within a batch, submission dedup still collapses the repeat; but
    // nothing carries across batches.
    assert_eq!((s1.sims, s1.dedup, s1.hits()), (1, 1, 0));
    assert_eq!((s2.sims, s2.dedup, s2.hits()), (1, 1, 0));
    assert!(!dir.exists());
}

#[test]
fn concurrent_farms_on_one_dir_return_identical_records() {
    let dir = tmp_dir("shared");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs: Vec<FarmJob> = pairs()
        .into_iter()
        .map(|(w, e)| FarmJob::new(RunSpec::small(w, e)))
        .collect();
    let bytes = |recs: &[RunRecord]| -> Vec<String> {
        recs.iter().map(|r| record_to_value(r).pretty()).collect()
    };

    // Two "processes": separate caches over the same fresh directory,
    // released together so their stores race on the same keys.
    let caches = [
        ResultCache::new(CacheMode::ReadWrite, &dir),
        ResultCache::new(CacheMode::ReadWrite, &dir),
    ];
    let start = std::sync::Barrier::new(caches.len());
    let outs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = caches
            .iter()
            .map(|cache| {
                let (jobs, start) = (&jobs, &start);
                scope.spawn(move || {
                    start.wait();
                    bytes(&Farm::new(cache, 2).run(jobs).0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let off = ResultCache::new(CacheMode::Off, tmp_dir("shared-off"));
    let reference = bytes(&Farm::new(&off, 2).run(&jobs).0);
    assert_eq!(outs[0], outs[1], "the two farms disagree");
    assert_eq!(
        outs[0], reference,
        "shared-cache records differ from uncached runs"
    );
    for cache in &caches {
        assert_eq!(cache.counters().store_errors, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
