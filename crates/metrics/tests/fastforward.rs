//! Differential property test for fast-forward.
//!
//! The simulator's run loop may replace the pipeline walk of an SM that
//! provably cannot make progress with analytic accounting, cached until
//! that SM's next event. The contract is strict: every
//! [`caps_gpu_sim::stats::Stats`] field — and therefore every derived
//! metric and energy number — must be **bit-identical** to naive
//! cycle-by-cycle stepping, on every workload and engine, and so must
//! the host-side port report (`RunRecord::links`).
//!
//! This suite runs the full workload suite at small scale under a
//! representative cross-section of engines, and at paper scale under a
//! cycle cap, and compares the two modes field by field.

use caps_metrics::{run_one_with_opts, Engine, RunOpts, RunSpec};
use caps_workloads::all_workloads;

fn assert_modes_agree(spec: &RunSpec) {
    assert_modes_agree_capped(spec, None);
}

fn assert_modes_agree_capped(spec: &RunSpec, max_cycles: Option<u64>) {
    let run = |ff: bool| {
        let opts = RunOpts {
            fast_forward: Some(ff),
            max_cycles,
        };
        run_one_with_opts(spec, &opts)
    };
    let fast = run(true);
    let naive = run(false);
    assert_eq!(
        fast.stats, naive.stats,
        "stats diverged on {} / {}",
        fast.workload, fast.engine
    );
    assert_eq!(
        fast.links, naive.links,
        "port report diverged on {} / {}",
        fast.workload, fast.engine
    );
    assert_eq!(
        fast.energy.total_mj(),
        naive.energy.total_mj(),
        "energy diverged on {} / {}",
        fast.workload,
        fast.engine
    );
}

/// Every workload under the baseline (no prefetcher): exercises pure
/// scheduler/memory-system quiescence.
#[test]
fn fast_forward_matches_naive_on_all_workloads_baseline() {
    for w in all_workloads() {
        assert_modes_agree(&RunSpec::small(w, Engine::Baseline));
    }
}

/// Every workload under the full CAPS engine: exercises prefetch queues,
/// the prefetch virtual channels, and age-out deadlines.
#[test]
fn fast_forward_matches_naive_on_all_workloads_caps() {
    for w in all_workloads() {
        assert_modes_agree(&RunSpec::small(w, Engine::Caps));
    }
}

/// A cross-section of the remaining engines (alternative prefetchers and
/// schedulers) over a memory-bound and a compute-bound workload each.
#[test]
fn fast_forward_matches_naive_across_engines() {
    use caps_workloads::Workload;
    let engines = [
        Engine::Intra,
        Engine::Inter,
        Engine::Mta,
        Engine::Nlp,
        Engine::Lap,
        Engine::Orch,
        Engine::CapsNoWakeup,
        Engine::CapsOnLrr,
        Engine::CapsOnTlv,
        Engine::CapsOnPasGto,
    ];
    for engine in engines {
        assert_modes_agree(&RunSpec::small(Workload::Bfs, engine));
        assert_modes_agree(&RunSpec::small(Workload::Mm, engine));
    }
}

/// Every workload under BASE and CAPS at paper scale — the real 15-SM /
/// 12-partition / 6-channel geometry, with multi-partition channels —
/// cut off by a cycle cap. Caps of this size land mid-flight in every
/// workload, so the comparison covers warm steady state (in-flight
/// interconnect traffic, populated MSHRs, active FR-FCFS reordering)
/// and SMs cut off while quiescent, not just drained end states.
#[test]
fn fast_forward_matches_naive_at_full_scale_capped() {
    for w in all_workloads() {
        for engine in [Engine::Baseline, Engine::Caps] {
            assert_modes_agree_capped(&RunSpec::paper(w, engine), Some(60_000));
        }
    }
}
