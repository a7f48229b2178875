//! Spans around public calls, and the prefetcher timing decorator.
//!
//! The traced run records a span for every public call the benchmark
//! makes: name, start, end, parent span and op id. Spans stay in memory
//! and are written out when the run ends. Prefetcher hooks run hundreds
//! of thousands of times per simulation, so they are not spans each:
//! the decorator sums them, and the sums become one aggregate span per
//! simulation and hook. A span's self time is its duration minus the
//! time its children cover.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use caps_gpu_sim::gpu::{Gpu, DEFAULT_MAX_CYCLES};
use caps_gpu_sim::prefetch::{DemandObservation, PrefetchRequest, Prefetcher, PrefetcherFactory};
use caps_gpu_sim::stats::{LinkReport, Stats};
use caps_gpu_sim::types::{Addr, CtaCoord, CtaSlot, Cycle};
use caps_json::{obj, Value};
use caps_metrics::{RunSpec, Tenancy};
use caps_workloads::Scale;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call, as `layer.call`.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Calls covered: 1, or the count of an aggregate span.
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls covered.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus children).
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per call in µs (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Record `count` calls summing to `sum_ns` as one child of `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, count: u64, sum_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + sum_ns,
            parent: Some(parent),
            op: self.op,
            count,
        });
    }

    /// Per-name totals, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            t.calls += s.count;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(cov);
        }
        out
    }

    /// Every span, as JSON.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("op", Value::UInt(s.op)),
                    ("count", Value::UInt(s.count)),
                ])
            })
            .collect();
        Value::Arr(spans)
    }
}

/// Hook counts and host time summed over a simulation's prefetchers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTotals {
    /// `on_demand` calls.
    pub on_demand_calls: u64,
    /// Host ns inside `on_demand`.
    pub on_demand_ns: u64,
    /// `on_l1_miss` calls.
    pub on_l1_miss_calls: u64,
    /// Host ns inside `on_l1_miss`.
    pub on_l1_miss_ns: u64,
    /// Prefetch requests the hooks emitted.
    pub requests: u64,
}

impl HookTotals {
    fn absorb(&mut self, o: &HookTotals) {
        self.on_demand_calls += o.on_demand_calls;
        self.on_demand_ns += o.on_demand_ns;
        self.on_l1_miss_calls += o.on_l1_miss_calls;
        self.on_l1_miss_ns += o.on_l1_miss_ns;
        self.requests += o.requests;
    }
}

/// Times the two per-access hooks of the prefetcher it wraps and
/// forwards every call unchanged.
struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    local: HookTotals,
    sink: Arc<Mutex<HookTotals>>,
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_demand(&mut self, obs: &DemandObservation<'_>, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_demand(obs, out);
        self.local.on_demand_ns += t.elapsed().as_nanos() as u64;
        self.local.on_demand_calls += 1;
        self.local.requests += (out.len() - before) as u64;
    }

    fn on_l1_miss(&mut self, cycle: Cycle, line: Addr, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_l1_miss(cycle, line, out);
        self.local.on_l1_miss_ns += t.elapsed().as_nanos() as u64;
        self.local.on_l1_miss_calls += 1;
        self.local.requests += (out.len() - before) as u64;
    }

    fn on_cta_launch(&mut self, cta_slot: CtaSlot, cta: CtaCoord) {
        self.inner.on_cta_launch(cta_slot, cta);
    }

    fn on_cta_complete(&mut self, cta_slot: CtaSlot) {
        self.inner.on_cta_complete(cta_slot);
    }

    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }

    fn mispredicts(&self) -> u64 {
        self.inner.mispredicts()
    }
}

impl Drop for TimedPrefetcher {
    fn drop(&mut self) {
        // The simulator owns its prefetchers until it is dropped, so the
        // sums leave through the shared sink here. A poisoned sink only
        // loses these sums; it must not panic in a destructor.
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(&self.local);
        }
    }
}

/// Wrap every prefetcher `inner` builds in the timing decorator; the
/// sums land in `sink` when the simulator is dropped.
pub fn timed_factory(
    inner: Box<PrefetcherFactory>,
    sink: Arc<Mutex<HookTotals>>,
) -> Box<PrefetcherFactory> {
    Box::new(move |sm| {
        Box::new(TimedPrefetcher {
            inner: inner(sm),
            local: HookTotals::default(),
            sink: Arc::clone(&sink),
        })
    })
}

/// What one traced solo simulation gives besides its spans.
#[derive(Debug, Clone)]
pub struct SoloRun {
    /// Architectural statistics (must equal `run_one`'s).
    pub stats: Stats,
    /// Port/link occupancy and backpressure.
    pub links: LinkReport,
    /// Simulated cycles covered by fast-forward jumps.
    pub skipped_cycles: u64,
    /// Fast-forward jumps taken.
    pub skip_events: u64,
    /// Prefetcher hook sums.
    pub hooks: HookTotals,
}

/// `run_one`'s solo path rebuilt from public calls, with a span around
/// each and the engine's prefetchers wrapped in the timing decorator:
/// `Workload::kernel` → `Engine::configure` → `Engine::factory` →
/// `Gpu::new` → `Gpu::run_launches`. No setter is called on the
/// simulator, so it runs with the same defaults as `run_one`.
pub fn traced_solo(spec: &RunSpec, tr: &mut Tracer) -> SoloRun {
    assert!(
        spec.tenancy == Tenancy::Solo,
        "the traced path rebuilds solo runs only"
    );
    let job = tr.enter("harness.solo");
    let kernel = tr.time("workloads.kernel", || spec.workload.kernel(spec.scale));
    let cfg = tr.time("engine.configure", || {
        spec.engine.configure(&spec.base_config)
    });
    let inner = tr.time("engine.factory", || spec.engine.factory());
    let sink = Arc::new(Mutex::new(HookTotals::default()));
    let factory = timed_factory(inner, Arc::clone(&sink));
    let mut gpu = tr.time("gpu_sim.new", || Gpu::new(cfg, kernel, &*factory));
    let launches = match spec.scale {
        Scale::Full => spec.workload.launches(),
        Scale::Small => 1,
    };
    let run = tr.enter("gpu_sim.run_launches");
    let stats = gpu.run_launches(launches, DEFAULT_MAX_CYCLES);
    tr.exit(run);
    let links = gpu.link_report();
    let (skipped_cycles, skip_events) = gpu.skip_counters();
    tr.time("gpu_sim.drop", || drop(gpu));
    let hooks = *sink
        .lock()
        .expect("no prefetcher panicked while holding the sink");
    tr.aggregate(
        run,
        "prefetcher.on_demand",
        hooks.on_demand_calls,
        hooks.on_demand_ns,
    );
    tr.aggregate(
        run,
        "prefetcher.on_l1_miss",
        hooks.on_l1_miss_calls,
        hooks.on_l1_miss_ns,
    );
    tr.exit(job);
    SoloRun {
        stats,
        links,
        skipped_cycles,
        skip_events,
        hooks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caps_metrics::{run_one, Engine};
    use caps_workloads::Workload;

    /// The decorated rebuild measures the same simulation as `run_one`.
    #[test]
    fn decorated_run_is_bit_identical_to_run_one() {
        let mut tr = Tracer::new();
        for w in [Workload::Cnv, Workload::Bfs, Workload::Mm] {
            for e in [Engine::Baseline, Engine::Inter, Engine::Caps] {
                let spec = RunSpec::small(w, e);
                let traced = traced_solo(&spec, &mut tr);
                let plain = run_one(&spec);
                assert_eq!(traced.stats, plain.stats, "{}/{}", w.abbr(), e.label());
                assert!(
                    traced.hooks.on_demand_calls > 0,
                    "{}/{}",
                    w.abbr(),
                    e.label()
                );
            }
        }
        let t = tr.totals();
        assert_eq!(t["gpu_sim.new"].calls, 9);
        assert!(t["gpu_sim.run_launches"].self_ns < t["gpu_sim.run_launches"].total_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.aggregate(outer, "hook", 10, 1_000);
        tr.exit(outer);
        let t = tr.totals();
        let inner = t["inner"].total_ns;
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - inner - 1_000);
        assert_eq!(t["hook"].calls, 10);
        assert_eq!(tr.spans[1].parent, Some(0));
    }
}
