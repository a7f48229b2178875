//! Whole-GPU simulation loop: SMs, two interconnect networks, memory
//! partitions, DRAM channels, and the CTA distributor.
//!
//! # The cycle
//!
//! A core cycle runs three steps in a fixed order (see DESIGN.md §9d):
//!
//! 1. **SM loop** — per SM, in SM order: drain that SM's reply links,
//!    deliver fills, advance the pipeline (fetch/issue/execute/L1/
//!    prefetch), and send the SM's outbound requests into the request
//!    networks in queue order. Every send lands `icnt_latency` cycles
//!    out, so each request link sees its packets in `(sm, queue order)`.
//! 2. **Memory loop** — per DRAM channel: eject requests into the
//!    channel's partitions, advance the channel, and advance its
//!    partitions (L2/MSHR/FR-FCFS).
//! 3. **Tail** — drain partition reply queues into the reply networks
//!    in partition order and refill CTA slots.
//!
//! Parallelism lives one level up: the sweep farm runs independent
//! simulations on separate threads, and each simulation steps on one.

use crate::config::GpuConfig;
use crate::cta_scheduler::CtaDistributor;
use crate::dram::{DramChannel, DramRequest};
use crate::interconnect::{MemReply, MemRequest, Network};
use crate::kernel::Kernel;
use crate::partition::MemoryPartition;
use crate::port::PortSnapshot;
use crate::prefetch::PrefetcherFactory;
use crate::sched::make_scheduler;
use crate::sm::Sm;
use crate::stats::{KernelStats, LinkReport, Stats};
use crate::tenant::{Partitioning, TenantState, TENANT_WINDOW};
use crate::types::{CtaCoord, Cycle, KernelId, MAX_TENANTS};

/// Hard ceiling on simulated cycles; a run exceeding it returns what it
/// has (mirrors the paper's one-billion-instruction cap).
pub const DEFAULT_MAX_CYCLES: Cycle = 50_000_000;

/// A complete GPU bound to one or more co-resident kernel contexts.
pub struct Gpu {
    cfg: GpuConfig,
    /// Co-resident kernels; index is the tenant's [`KernelId`]. Legacy
    /// single-kernel mode is the one-element case.
    kernels: Vec<Kernel>,
    /// Multi-tenant dispatch state; `None` in legacy single-kernel mode
    /// (where [`Self::distributor`] drives the grid).
    tenants: Option<TenantState>,
    /// Next interference-monitor boundary; `Cycle::MAX` in legacy mode
    /// so the per-cycle check costs one compare.
    tenant_window_end: Cycle,
    /// Sticky default for [`TenantState::throttling`] consumed by the
    /// next [`Self::run_tenants`] (BASE co-run baselines turn it off).
    tenant_throttling: bool,
    sms: Vec<Sm>,
    req_net: Network<MemRequest>,
    /// Low-priority virtual channel for prefetch requests: backed-up
    /// prefetch traffic must never head-of-line block demands.
    pf_req_net: Network<MemRequest>,
    reply_net: Network<MemReply>,
    /// Low-priority virtual channel for prefetch fills.
    pf_reply_net: Network<MemReply>,
    partitions: Vec<MemoryPartition>,
    channels: Vec<DramChannel>,
    distributor: CtaDistributor,
    cycle: Cycle,
    /// DRAM completion scratch, refilled by each channel's step and
    /// consumed by that channel's partitions in the same memory-loop
    /// iteration.
    dram_scratch: Vec<DramRequest>,
    /// CTAs completed this cycle; only tested for emptiness (the
    /// refill trigger) and cleared in the tail.
    completed: Vec<CtaCoord>,
    /// Per-SM quiescence fast-forward: an SM that provably cannot make
    /// progress is not stepped until its own next event; its per-cycle
    /// statistics are accounted analytically instead. Statistics are
    /// bit-identical either way; [`Self::set_fast_forward`] turns it off.
    fast_forward: bool,
    /// SM pipeline steps replaced by analytic accounting, summed over
    /// SMs (host diagnostics, not `Stats`).
    sm_steps_avoided: u64,
    /// Times an SM entered the quiescence cache.
    quiet_entries: u64,
    /// Per-SM quiescence cache: SM `i` provably cannot make progress
    /// before `sm_quiet_until[i]` unless an external event (a fill, a
    /// CTA launch, a rebind) touches it first — each of those resets the
    /// entry to 0. Lets the step loop replace a stalled SM's whole
    /// pipeline walk with O(1) analytic stat accounting.
    sm_quiet_until: Vec<Cycle>,
    /// Per-SM probe backoff: while an SM keeps answering "can progress",
    /// probing it again every cycle is pure overhead (the answer is
    /// almost always the same), so `sm_probe_at[i]` defers the next
    /// `can_progress` probe and the SM is stepped directly in between —
    /// exactly what naive stepping does, so this is bit-identical and
    /// only delays quiescence *detection* by at most the backoff.
    sm_probe_at: Vec<Cycle>,
    /// Consecutive "active" probe answers per SM, exponent of the
    /// backoff window (capped); reset by a "cannot progress" answer.
    sm_probe_streak: Vec<u8>,
}

/// Cap on the per-SM probe-backoff exponent: an SM that keeps answering
/// "can progress" is re-probed at most every `2^5 = 32` cycles, bounding
/// both the probe overhead on compute-dense phases (~3%) and the delay
/// before a freshly stalled SM is detected as quiescent.
const MAX_PROBE_BACKOFF_LOG2: u8 = 5;

impl Gpu {
    /// Build a GPU running `kernel` with per-SM prefetchers from
    /// `prefetcher_factory`.
    pub fn new(cfg: GpuConfig, kernel: Kernel, prefetcher_factory: &PrefetcherFactory) -> Self {
        cfg.validate().expect("invalid GPU config");
        kernel.validate().expect("invalid kernel");
        let sms = (0..cfg.num_sms)
            .map(|id| {
                Sm::new(
                    id,
                    &cfg,
                    &kernel,
                    make_scheduler(&cfg),
                    prefetcher_factory(id),
                )
            })
            .collect::<Vec<_>>();
        // Pipe rings are sized from the producers' aggregate in-flight
        // bounds so steady state never allocates (§9d): every SM's
        // demand misses are MSHR-bounded and its prefetches are bounded
        // by the in-flight cap, and in the worst case all of them target
        // one partition; replies to one SM are bounded by the same two
        // caps. Stores have no such bound — they are fire-and-forget
        // (no MSHR entry, no reply), so a store burst converging on one
        // backpressured partition can pile past the load bound (HST
        // reaches ~4x it); the demand pipe gets 4x headroom and the
        // ring's counted growth valve covers anything beyond.
        let demand_bound = cfg.l1d.mshr_entries as usize;
        let pf_bound = cfg.prefetch_queue_depth;
        let req_net = Network::new(
            cfg.num_partitions,
            cfg.icnt_latency,
            cfg.icnt_queue_depth,
            cfg.icnt_bandwidth,
            cfg.num_sms * demand_bound * 4,
        );
        let pf_req_net = Network::new(
            cfg.num_partitions,
            cfg.icnt_latency,
            cfg.icnt_queue_depth,
            cfg.icnt_bandwidth,
            cfg.num_sms * pf_bound,
        );
        let reply_net = Network::new(
            cfg.num_sms,
            cfg.icnt_latency,
            cfg.icnt_queue_depth,
            cfg.icnt_bandwidth,
            demand_bound + pf_bound,
        );
        let pf_reply_net = Network::new(
            cfg.num_sms,
            cfg.icnt_latency,
            cfg.icnt_queue_depth,
            cfg.icnt_bandwidth,
            demand_bound + pf_bound,
        );
        let partitions = (0..cfg.num_partitions)
            .map(|id| MemoryPartition::new(id, &cfg))
            .collect();
        let channels: Vec<DramChannel> = (0..cfg.num_dram_channels)
            .map(|_| DramChannel::new(&cfg))
            .collect();
        let distributor = CtaDistributor::new(kernel.num_ctas());
        let num_sms = cfg.num_sms;
        Gpu {
            cfg,
            kernels: vec![kernel],
            tenants: None,
            tenant_window_end: Cycle::MAX,
            tenant_throttling: true,
            sms,
            req_net,
            pf_req_net,
            reply_net,
            pf_reply_net,
            partitions,
            channels,
            distributor,
            cycle: 0,
            dram_scratch: Vec::new(),
            completed: Vec::new(),
            fast_forward: true,
            sm_steps_avoided: 0,
            quiet_entries: 0,
            sm_quiet_until: vec![0; num_sms],
            sm_probe_at: vec![0; num_sms],
            sm_probe_streak: vec![0; num_sms],
        }
    }

    /// Fast-forward diagnostics (host-side; not part of [`Stats`]): the
    /// SM pipeline steps the quiescence cache replaced with analytic
    /// accounting, divided by the SM count, and the number of times an
    /// SM entered the cache. The first value is in simulated cycles of
    /// whole-machine work avoided, so it never exceeds the cycle count.
    pub fn skip_counters(&self) -> (u64, u64) {
        (
            self.sm_steps_avoided / self.cfg.num_sms as u64,
            self.quiet_entries,
        )
    }

    /// Enable or disable the per-SM quiescence fast-forward (tests and
    /// the throughput bench use this to compare against naive stepping).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
        self.reset_quiescence_caches();
    }

    /// Zero every quiescence-cache and probe-backoff entry (required
    /// whenever they may have gone stale: a mode switch or a kernel
    /// rebind).
    fn reset_quiescence_caches(&mut self) {
        self.sm_quiet_until.fill(0);
        self.sm_probe_at.fill(0);
        self.sm_probe_streak.fill(0);
    }

    /// Current simulated cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Run until the kernel drains or `max_cycles` elapse; returns the
    /// aggregated statistics.
    pub fn run(&mut self, max_cycles: Cycle) -> Stats {
        self.run_launches(1, max_cycles)
    }

    /// Run the kernel `launches` times back to back with persistent
    /// caches — GPU applications launch iterative kernels repeatedly
    /// (time steps, frontier sweeps, training epochs), so later launches
    /// find their data warm in L2. This mirrors whole-application
    /// simulation in GPGPU-Sim.
    pub fn run_launches(&mut self, launches: u32, max_cycles: Cycle) -> Stats {
        assert!(launches > 0);
        for _ in 0..launches {
            self.distributor = CtaDistributor::new(self.kernels[0].num_ctas());
            self.initial_fill();
            self.advance_until_done(max_cycles);
            if self.cycle >= max_cycles {
                break;
            }
        }
        self.collect_stats()
    }

    /// Run with the default cycle ceiling.
    pub fn run_to_completion(&mut self) -> Stats {
        self.run(DEFAULT_MAX_CYCLES)
    }

    /// Run a multi-kernel application (§II-A): the kernels execute back
    /// to back with persistent caches, like dependent passes of one
    /// program (e.g. the row and column passes of a separable
    /// convolution, or forward/backward layers of training).
    pub fn run_app(&mut self, kernels: &[Kernel], max_cycles: Cycle) -> Stats {
        assert!(!kernels.is_empty());
        for k in kernels {
            self.bind_kernel(k.clone());
            self.distributor = CtaDistributor::new(self.kernels[0].num_ctas());
            self.initial_fill();
            self.advance_until_done(max_cycles);
            if self.cycle >= max_cycles {
                break;
            }
        }
        self.collect_stats()
    }

    /// Run `kernels` as co-resident tenants under `policy` until every
    /// tenant drains or `max_cycles` elapse. Returns the machine-wide
    /// statistics plus one [`KernelStats`] per tenant, attributed end to
    /// end through the tenant tags every request carries.
    ///
    /// With a single tenant and any policy this is bit-identical to
    /// [`Self::run_launches`]`(1, _)`: tenant 0's address/PC offsets are
    /// the identity and the dispatch paths coincide. Naive stepping and
    /// fast-forward agree bit-identically on both `Stats` and the
    /// per-tenant `KernelStats` under every policy.
    ///
    /// # Panics
    /// If `kernels` is empty or longer than [`MAX_TENANTS`], or the GPU
    /// is not drained.
    pub fn run_tenants(
        &mut self,
        kernels: &[Kernel],
        policy: Partitioning,
        max_cycles: Cycle,
    ) -> (Stats, Vec<KernelStats>) {
        for k in kernels {
            k.validate().expect("invalid kernel");
        }
        let mut state = TenantState::new(kernels, policy);
        state.throttling = self.tenant_throttling;
        self.kernels = kernels.to_vec();
        for sm in &mut self.sms {
            sm.rebind_shared(&self.kernels);
            sm.set_throttle([0; MAX_TENANTS]);
            sm.reset_kernel_stats();
        }
        for p in &mut self.partitions {
            p.stats.reset_kernel_counters();
        }
        for c in &mut self.channels {
            c.reset_kernel_counters();
        }
        // Legacy dispatch is inert in tenant mode; the per-tenant
        // distributors drive the grid.
        self.distributor = CtaDistributor::new(0);
        self.reset_quiescence_caches();
        self.tenants = Some(state);
        self.tenant_window_end = self.cycle + TENANT_WINDOW;
        self.tenant_initial_fill();
        self.advance_until_done(max_cycles);
        let per_kernel = self.collect_tenant_stats();
        self.tenants = None;
        self.tenant_window_end = Cycle::MAX;
        for sm in &mut self.sms {
            sm.set_throttle([0; MAX_TENANTS]);
        }
        (self.collect_stats(), per_kernel)
    }

    /// Enable or disable interference-monitor throttling for subsequent
    /// [`Self::run_tenants`] calls (default on). Co-run baselines
    /// disable it to measure raw, unmanaged contention; the monitor
    /// still samples windows either way, so its diagnostics stay
    /// comparable.
    pub fn set_tenant_throttling(&mut self, on: bool) {
        self.tenant_throttling = on;
    }

    /// Drive the clock until the bound kernel drains or `max_cycles`
    /// elapse, one [`Self::step`] per simulated cycle.
    fn advance_until_done(&mut self, max_cycles: Cycle) {
        while !self.done() && self.cycle < max_cycles {
            if self.cycle >= self.tenant_window_end {
                self.tenant_boundary(self.cycle);
            }
            self.step();
        }
    }

    /// Close of an interference-monitor window at cycle `now`: attribute
    /// the window's L2 misses to tenants via the tags every request
    /// carries, let the monitor pick throttle levels, and install them
    /// on every SM. Decisions read only bit-identical simulated
    /// counters, so naive and fast-forward stepping throttle
    /// identically.
    fn tenant_boundary(&mut self, now: Cycle) {
        let mut ts = self.tenants.take().expect("tenant boundary without tenants");
        let mut misses = [0u64; MAX_TENANTS];
        for p in &self.partitions {
            for (m, &pm) in misses.iter_mut().zip(&p.stats.misses_by_kernel) {
                *m += pm;
            }
        }
        // Contention is judged by SM residency, not by "has unfinished
        // work": under `Exclusive` the waiting tenant occupies no SM, so
        // the active tenant must never be throttled on its behalf.
        let mut contending = [false; MAX_TENANTS];
        for sm in &self.sms {
            for (k, c) in contending.iter_mut().enumerate() {
                *c = *c || sm.resident_ctas_of(k as crate::types::KernelId) > 0;
            }
        }
        let levels = ts.monitor.on_window(misses, contending);
        if ts.throttling {
            for sm in &mut self.sms {
                sm.set_throttle(levels);
            }
        }
        self.tenants = Some(ts);
        self.tenant_window_end = now + TENANT_WINDOW;
    }

    /// Initial round-robin fill in tenant mode (§II-B per tenant):
    /// `Exclusive` fills every SM from the first tenant; `SmSplit` fills
    /// each tenant's SM slice from its own grid; `Shared` fills every SM
    /// from every tenant up to the per-SM per-tenant quota.
    fn tenant_initial_fill(&mut self) {
        let mut ts = self.tenants.take().expect("tenant fill without tenants");
        let num_sms = self.cfg.num_sms;
        let cap = self.sms[0].resident_cta_cap();
        let now = self.cycle;
        match ts.policy {
            Partitioning::Exclusive => {
                if let Some(t) = ts.active_exclusive() {
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(num_sms, cap);
                    for (sm, cta) in plan {
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        self.sm_quiet_until[sm] = 0;
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
            Partitioning::SmSplit => {
                for t in 0..ts.ctxs.len() {
                    let range = ts.sm_range(t, num_sms);
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(range.len(), cap);
                    for (sm, cta) in plan {
                        let sm = range.start + sm;
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        self.sm_quiet_until[sm] = 0;
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
            Partitioning::Shared => {
                let quota = (cap / ts.ctxs.len()).max(1);
                for t in 0..ts.ctxs.len() {
                    let ctx = &mut ts.ctxs[t];
                    let plan = ctx.distributor.initial_fill(num_sms, quota);
                    for (sm, cta) in plan {
                        if !self.sms[sm].has_free_cta_slot() {
                            // Quota rounding can overcommit slots when
                            // cap < tenants; surplus CTAs return to the
                            // grid via demand refill. Unreachable for
                            // cap >= tenants, but cheap to guard.
                            continue;
                        }
                        let coord = ctx.kernel.cta_coord(cta);
                        self.sms[sm].launch_cta(coord, t as KernelId, &ctx.kernel);
                        self.sm_quiet_until[sm] = 0;
                        ctx.start_cycle.get_or_insert(now);
                    }
                }
            }
        }
        self.tenants = Some(ts);
    }

    /// Demand-driven refill in tenant mode, run in the serial tail when
    /// any CTA completed this cycle: record tenant finish times, then
    /// hand freed slots to the policy's eligible tenants in fixed
    /// (SM, tenant) order — deterministic, so bit-identical everywhere.
    fn refill_tenants(&mut self) {
        let mut ts = self.tenants.take().expect("tenant refill without tenants");
        let now = self.cycle;
        let num_sms = self.cfg.num_sms;
        // Finish detection first, so `Exclusive` can hand the machine to
        // the next tenant in the same cycle its predecessor drains.
        for (k, ctx) in ts.ctxs.iter_mut().enumerate() {
            if ctx.finish_cycle.is_none()
                && ctx.start_cycle.is_some()
                && ctx.distributor.remaining() == 0
                && self
                    .sms
                    .iter()
                    .all(|sm| sm.resident_ctas_of(k as KernelId) == 0)
            {
                ctx.finish_cycle = Some(now);
            }
        }
        match ts.policy {
            Partitioning::Exclusive => {
                if let Some(t) = ts.active_exclusive() {
                    let ctx = &mut ts.ctxs[t];
                    for (i, sm) in self.sms.iter_mut().enumerate() {
                        while sm.has_free_cta_slot() {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            let coord = ctx.kernel.cta_coord(id);
                            sm.launch_cta(coord, t as KernelId, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                            self.sm_quiet_until[i] = 0;
                        }
                    }
                }
            }
            Partitioning::SmSplit => {
                for t in 0..ts.ctxs.len() {
                    let range = ts.sm_range(t, num_sms);
                    let ctx = &mut ts.ctxs[t];
                    for i in range {
                        let sm = &mut self.sms[i];
                        while sm.has_free_cta_slot() {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            let coord = ctx.kernel.cta_coord(id);
                            sm.launch_cta(coord, t as KernelId, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                            self.sm_quiet_until[i] = 0;
                        }
                    }
                }
            }
            Partitioning::Shared => {
                let quota = (self.sms[0].resident_cta_cap() / ts.ctxs.len()).max(1);
                for (i, sm) in self.sms.iter_mut().enumerate() {
                    for (t, ctx) in ts.ctxs.iter_mut().enumerate() {
                        while sm.has_free_cta_slot()
                            && sm.resident_ctas_of(t as KernelId) < quota
                        {
                            let Some(id) = ctx.distributor.next_cta() else {
                                break;
                            };
                            let coord = ctx.kernel.cta_coord(id);
                            sm.launch_cta(coord, t as KernelId, &ctx.kernel);
                            ctx.start_cycle.get_or_insert(now);
                            self.sm_quiet_until[i] = 0;
                        }
                    }
                }
            }
        }
        self.tenants = Some(ts);
    }

    /// Aggregate each tenant's side counters (SM, L2, DRAM) and lifetime
    /// marks into per-tenant [`KernelStats`]. Part of the bit-identity
    /// contract, unlike the host-side reports.
    fn collect_tenant_stats(&self) -> Vec<KernelStats> {
        let ts = self.tenants.as_ref().expect("no tenant state to collect");
        let mut out = Vec::with_capacity(ts.ctxs.len());
        for (k, ctx) in ts.ctxs.iter().enumerate() {
            let mut total = KernelStats::default();
            for sm in &self.sms {
                total.absorb(&sm.kstats[k]);
            }
            for p in &self.partitions {
                total.l2_accesses += p.stats.accesses_by_kernel[k];
                total.l2_hits += p.stats.hits_by_kernel[k];
                total.l2_misses += p.stats.misses_by_kernel[k];
            }
            for c in &self.channels {
                total.dram_reads += c.reads_by_kernel[k];
                total.dram_writes += c.writes_by_kernel[k];
            }
            total.start_cycle = ctx.start_cycle.unwrap_or(0);
            total.finish_cycle = ctx.finish_cycle.unwrap_or(self.cycle);
            out.push(total);
        }
        out
    }

    /// Replace the bound kernel (the GPU must be drained between
    /// kernels; callers normally use [`Self::run_app`]).
    pub fn bind_kernel(&mut self, kernel: Kernel) {
        kernel.validate().expect("invalid kernel");
        for sm in &mut self.sms {
            sm.rebind(&kernel);
        }
        self.reset_quiescence_caches();
        self.kernels = vec![kernel];
    }

    fn initial_fill(&mut self) {
        // Round-robin initial assignment (§II-B): one CTA at a time per
        // SM until each reaches its residency cap.
        let cap = self.sms[0].resident_cta_cap();
        let plan = self.distributor.initial_fill(self.cfg.num_sms, cap);
        let kernel = &self.kernels[0];
        for (sm, cta) in plan {
            let coord = kernel.cta_coord(cta);
            self.sms[sm].launch_cta(coord, 0, kernel);
            self.sm_quiet_until[sm] = 0;
        }
    }

    fn done(&self) -> bool {
        let dispatch_done = match &self.tenants {
            Some(ts) => ts.ctxs.iter().all(|c| c.distributor.remaining() == 0),
            None => self.distributor.remaining() == 0,
        };
        dispatch_done
            && self.sms.iter().all(Sm::is_idle)
            && self.partitions.iter().all(MemoryPartition::idle)
            && self.req_net.in_flight() == 0
            && self.pf_req_net.in_flight() == 0
            && self.reply_net.in_flight() == 0
            && self.pf_reply_net.in_flight() == 0
            && self.channels.iter().all(|c| c.pending() == 0)
    }

    /// Advance the whole GPU one core cycle: the SM loop, the memory
    /// loop, then the tail.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.step_sms(now);
        self.step_memory(now);

        // Tail: partitions → reply networks in fixed partition order,
        // then demand-driven CTA refill (Fig. 3): completed CTAs free
        // slots; the distributor hands out the next CTA ids.
        for p in 0..self.cfg.num_partitions {
            for _ in 0..self.cfg.icnt_bandwidth {
                let Some(reply) = self.partitions[p].reply_out.pop() else {
                    break;
                };
                self.reply_net.send(now, reply.sm, reply);
            }
            for _ in 0..self.cfg.icnt_bandwidth {
                let Some(reply) = self.partitions[p].pf_reply_out.pop() else {
                    break;
                };
                self.pf_reply_net.send(now, reply.sm, reply);
            }
        }
        if !self.completed.is_empty() {
            self.refill_ctas();
            self.completed.clear();
        }

        self.cycle += 1;
    }

    /// The SM loop: per SM, deliver fills, advance the pipeline, and
    /// send its outbound requests. Every send lands `icnt_latency`
    /// cycles out and happens before [`Self::step_memory`] steps any
    /// request link, so each link receives its packets in
    /// `(sm, queue order)`.
    fn step_sms(&mut self, now: Cycle) {
        let ff = self.fast_forward;
        let bw = self.cfg.icnt_bandwidth;
        let replies = self.reply_net.links_mut();
        let pf_replies = self.pf_reply_net.links_mut();
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let quiet = &mut self.sm_quiet_until[i];

            // Deliver fills: demand replies first, then the prefetch
            // virtual channel.
            for link in [&mut replies[i], &mut pf_replies[i]] {
                link.step(now);
                for _ in 0..bw {
                    let Some(reply) = link.pop_one() else { break };
                    sm.on_fill(now, reply.line);
                    *quiet = 0;
                }
            }

            // Pipeline. With fast-forward, an SM that provably cannot
            // progress this cycle is not stepped: its per-cycle counters
            // are accounted analytically and the verdict is cached until
            // its own next event (external events reset the cache to 0).
            // While probes keep answering "active", probing itself is the
            // overhead (compute-dense SMs answer yes for thousands of
            // cycles straight), so consecutive yes-answers back the next
            // probe off exponentially and the SM is stepped directly in
            // between — identical to naive stepping, so only quiescence
            // *detection* is delayed, never the simulated outcome.
            // `next_event` is strictly after `now`, so a fresh verdict
            // skips this cycle too.
            if ff && *quiet <= now && now >= self.sm_probe_at[i] {
                let streak = &mut self.sm_probe_streak[i];
                if sm.can_progress(now, &self.kernels) {
                    self.sm_probe_at[i] = now + (1u64 << *streak);
                    *streak = (*streak + 1).min(MAX_PROBE_BACKOFF_LOG2);
                } else {
                    *streak = 0;
                    *quiet = sm.next_event(now).unwrap_or(Cycle::MAX);
                    self.quiet_entries += 1;
                }
            }
            if ff && *quiet > now {
                sm.account_skipped(1);
                self.sm_steps_avoided += 1;
            } else {
                sm.step(now, &self.kernels, &mut self.completed);
            }

            // Injection, unconditionally for every SM (a quiescent SM's
            // outbound queues are provably empty, so this is a no-op
            // there, but draining regardless keeps the order argument
            // free of fast-forward state).
            for _ in 0..bw {
                let Some(req) = sm.pop_outbound() else { break };
                let dst = self.cfg.partition_of(req.line);
                let net = if req.kind.is_prefetch() {
                    &mut self.pf_req_net
                } else {
                    &mut self.req_net
                };
                net.send(now, dst, req);
            }
        }
    }

    /// The memory loop, per DRAM channel: eject requests into the
    /// channel's partitions, advance the channel, then advance its
    /// partitions.
    fn step_memory(&mut self, now: Cycle) {
        let bw = self.cfg.icnt_bandwidth;
        let num_partitions = self.cfg.num_partitions;
        let num_channels = self.cfg.num_dram_channels;
        let reqs = self.req_net.links_mut();
        let pf_reqs = self.pf_req_net.links_mut();
        let scratch = &mut self.dram_scratch;
        for (c, ch) in self.channels.iter_mut().enumerate() {
            // Request networks → partitions (consumer-checked ejection;
            // demand channel first).
            for p in (c..num_partitions).step_by(num_channels) {
                let part = &mut self.partitions[p];
                for link in [&mut reqs[p], &mut pf_reqs[p]] {
                    link.step(now);
                    for _ in 0..bw {
                        let Some(req) = link.peek() else { break };
                        if !part.can_accept(req.kind) {
                            break;
                        }
                        let req = link.pop_one().expect("peeked");
                        part.accept(now, req);
                    }
                }
            }

            // The DRAM channel advances; completions collect in the
            // scratch for its partitions, which then service inputs and
            // emit replies.
            scratch.clear();
            ch.step(now, scratch);
            for p in (c..num_partitions).step_by(num_channels) {
                self.partitions[p].step(now, ch, scratch);
            }
        }
    }

    fn refill_ctas(&mut self) {
        if self.tenants.is_some() {
            self.refill_tenants();
            return;
        }
        let kernel = &self.kernels[0];
        for (i, sm) in self.sms.iter_mut().enumerate() {
            while sm.has_free_cta_slot() {
                match self.distributor.next_cta() {
                    Some(id) => {
                        let coord = kernel.cta_coord(id);
                        sm.launch_cta(coord, 0, kernel);
                        self.sm_quiet_until[i] = 0;
                    }
                    None => break,
                }
            }
        }
    }

    /// Aggregate statistics across SMs, partitions, channels, networks,
    /// in fixed component order.
    pub fn collect_stats(&mut self) -> Stats {
        let mut total = Stats::default();
        for sm in &mut self.sms {
            sm.finalize();
            total.absorb(&sm.stats);
        }
        total.cycles = self.cycle;
        for p in &self.partitions {
            total.l2_accesses += p.stats.accesses;
            total.l2_hits += p.stats.hits;
            total.l2_misses += p.stats.misses;
            total.dram_queue_stalls += p.stats.dram_queue_stalls;
        }
        for c in &self.channels {
            total.dram_reads += c.reads;
            total.dram_writes += c.writes;
            total.dram_row_hits += c.row_hits;
            total.dram_row_misses += c.row_misses;
        }
        total.icnt_replies = self
            .partitions
            .iter()
            .map(|p| p.stats.accesses)
            .sum::<u64>()
            .min(total.icnt_requests);
        total.icnt_stalls = self.req_net.stall_events()
            + self.pf_req_net.stall_events()
            + self.reply_net.stall_events()
            + self.pf_reply_net.stall_events();
        total
    }

    /// Per-subsystem port/link occupancy and backpressure report:
    /// high-water marks, credit-stall counts, and growth-valve
    /// activations aggregated over every ring in the memory path.
    /// Host-side reporting, kept out of [`Stats`], but equal under naive
    /// and fast-forward stepping: a quiescent SM's ports are provably
    /// idle, and the memory side always steps naively.
    pub fn link_report(&self) -> LinkReport {
        let mut sm_ports = PortSnapshot::default();
        for sm in &self.sms {
            sm_ports.absorb(sm.port_snapshot());
        }
        let mut partition_ports = PortSnapshot::default();
        for p in &self.partitions {
            partition_ports.absorb(p.port_snapshot());
        }
        let mut dram_queues = PortSnapshot::default();
        for c in &self.channels {
            dram_queues.absorb(c.port_snapshot());
        }
        LinkReport {
            req_net: self.req_net.snapshot(),
            pf_req_net: self.pf_req_net.snapshot(),
            reply_net: self.reply_net.snapshot(),
            pf_reply_net: self.pf_reply_net.snapshot(),
            sm_ports,
            partition_ports,
            dram_queues,
        }
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The kernel bound to this GPU (the first tenant in tenant mode).
    pub fn kernel(&self) -> &Kernel {
        &self.kernels[0]
    }

    /// All co-resident kernels (one entry in legacy mode).
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrPattern, AffinePattern, CtaTerm, ProgramBuilder};
    use crate::prefetch::null_factory;

    fn stride_kernel(ctas: u32, warps_per_cta: u32) -> Kernel {
        let pat = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 1 << 16 },
            warp_stride: 128,
            lane_stride: 4,
            iter_stride: 0,
        });
        let prog = ProgramBuilder::new().alu(4).ld(pat).wait().alu(4).build();
        Kernel::new("stride", (ctas, 1), warps_per_cta * 32, prog)
    }

    #[test]
    fn small_kernel_completes() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory());
        let stats = gpu.run(1_000_000);
        assert_eq!(stats.ctas_launched, 8);
        assert_eq!(stats.ctas_completed, 8);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
        // 8 CTAs × 4 warps × 3 counted instructions (WaitLoads is free).
        assert_eq!(stats.warp_instructions, 8 * 4 * 3);
    }

    #[test]
    fn all_loads_reach_memory_once_per_line() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(4, 2), &*null_factory());
        let stats = gpu.run(1_000_000);
        // 4 CTAs × 2 warps, distinct lines → all miss, all read DRAM.
        assert_eq!(stats.l1d_demand_accesses, 8);
        assert_eq!(stats.l1d_demand_misses, 8);
        assert_eq!(stats.dram_reads, 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = GpuConfig::test_small();
        let s1 = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        let s2 = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        assert_eq!(s1, s2);
    }

    #[test]
    fn demand_driven_distribution_launches_all_ctas() {
        // More CTAs than resident capacity forces demand-driven refill.
        let cfg = GpuConfig::test_small();
        let kernel = stride_kernel(64, 4);
        let mut gpu = Gpu::new(cfg, kernel, &*null_factory());
        let stats = gpu.run(5_000_000);
        assert_eq!(stats.ctas_completed, 64);
    }

    #[test]
    fn cycle_cap_stops_runaway() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(64, 4), &*null_factory());
        let stats = gpu.run(100);
        assert!(stats.cycles <= 100);
    }

    #[test]
    fn multi_kernel_app_runs_both_passes_with_shared_caches() {
        let cfg = GpuConfig::test_small();
        // Pass 1 writes nothing we model; pass 2 re-reads pass 1's data:
        // the second kernel must find it warm.
        let k1 = stride_kernel(8, 4);
        let k2 = {
            // Same addresses, different geometry (8 warps per CTA).
            let pat = AddrPattern::Affine(AffinePattern {
                base: 0,
                cta_term: CtaTerm::Linear { pitch: 1 << 15 },
                warp_stride: 128,
                lane_stride: 4,
                iter_stride: 0,
            });
            let prog = ProgramBuilder::new().ld(pat).wait().alu(2).build();
            Kernel::new("pass2", (4, 1), 256, prog)
        };
        let mut gpu = Gpu::new(cfg, k1.clone(), &*null_factory());
        let stats = gpu.run_app(&[k1.clone(), k2], 2_000_000);
        assert_eq!(stats.ctas_completed, 8 + 4);
        // Pass 1 reads 32 unique lines; pass 2's 4×8 warps re-read lines
        // inside the same footprint — DRAM reads must not double.
        let solo = Gpu::new(GpuConfig::test_small(), k1, &*null_factory()).run(1_000_000);
        assert!(
            stats.dram_reads < 2 * solo.dram_reads + 8,
            "second pass should hit caches: {} vs solo {}",
            stats.dram_reads,
            solo.dram_reads
        );
    }

    #[test]
    #[should_panic(expected = "rebind requires a drained SM")]
    fn rebind_rejects_a_busy_sm() {
        let cfg = GpuConfig::test_small();
        let k = stride_kernel(8, 4);
        let mut gpu = Gpu::new(cfg, k.clone(), &*null_factory());
        // Start but don't finish, then try to bind mid-flight.
        gpu.initial_fill();
        for _ in 0..10 {
            gpu.step();
        }
        gpu.bind_kernel(k);
    }

    #[test]
    fn relaunches_find_a_warm_l2() {
        // The whole-application model: the second launch re-reads the
        // same addresses and must be served by L2, not DRAM.
        let cfg = GpuConfig::test_small();
        let one = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory()).run(1_000_000);
        let two = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory()).run_launches(2, 1_000_000);
        assert_eq!(two.ctas_completed, 2 * one.ctas_completed);
        assert_eq!(
            two.dram_reads, one.dram_reads,
            "second launch must not re-read DRAM"
        );
        // The relaunch is served from cache (L1 or L2, depending on how
        // much the tiny test config retains).
        let cached_one = one.l1d_demand_hits + one.l2_hits;
        let cached_two = two.l1d_demand_hits + two.l2_hits;
        assert!(cached_two > cached_one, "{cached_two} vs {cached_one}");
    }

    #[test]
    fn fast_forward_is_bit_identical_to_naive_stepping() {
        let cfg = GpuConfig::test_small();
        let mut fast = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory());
        fast.set_fast_forward(true);
        let mut naive = Gpu::new(cfg, stride_kernel(16, 4), &*null_factory());
        naive.set_fast_forward(false);
        assert_eq!(fast.run(1_000_000), naive.run(1_000_000));
        assert_eq!(fast.link_report(), naive.link_report());
    }

    #[test]
    fn fast_forward_is_bit_identical_across_relaunches() {
        let cfg = GpuConfig::test_small();
        let mut fast = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory());
        fast.set_fast_forward(true);
        let mut naive = Gpu::new(cfg, stride_kernel(8, 4), &*null_factory());
        naive.set_fast_forward(false);
        assert_eq!(
            fast.run_launches(3, 1_000_000),
            naive.run_launches(3, 1_000_000)
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_under_a_cycle_cap() {
        // The cap can land while SMs sit in the quiescence cache; the
        // cycles they skipped must already be accounted exactly as naive
        // stepping would.
        for cap in [50, 137, 500] {
            let cfg = GpuConfig::test_small();
            let mut fast = Gpu::new(cfg.clone(), stride_kernel(64, 4), &*null_factory());
            fast.set_fast_forward(true);
            let mut naive = Gpu::new(cfg, stride_kernel(64, 4), &*null_factory());
            naive.set_fast_forward(false);
            assert_eq!(fast.run(cap), naive.run(cap), "cap {cap}");
        }
    }

    #[test]
    fn fast_forward_avoids_sm_steps_only_when_on() {
        // A memory-bound kernel leaves SMs waiting on DRAM, so the
        // quiescence cache must replace some of their pipeline steps;
        // naive stepping replaces none.
        let cfg = GpuConfig::test_small();
        let counters = |ff: bool| {
            let mut gpu = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory());
            gpu.set_fast_forward(ff);
            let stats = gpu.run(1_000_000);
            (gpu.skip_counters(), stats.cycles)
        };
        let ((avoided, entries), cycles) = counters(true);
        assert!(avoided > 0, "fast-forward never skipped an SM step");
        assert!(entries > 0);
        assert!(avoided <= cycles, "{avoided} avoided > {cycles} cycles");
        assert_eq!(counters(false).0, (0, 0));
    }

    #[test]
    fn relaunch_cycles_are_cheaper_when_warm() {
        let cfg = GpuConfig::test_small();
        let one = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory()).run(1_000_000);
        let two = Gpu::new(cfg, stride_kernel(16, 4), &*null_factory()).run_launches(2, 1_000_000);
        let second = two.cycles - one.cycles;
        assert!(
            second < one.cycles,
            "warm launch ({second}) should be faster than cold ({})",
            one.cycles
        );
    }

    #[test]
    fn link_report_sees_traffic_and_steady_state_never_grows() {
        let cfg = GpuConfig::test_small();
        let mut gpu = Gpu::new(cfg, stride_kernel(16, 4), &*null_factory());
        let stats = gpu.run(1_000_000);
        assert_eq!(stats.ctas_completed, 16);
        let report = gpu.link_report();
        assert!(report.req_net.high_water > 0, "demand traffic flowed");
        assert!(report.reply_net.high_water > 0, "replies flowed");
        assert!(report.sm_ports.high_water > 0);
        assert!(report.partition_ports.high_water > 0);
        assert!(report.dram_queues.high_water > 0);
        // Every ring on the memory path is sized from its producers'
        // in-flight bounds, so a run must never hit the growth valve.
        assert_eq!(report.total().grows, 0, "steady state must not allocate");
    }

    #[test]
    fn single_tenant_is_bit_identical_to_run_launches_under_every_policy() {
        // The degenerate case of the tenant layer: one kernel, any
        // policy, must reproduce the classic single-owner run exactly
        // (tenant 0's address/PC offsets are the identity).
        let cfg = GpuConfig::test_small();
        let legacy = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory())
            .run_launches(1, 1_000_000);
        for policy in Partitioning::all() {
            let mut gpu = Gpu::new(cfg.clone(), stride_kernel(16, 4), &*null_factory());
            let (stats, per_kernel) =
                gpu.run_tenants(&[stride_kernel(16, 4)], policy, 1_000_000);
            assert_eq!(stats, legacy, "{policy} diverged from run_launches");
            assert_eq!(per_kernel.len(), 1);
            assert_eq!(per_kernel[0].ctas_completed, 16);
            assert_eq!(per_kernel[0].instructions, legacy.warp_instructions);
        }
    }

    #[test]
    fn multi_tenant_policies_complete_every_tenants_grid() {
        let cfg = GpuConfig::test_small();
        for policy in Partitioning::all() {
            let mut gpu = Gpu::new(cfg.clone(), stride_kernel(8, 4), &*null_factory());
            let tenants = [stride_kernel(8, 4), stride_kernel(12, 2)];
            let (stats, per_kernel) = gpu.run_tenants(&tenants, policy, 2_000_000);
            assert_eq!(per_kernel[0].ctas_completed, 8, "{policy}");
            assert_eq!(per_kernel[1].ctas_completed, 12, "{policy}");
            assert_eq!(stats.ctas_completed, 20, "{policy}");
            for k in &per_kernel {
                assert!(k.finish_cycle > k.start_cycle, "{policy}: empty lifetime");
                assert!(k.ipc() > 0.0, "{policy}: zero IPC");
            }
        }
    }

    #[test]
    fn tenant_runs_are_bit_identical_across_engines() {
        let cfg = GpuConfig::test_small();
        let tenants = [stride_kernel(12, 4), stride_kernel(8, 2)];
        for policy in Partitioning::all() {
            let mut reference = None;
            for ff in [false, true] {
                let mut gpu = Gpu::new(cfg.clone(), tenants[0].clone(), &*null_factory());
                gpu.set_fast_forward(ff);
                let got = gpu.run_tenants(&tenants, policy, 2_000_000);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "{policy} ff={ff}"),
                }
            }
        }
    }

    #[test]
    fn tenant_requests_never_cross_address_windows() {
        // Two co-resident tenants over identical grids: per-tenant DRAM
        // traffic must be attributed (non-zero for both) and the L2
        // attribution must sum to the machine-wide counters.
        let cfg = GpuConfig::test_small();
        let tenants = [stride_kernel(8, 4), stride_kernel(8, 4)];
        let mut gpu = Gpu::new(cfg, tenants[0].clone(), &*null_factory());
        let (stats, per_kernel) =
            gpu.run_tenants(&tenants, Partitioning::Shared, 2_000_000);
        let l2: u64 = per_kernel.iter().map(|k| k.l2_accesses).sum();
        assert_eq!(l2, stats.l2_accesses);
        for k in &per_kernel {
            assert!(k.dram_reads > 0, "tenant saw no DRAM traffic");
        }
    }
}
