//! The prefetcher×scheduler configurations evaluated in the paper.
//!
//! Each [`Engine`] bundles a prefetch-engine factory with the warp
//! scheduler it is defined to run on: the baseline and all simple
//! prefetchers use the two-level scheduler (Table III), ORCH pairs LAP
//! with group-interleaved scheduling, and CAPS pairs CAP with PAS.
//! Fig. 14's ablations expose CAP on other schedulers and PAS without
//! the eager wake-up.

use caps_core::{caps_factory, CtaAwarePrefetcher};
use caps_gpu_sim::config::{GpuConfig, SchedulerKind};
use caps_gpu_sim::prefetch::{null_factory, PrefetcherFactory};
use caps_prefetchers as base;
/// One evaluated configuration (a bar color in Fig. 10–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Two-level scheduler, no prefetching (the normalization baseline).
    Baseline,
    /// Intra-warp stride prefetching.
    Intra,
    /// Inter-warp stride prefetching (CTA-oblivious).
    Inter,
    /// Inter-warp stride probing a fixed warp distance (Fig. 1).
    InterAtDistance(u32),
    /// Many-thread-aware prefetching (Lee et al.).
    Mta,
    /// Next-line prefetching.
    Nlp,
    /// Locality-aware (macro-block) prefetching (Jog et al.).
    Lap,
    /// LAP + group-interleaved scheduling (orchestrated; Jog et al.).
    Orch,
    /// CTA-aware prefetcher + prefetch-aware scheduler (the paper).
    Caps,
    /// CAPS with the eager warp wake-up disabled (Fig. 14a).
    CapsNoWakeup,
    /// CAP engine on an unmodified loose round-robin scheduler (Fig. 14b).
    CapsOnLrr,
    /// CAP engine on the unmodified two-level scheduler (Fig. 14b).
    CapsOnTlv,
    /// CAP engine on GTO with PAS leading-warp priority (§V-A's GTO
    /// adaptation — an extension experiment).
    CapsOnPasGto,
}

impl Engine {
    /// The seven configurations of Fig. 10/11/12/13.
    pub const FIGURE10: [Engine; 7] = [
        Engine::Intra,
        Engine::Inter,
        Engine::Mta,
        Engine::Nlp,
        Engine::Lap,
        Engine::Orch,
        Engine::Caps,
    ];

    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Baseline => "BASE",
            Engine::Intra => "INTRA",
            Engine::Inter | Engine::InterAtDistance(_) => "INTER",
            Engine::Mta => "MTA",
            Engine::Nlp => "NLP",
            Engine::Lap => "LAP",
            Engine::Orch => "ORCH",
            Engine::Caps => "CAPS",
            Engine::CapsNoWakeup => "CAPS-NW",
            Engine::CapsOnLrr => "CAPS@LRR",
            Engine::CapsOnTlv => "CAPS@TLV",
            Engine::CapsOnPasGto => "CAPS@GTO",
        }
    }

    /// The prefetch-engine factory for this configuration.
    pub fn factory(self) -> Box<PrefetcherFactory> {
        match self {
            Engine::Baseline => null_factory(),
            Engine::Intra => base::intra_factory(),
            Engine::Inter => base::inter_factory(),
            Engine::InterAtDistance(d) => base::inter_distance_factory(d),
            Engine::Mta => base::mta_factory(),
            Engine::Nlp => base::nlp_factory(),
            Engine::Lap => base::lap_factory(),
            Engine::Orch => base::orch_factory(),
            Engine::Caps
            | Engine::CapsNoWakeup
            | Engine::CapsOnLrr
            | Engine::CapsOnTlv
            | Engine::CapsOnPasGto => caps_factory(),
        }
    }

    /// The warp scheduler this configuration is defined on.
    pub fn scheduler(self) -> SchedulerKind {
        match self {
            Engine::Orch => SchedulerKind::OrchGrouped,
            Engine::Caps => SchedulerKind::Pas,
            Engine::CapsNoWakeup => SchedulerKind::PasNoWakeup,
            Engine::CapsOnLrr => SchedulerKind::Lrr,
            Engine::CapsOnPasGto => SchedulerKind::PasGto,
            _ => SchedulerKind::TwoLevel,
        }
    }

    /// Apply this configuration to a base GPU config.
    pub fn configure(self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        cfg.scheduler = self.scheduler();
        cfg
    }

    /// Whether this engine carries CAP tables (for energy accounting).
    pub fn uses_cap_tables(self) -> bool {
        matches!(
            self,
            Engine::Caps
                | Engine::CapsNoWakeup
                | Engine::CapsOnLrr
                | Engine::CapsOnTlv
                | Engine::CapsOnPasGto
        )
    }
}

// --- content hashing (sweep-farm result cache keys) -------------------

use caps_gpu_sim::digest::{Digest, Hashable};

impl Hashable for Engine {
    /// Variant identity, not the display label: `Inter` and
    /// `InterAtDistance(d)` share the `"INTER"` label but select
    /// different prefetch engines, so the digest tags the discriminant
    /// and streams variant payloads explicitly.
    fn digest_into(&self, d: &mut Digest) {
        match *self {
            Engine::Baseline => d.write_tag(0),
            Engine::Intra => d.write_tag(1),
            Engine::Inter => d.write_tag(2),
            Engine::InterAtDistance(dist) => {
                d.write_tag(3);
                d.write_u32(dist);
            }
            Engine::Mta => d.write_tag(4),
            Engine::Nlp => d.write_tag(5),
            Engine::Lap => d.write_tag(6),
            Engine::Orch => d.write_tag(7),
            Engine::Caps => d.write_tag(8),
            Engine::CapsNoWakeup => d.write_tag(9),
            Engine::CapsOnLrr => d.write_tag(10),
            Engine::CapsOnTlv => d.write_tag(11),
            Engine::CapsOnPasGto => d.write_tag(12),
        }
    }
}

/// Keep a reference to the concrete CAP type so the public API surfaces
/// it (diagnostics in examples construct it directly).
pub type Cap = CtaAwarePrefetcher;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_order_matches_paper_legend() {
        let labels: Vec<_> = Engine::FIGURE10.iter().map(|e| e.label()).collect();
        assert_eq!(
            labels,
            vec!["INTRA", "INTER", "MTA", "NLP", "LAP", "ORCH", "CAPS"]
        );
    }

    #[test]
    fn schedulers_match_definitions() {
        assert_eq!(Engine::Baseline.scheduler(), SchedulerKind::TwoLevel);
        assert_eq!(Engine::Caps.scheduler(), SchedulerKind::Pas);
        assert_eq!(Engine::CapsNoWakeup.scheduler(), SchedulerKind::PasNoWakeup);
        assert_eq!(Engine::Orch.scheduler(), SchedulerKind::OrchGrouped);
        assert_eq!(Engine::CapsOnLrr.scheduler(), SchedulerKind::Lrr);
        assert_eq!(Engine::Lap.scheduler(), SchedulerKind::TwoLevel);
    }

    #[test]
    fn factories_build() {
        for e in [
            Engine::Baseline,
            Engine::Caps,
            Engine::InterAtDistance(3),
            Engine::Orch,
        ] {
            let f = e.factory();
            let _ = f(0);
        }
    }

    #[test]
    fn engine_digest_distinguishes_same_label_variants() {
        use caps_gpu_sim::digest::fingerprint;
        assert_eq!(Engine::Inter.label(), Engine::InterAtDistance(3).label());
        assert_ne!(
            fingerprint(&Engine::Inter),
            fingerprint(&Engine::InterAtDistance(3))
        );
        assert_ne!(
            fingerprint(&Engine::InterAtDistance(3)),
            fingerprint(&Engine::InterAtDistance(4))
        );
        assert_eq!(fingerprint(&Engine::Caps), fingerprint(&Engine::Caps));
    }

    #[test]
    fn cap_table_flag() {
        assert!(Engine::Caps.uses_cap_tables());
        assert!(Engine::CapsOnLrr.uses_cap_tables());
        assert!(!Engine::Lap.uses_cap_tables());
    }
}
