//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a pure decision table: given a fault *site* (which
//! operation class can fail) and a *stream* position (which occurrence
//! of that operation this is), it answers "does this one fail?" by
//! hashing `(seed, site, stream)` through a splitmix64 finalizer and
//! comparing against a per-site threshold. Nothing is sampled
//! statefully, so the verdicts are independent of thread scheduling:
//! the same plan replayed against the same operation stream injects the
//! same faults, which is what lets the chaos harness assert that
//! degraded runs produce bit-identical payloads.
//!
//! The disabled path costs one branch per site: a plan-free consumer
//! (`Option<FaultPlan>` = `None`, the default everywhere) never hashes,
//! never touches an atomic, and never allocates.

use std::fmt;

/// Operation classes that can be made to fail by a [`FaultPlan`].
///
/// The first two are device-level (checked inside [`crate::DeviceSim`]);
/// the worker sites are service-level (checked in the worker loop before
/// a job runs). Keeping them in one enum gives fault telemetry a single
/// label space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A [`crate::DeviceSim::reserve`] lease is refused.
    DeviceReserve,
    /// A kernel launch aborts before dispatching any block.
    DeviceLaunch,
    /// The worker thread panics mid-job (service layer).
    WorkerPanic,
    /// The job is artificially slowed (service layer; exercises deadlines).
    WorkerSlow,
}

/// Every site, in label order — the iteration space for telemetry
/// counters and plan builders.
pub const FAULT_SITES: [FaultSite; 4] = [
    FaultSite::DeviceReserve,
    FaultSite::DeviceLaunch,
    FaultSite::WorkerPanic,
    FaultSite::WorkerSlow,
];

impl FaultSite {
    /// Stable index into per-site tables (thresholds, counters).
    pub fn index(self) -> usize {
        match self {
            FaultSite::DeviceReserve => 0,
            FaultSite::DeviceLaunch => 1,
            FaultSite::WorkerPanic => 2,
            FaultSite::WorkerSlow => 3,
        }
    }

    /// Stable snake_case label (metric names, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::DeviceReserve => "device_reserve",
            FaultSite::DeviceLaunch => "device_launch",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::WorkerSlow => "worker_slow",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-site salts so the same stream position hashes independently at
/// every site (arbitrary odd constants). Each salt belongs to its site,
/// not its index: removing a site must not move another site's verdicts.
const SITE_SALT: [u64; 4] = [
    0xC2B2_AE3D_27D4_EB4F,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_95B1_9A27,
    0x8EBC_6AF0_9C88_C6E3,
];

/// splitmix64 finalizer: a well-mixed 64-bit hash of `z`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, per-site fault-rate table. `Copy` so it can ride inside
/// plain-old-data configs ([`crate::DeviceSim`] state, service configs)
/// without reference counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Fire when `hash < threshold`; 0 = never, `u64::MAX` = always.
    thresholds: [u64; 4],
}

impl FaultPlan {
    /// A plan with every rate at zero — injects nothing until rates are
    /// added with [`FaultPlan::with_rate`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            thresholds: [0; 4],
        }
    }

    /// A plan firing every site at the same `rate` (clamped to [0, 1]).
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for site in FAULT_SITES {
            plan = plan.with_rate(site, rate);
        }
        plan
    }

    /// Sets `site`'s fault probability to `rate` (clamped to [0, 1]).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        self.thresholds[site.index()] = if rate >= 1.0 {
            u64::MAX
        } else {
            // rate × 2⁶⁴, kept below MAX so `hash < threshold` matches
            // the requested probability under a uniform hash.
            (rate * (u64::MAX as f64)) as u64
        };
        self
    }

    /// The plan's seed (fault decisions replay under the same seed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same rate table under a different seed. Retry layers use this
    /// to derive a per-attempt plan (`base_seed ^ attempt_hash`) so a
    /// retried operation draws a fresh — but still deterministic —
    /// verdict stream instead of replaying the exact faults that killed
    /// the previous attempt.
    pub fn reseed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Approximate configured rate for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        let t = self.thresholds[site.index()];
        if t == u64::MAX {
            1.0
        } else {
            t as f64 / u64::MAX as f64
        }
    }

    /// True when no site can ever fire — such a plan is equivalent to no
    /// plan at all.
    pub fn is_noop(&self) -> bool {
        self.thresholds.iter().all(|&t| t == 0)
    }

    /// The deterministic verdict for occurrence `stream` of `site`.
    ///
    /// Pure: depends only on `(seed, site, stream)`. Callers supply the
    /// stream position — an operation counter for device sites, a
    /// job-key/attempt hash for worker sites — so the verdict sequence
    /// is independent of scheduling.
    pub fn fires(&self, site: FaultSite, stream: u64) -> bool {
        let threshold = self.thresholds[site.index()];
        if threshold == 0 {
            return false;
        }
        if threshold == u64::MAX {
            return true;
        }
        let h = mix(mix(self.seed ^ SITE_SALT[site.index()]) ^ stream);
        h < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires() {
        let never = FaultPlan::new(7);
        let always = FaultPlan::uniform(7, 1.0);
        for site in FAULT_SITES {
            for stream in 0..1000u64 {
                assert!(!never.fires(site, stream));
                assert!(always.fires(site, stream));
            }
        }
        assert!(never.is_noop());
        assert!(!always.is_noop());
    }

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::uniform(42, 0.3);
        let b = FaultPlan::uniform(42, 0.3);
        let c = FaultPlan::uniform(43, 0.3);
        let va: Vec<bool> = (0..512)
            .map(|s| a.fires(FaultSite::DeviceReserve, s))
            .collect();
        let vb: Vec<bool> = (0..512)
            .map(|s| b.fires(FaultSite::DeviceReserve, s))
            .collect();
        let vc: Vec<bool> = (0..512)
            .map(|s| c.fires(FaultSite::DeviceReserve, s))
            .collect();
        assert_eq!(va, vb, "same seed, same verdicts");
        assert_ne!(va, vc, "different seed, different verdicts");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::uniform(9, 0.5);
        let reserve: Vec<bool> = (0..512)
            .map(|s| plan.fires(FaultSite::DeviceReserve, s))
            .collect();
        let launch: Vec<bool> = (0..512)
            .map(|s| plan.fires(FaultSite::DeviceLaunch, s))
            .collect();
        assert_ne!(reserve, launch, "site salt separates the streams");
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        for &rate in &[0.01, 0.1, 0.5] {
            let plan = FaultPlan::new(1234).with_rate(FaultSite::WorkerPanic, rate);
            let n = 20_000u64;
            let fired = (0..n)
                .filter(|&s| plan.fires(FaultSite::WorkerPanic, s))
                .count() as f64;
            let observed = fired / n as f64;
            assert!(
                (observed - rate).abs() < 0.02 + rate * 0.25,
                "rate {rate}: observed {observed}"
            );
            assert!((plan.rate(FaultSite::WorkerPanic) - rate).abs() < 1e-9);
        }
    }

    /// Golden verdict masks (bit `s` = stream `s` fires) for the four
    /// sites a product path reaches. Each site hashes with its own salt,
    /// so adding or removing *other* sites must not move these bits.
    #[test]
    fn verdict_masks_are_pinned_per_site() {
        let golden: [(u64, FaultSite, u64); 8] = [
            (9, FaultSite::DeviceReserve, 0x9541_0014_7010_6080),
            (9, FaultSite::DeviceLaunch, 0x8542_4CA5_F300_E4E3),
            (9, FaultSite::WorkerPanic, 0x4251_6418_C08E_1401),
            (9, FaultSite::WorkerSlow, 0x8011_0112_090A_010C),
            (42, FaultSite::DeviceReserve, 0x5288_269D_5602_AB00),
            (42, FaultSite::DeviceLaunch, 0x0010_2242_2848_14F2),
            (42, FaultSite::WorkerPanic, 0x870D_AA00_E400_0C28),
            (42, FaultSite::WorkerSlow, 0x2075_8368_0CA4_3682),
        ];
        for (seed, site, want) in golden {
            let plan = FaultPlan::uniform(seed, 0.3);
            let mask = (0..64u64)
                .filter(|&s| plan.fires(site, s))
                .fold(0u64, |m, s| m | 1 << s);
            assert_eq!(mask, want, "seed {seed} site {site}: {mask:#018X}");
        }
    }

    #[test]
    fn labels_and_indices_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for (i, site) in FAULT_SITES.iter().enumerate() {
            assert_eq!(site.index(), i);
            assert!(seen.insert(site.label()));
            assert_eq!(format!("{site}"), site.label());
        }
    }
}
