//! Service-level metrics: typed instruments in a shared
//! [`telemetry::Registry`].
//!
//! Every counter the service bumps is a [`telemetry::Counter`] in the
//! registry (names carry the `service_` prefix and Prometheus unit
//! suffixes), and the request path feeds latency [`Histogram`]s —
//! queue wait, admission, solve, cache hit, coalesce wait, end-to-end —
//! so the exposition surfaces (`picasso-cli serve --metrics`, the bench
//! harness) read p50/p99 instead of means. A [`MetricsSnapshot`] remains
//! the plain-value view handed to callers and serialized into the CLI's
//! metrics summary; its fields and semantics are unchanged by the
//! registry migration. The headline invariant the tests pin:
//! `candidate_pairs_scanned` counts enumeration work from *executed*
//! solves only — a rejected job contributes exactly zero, because
//! admission runs before any conflict build.

use crate::cache::CacheStats;
use device::{FaultSite, FAULT_SITES};
use serde::Serialize;
use serde_json::{json, Value};
use std::sync::Arc;
use telemetry::{Counter, Gauge, Histogram, Registry};

/// Live instruments (shared across worker threads), all registered in
/// one [`Registry`] so the whole service state is scrapeable.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    pub(crate) submitted: Arc<Counter>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) demoted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) solved: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) candidate_pairs_scanned: Arc<Counter>,
    pub(crate) conflict_edges_built: Arc<Counter>,
    /// Σ admission forecasts of *freshly solved* jobs (cache replays run
    /// no solve and contribute no calibration sample).
    pub(crate) forecast_bytes_total: Arc<Counter>,
    /// Σ observed structural peaks of the same jobs
    /// ([`crate::admission::observed_peak_bytes`]).
    pub(crate) observed_peak_bytes_total: Arc<Counter>,
    /// Number of (forecast, observed) calibration samples recorded.
    pub(crate) calibration_samples: Arc<Counter>,
    /// Time a job spent queued before a worker popped it.
    pub(crate) queue_wait_ns: Arc<Histogram>,
    /// Admission assessment latency per submitted request.
    pub(crate) admission_ns: Arc<Histogram>,
    /// Fresh-solve latency (cache replays excluded).
    pub(crate) solve_ns: Arc<Histogram>,
    /// Latency of requests served straight from the result cache.
    pub(crate) cache_hit_ns: Arc<Histogram>,
    /// Time coalesced duplicates spent parked on the single-flight
    /// condvar before replaying.
    pub(crate) coalesce_wait_ns: Arc<Histogram>,
    /// End-to-end latency from enqueue to response, every executed job.
    pub(crate) total_ns: Arc<Histogram>,
    /// High-water structural solve peak across served jobs.
    pub(crate) solver_peak_bytes: Arc<Gauge>,
    /// Transient failures re-enqueued for another attempt.
    pub(crate) retries: Arc<Counter>,
    /// Backend demotions taken by the degradation ladder.
    pub(crate) degradations: Arc<Counter>,
    /// Jobs that failed terminally with an expired deadline.
    pub(crate) deadline_exceeded: Arc<Counter>,
    /// Jobs quarantined after exhausting their retry budget.
    pub(crate) quarantined: Arc<Counter>,
    /// Worker-thread panics contained by the isolation boundary.
    pub(crate) panics: Arc<Counter>,
    /// Injected faults observed, per [`FaultSite`] (index order).
    pub(crate) faults: [Arc<Counter>; FAULT_SITES.len()],
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new(Arc::new(Registry::new()))
    }
}

impl ServiceMetrics {
    /// Instruments registered into `registry`.
    pub fn new(registry: Arc<Registry>) -> ServiceMetrics {
        ServiceMetrics {
            submitted: registry.counter("service_submitted_total"),
            admitted: registry.counter("service_admitted_total"),
            demoted: registry.counter("service_demoted_total"),
            rejected: registry.counter("service_rejected_total"),
            solved: registry.counter("service_solved_total"),
            failed: registry.counter("service_failed_total"),
            candidate_pairs_scanned: registry.counter("service_candidate_pairs_total"),
            conflict_edges_built: registry.counter("service_conflict_edges_total"),
            forecast_bytes_total: registry.counter("service_forecast_bytes_total"),
            observed_peak_bytes_total: registry.counter("service_observed_peak_bytes_total"),
            calibration_samples: registry.counter("service_calibration_samples_total"),
            queue_wait_ns: registry.histogram("service_queue_wait_ns"),
            admission_ns: registry.histogram("service_admission_ns"),
            solve_ns: registry.histogram("service_solve_ns"),
            cache_hit_ns: registry.histogram("service_cache_hit_ns"),
            coalesce_wait_ns: registry.histogram("service_coalesce_wait_ns"),
            total_ns: registry.histogram("service_total_ns"),
            solver_peak_bytes: registry.gauge("solver_peak_bytes"),
            retries: registry.counter("service_retries_total"),
            degradations: registry.counter("service_degradations_total"),
            deadline_exceeded: registry.counter("service_deadline_exceeded_total"),
            quarantined: registry.counter("service_quarantined_total"),
            panics: registry.counter("service_panics_total"),
            faults: FAULT_SITES
                .map(|site| registry.counter(&format!("service_fault_{}_total", site.label()))),
            registry,
        }
    }

    /// The counter tracking injected faults at `site`.
    pub(crate) fn fault_counter(&self, site: FaultSite) -> &Counter {
        &self.faults[site.index()]
    }

    /// The registry every instrument lives in — the exposition surface.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Mirrors the cache's counters into registry gauges so a scrape of
    /// the registry alone tells the whole story. Gauges, not counters:
    /// the cache owns the authoritative monotone values and this is a
    /// point-in-time mirror.
    pub fn sync_cache_gauges(&self, cache: &CacheStats) {
        self.registry.gauge("cache_hits").set(cache.hits);
        self.registry.gauge("cache_misses").set(cache.misses);
        self.registry.gauge("cache_evictions").set(cache.evictions);
        self.registry
            .gauge("cache_entries")
            .set(cache.entries as u64);
    }

    /// Plain-value snapshot, merged with the cache's counters.
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            demoted: self.demoted.get(),
            rejected: self.rejected.get(),
            solved: self.solved.get(),
            failed: self.failed.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            candidate_pairs_scanned: self.candidate_pairs_scanned.get(),
            conflict_edges_built: self.conflict_edges_built.get(),
            forecast_bytes_total: self.forecast_bytes_total.get(),
            observed_peak_bytes_total: self.observed_peak_bytes_total.get(),
            calibration_samples: self.calibration_samples.get(),
            retries: self.retries.get(),
            degradations: self.degradations.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            quarantined: self.quarantined.get(),
            panics: self.panics.get(),
            faults_injected: self.faults.iter().map(|c| c.get()).sum(),
        }
    }
}

/// Counter values at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests handed to the service.
    pub submitted: u64,
    /// Requests that passed admission (includes demoted).
    pub admitted: u64,
    /// Requests admitted but demoted to priority 0.
    pub demoted: u64,
    /// Requests refused by admission.
    pub rejected: u64,
    /// Jobs solved (fresh solves, not cache replays).
    pub solved: u64,
    /// Jobs whose solve reported an error.
    pub failed: u64,
    /// Jobs served from the result cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries displaced by the capacity bound.
    pub cache_evictions: u64,
    /// Entries resident in the cache.
    pub cache_entries: usize,
    /// Candidate pairs enumerated by executed solves (rejected jobs
    /// contribute zero — the admission contract).
    pub candidate_pairs_scanned: u64,
    /// Conflict edges built by executed solves.
    pub conflict_edges_built: u64,
    /// Σ admission forecasts (`forecast_peak_bytes`) over freshly solved
    /// jobs — the denominator of the calibration ratio.
    pub forecast_bytes_total: u64,
    /// Σ observed structural peaks
    /// ([`crate::admission::observed_peak_bytes`]) over the same jobs —
    /// the numerator.
    pub observed_peak_bytes_total: u64,
    /// Calibration samples recorded (one per fresh solve; cache replays
    /// and rejections contribute none).
    pub calibration_samples: u64,
    /// Transient failures re-enqueued for another attempt.
    pub retries: u64,
    /// Backend demotions taken by the degradation ladder.
    pub degradations: u64,
    /// Jobs terminally failed on an expired deadline.
    pub deadline_exceeded: u64,
    /// Jobs quarantined after exhausting their retry budget.
    pub quarantined: u64,
    /// Worker panics contained by the isolation boundary.
    pub panics: u64,
    /// Injected faults observed, summed over every fault site (the
    /// per-site split lives in the registry's
    /// `service_fault_<site>_total` counters).
    pub faults_injected: u64,
}

impl MetricsSnapshot {
    /// Running observed-peak ÷ forecast ratio over all served jobs —
    /// the admission correction factor a calibrated controller would
    /// apply (`None` before the first fresh solve). Well under 1.0 in
    /// practice: the forecast pessimistically counts every candidate
    /// pair as an edge.
    pub fn forecast_utilization(&self) -> Option<f64> {
        if self.forecast_bytes_total == 0 {
            return None;
        }
        Some(self.observed_peak_bytes_total as f64 / self.forecast_bytes_total as f64)
    }

    /// JSON form for the CLI's metrics summary.
    pub fn to_json(&self) -> Value {
        json!({
            "submitted": self.submitted,
            "admitted": self.admitted,
            "demoted": self.demoted,
            "rejected": self.rejected,
            "solved": self.solved,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_entries": self.cache_entries,
            "candidate_pairs_scanned": self.candidate_pairs_scanned,
            "conflict_edges_built": self.conflict_edges_built,
            "forecast_bytes_total": self.forecast_bytes_total,
            "observed_peak_bytes_total": self.observed_peak_bytes_total,
            "calibration_samples": self.calibration_samples,
            "retries": self.retries,
            "degradations": self.degradations,
            "deadline_exceeded": self.deadline_exceeded,
            "quarantined": self.quarantined,
            "panics": self.panics,
            "faults_injected": self.faults_injected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let m = ServiceMetrics::default();
        m.submitted.inc();
        m.submitted.inc();
        m.candidate_pairs_scanned.add(41);
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.submitted, 2);
        assert_eq!(s.candidate_pairs_scanned, 41);
        assert_eq!(s.to_json()["submitted"], 2);
    }

    #[test]
    fn instruments_are_visible_through_the_registry() {
        let m = ServiceMetrics::default();
        m.solved.inc();
        m.solve_ns.record(1_000_000);
        m.solver_peak_bytes.set_max(4096);
        let registry = m.registry();
        assert_eq!(registry.counter("service_solved_total").get(), 1);
        assert_eq!(registry.histogram("service_solve_ns").count(), 1);
        assert_eq!(registry.gauge("solver_peak_bytes").get(), 4096);
        m.sync_cache_gauges(&CacheStats {
            hits: 3,
            misses: 2,
            evictions: 1,
            entries: 5,
        });
        assert_eq!(registry.gauge("cache_hits").get(), 3);
        assert_eq!(registry.gauge("cache_entries").get(), 5);
    }

    #[test]
    fn fault_counters_split_per_site_and_sum_in_the_snapshot() {
        let m = ServiceMetrics::default();
        m.fault_counter(FaultSite::DeviceReserve).add(3);
        m.fault_counter(FaultSite::WorkerPanic).inc();
        m.retries.add(2);
        m.quarantined.inc();
        let registry = m.registry();
        assert_eq!(
            registry.counter("service_fault_device_reserve_total").get(),
            3
        );
        assert_eq!(
            registry.counter("service_fault_worker_panic_total").get(),
            1
        );
        assert_eq!(
            registry.counter("service_fault_device_launch_total").get(),
            0
        );
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.faults_injected, 4);
        assert_eq!(s.retries, 2);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.to_json()["faults_injected"], 4);
        assert_eq!(s.to_json()["quarantined"], 1);
    }
}
