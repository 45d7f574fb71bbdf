//! Typed telemetry instruments for solver results: one call folds a
//! [`PicassoResult`]'s per-iteration stats into a
//! [`telemetry::Registry`], so every surface (CLI `--stats`/`--json`
//! footers, `--metrics` exposition, the service's per-solve roll-up)
//! reads the same numbers from the same instruments.
//!
//! Naming follows the Prometheus unit-suffix convention: `_total` for
//! counters, `_ns` for nanosecond histograms, `_bytes` for byte gauges.

use crate::solver::PicassoResult;
use telemetry::Registry;

/// Folds one completed solve into `registry`.
///
/// Counters accumulate across solves (monotone); phase histograms gain
/// one sample per iteration; per-solve histograms gain one sample per
/// call; byte gauges are high-water marks ([`telemetry::Gauge::set_max`]).
pub fn record_result(registry: &Registry, result: &PicassoResult) {
    registry.counter("solver_solves_total").inc();
    registry
        .counter("solver_iterations_total")
        .add(result.iterations.len() as u64);
    registry
        .counter("solver_colored_vertices_total")
        .add(result.colors.len() as u64);
    registry
        .counter("solver_candidate_pairs_total")
        .add(result.total_candidate_pairs());
    registry
        .counter("solver_conflict_edges_total")
        .add(result.total_conflict_edges() as u64);
    registry
        .counter("solver_packed_lanes_total")
        .add(result.total_packed_lanes());
    registry
        .counter("solver_hit_bits_total")
        .add(result.total_hit_bits());
    registry
        .counter("solver_skipped_words_total")
        .add(result.total_skipped_words());
    registry
        .counter("solver_index_builds_total")
        .add(result.index_builds as u64);
    registry
        .counter("solver_pack_builds_total")
        .add(result.pack_builds as u64);
    registry
        .counter("solver_safety_valve_vertices_total")
        .add(result.safety_valve_vertices as u64);
    registry
        .counter("solver_color_bitset_iterations_total")
        .add(result.color_bitset_iterations() as u64);
    registry
        .counter("solver_conflict_mask_iterations_total")
        .add(result.conflict_mask_iterations() as u64);
    registry
        .counter("solver_strikes_total")
        .add(result.total_strikes());
    registry
        .counter("solver_strike_callbacks_total")
        .add(result.total_strike_callbacks());

    let assign = registry.histogram("solver_assign_ns");
    let conflict = registry.histogram("solver_conflict_ns");
    let color = registry.histogram("solver_color_ns");
    for s in &result.iterations {
        assign.record_secs(s.assign_secs);
        conflict.record_secs(s.conflict_secs);
        color.record_secs(s.color_secs);
    }
    registry
        .histogram("solver_total_ns")
        .record_secs(result.total_secs);
    registry
        .histogram("solver_colors_used")
        .record(result.num_colors as u64);

    registry
        .gauge("solver_max_conflict_edges")
        .set_max(result.max_conflict_edges() as u64);
    registry
        .gauge("solver_max_replica_bytes")
        .set_max(result.max_replica_bytes());
    registry
        .gauge("solver_max_mask_bytes")
        .set_max(result.max_mask_bytes());
    if let Some(dev) = &result.device_stats {
        registry
            .gauge("device_reserved_peak_bytes")
            .set_max(dev.peak_bytes as u64);
        registry
            .counter("device_h2d_bytes_total")
            .add(dev.h2d_bytes as u64);
        registry
            .counter("device_d2h_bytes_total")
            .add(dev.d2h_bytes as u64);
        registry
            .counter("device_kernel_launches_total")
            .add(dev.kernel_launches as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PicassoConfig;
    use crate::solver::Picasso;
    use pauli::EncodedSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_result_populates_typed_instruments() {
        let mut rng = StdRng::seed_from_u64(3);
        let strings = pauli::string::random_unique_set(120, 8, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let result = Picasso::new(PicassoConfig::normal(4))
            .solve_pauli(&set)
            .unwrap();

        let registry = Registry::new();
        record_result(&registry, &result);
        assert_eq!(registry.counter("solver_solves_total").get(), 1);
        assert_eq!(
            registry.counter("solver_iterations_total").get(),
            result.iterations.len() as u64
        );
        assert_eq!(
            registry.counter("solver_candidate_pairs_total").get(),
            result.total_candidate_pairs()
        );
        let assign = registry.histogram("solver_assign_ns");
        assert_eq!(assign.count(), result.iterations.len() as u64);
        assert_eq!(registry.histogram("solver_total_ns").count(), 1);
        assert_eq!(
            registry.counter("solver_safety_valve_vertices_total").get(),
            result.safety_valve_vertices as u64
        );
        assert_eq!(
            registry
                .counter("solver_color_bitset_iterations_total")
                .get(),
            result.color_bitset_iterations() as u64
        );
        assert_eq!(
            registry
                .counter("solver_conflict_mask_iterations_total")
                .get(),
            result.conflict_mask_iterations() as u64
        );
        assert_eq!(
            registry.counter("solver_strikes_total").get(),
            result.total_strikes()
        );
        assert!(result.total_strikes() > 0, "the greedy struck colours");
        assert_eq!(
            registry.counter("solver_strike_callbacks_total").get(),
            result.total_strike_callbacks()
        );
        assert_eq!(
            registry.gauge("solver_max_conflict_edges").get(),
            result.max_conflict_edges() as u64
        );
        assert_eq!(
            registry.gauge("solver_max_replica_bytes").get(),
            result.max_replica_bytes()
        );
        assert!(result.max_replica_bytes() > 0, "the solve packed");
        assert_eq!(
            registry.gauge("solver_max_mask_bytes").get(),
            result.max_mask_bytes()
        );

        // A second solve accumulates monotonically.
        record_result(&registry, &result);
        assert_eq!(registry.counter("solver_solves_total").get(), 2);
        assert_eq!(
            registry.counter("solver_candidate_pairs_total").get(),
            2 * result.total_candidate_pairs()
        );
    }

    #[test]
    fn safety_valve_vertices_are_counted() {
        let mut rng = StdRng::seed_from_u64(3);
        let strings = pauli::string::random_unique_set(200, 8, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let mut cfg = PicassoConfig::normal(4);
        cfg.max_iterations = 1;
        let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
        assert!(result.safety_valve_vertices > 0);
        let registry = Registry::new();
        record_result(&registry, &result);
        assert_eq!(
            registry.counter("solver_safety_valve_vertices_total").get(),
            result.safety_valve_vertices as u64
        );
    }

    #[test]
    fn device_stats_surface_as_device_instruments() {
        let mut rng = StdRng::seed_from_u64(5);
        let strings = pauli::string::random_unique_set(90, 8, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let cfg = PicassoConfig::normal(3).with_backend(crate::config::ConflictBackend::Device {
            capacity: 32 * 1024 * 1024,
        });
        let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
        let registry = Registry::new();
        record_result(&registry, &result);
        let dev = result.device_stats.unwrap();
        assert_eq!(
            registry.gauge("device_reserved_peak_bytes").get(),
            dev.peak_bytes as u64
        );
        assert_eq!(
            registry.counter("device_kernel_launches_total").get(),
            dev.kernel_launches as u64
        );
    }
}
