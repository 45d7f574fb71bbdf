//! Registry-fed solve summaries: the single formatter behind the CLI's
//! `--stats` footers and `--json` roll-up fields.
//!
//! Both surfaces used to compute their numbers independently from
//! [`picasso::PicassoResult`]; now each reads a [`SolveSummary`] built
//! from the [`telemetry::Registry`] populated by
//! [`picasso::metrics::record_result`], so the human footer, the JSON
//! document, and the `--metrics` exposition cannot drift apart — they
//! are literally the same instruments.

use serde_json::Value;
use telemetry::Registry;

/// Solver roll-up counters read back from a registry (one or more
/// solves folded in via [`picasso::metrics::record_result`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveSummary {
    /// Solves folded into the registry.
    pub solves: u64,
    /// Total palette-assignment iterations.
    pub iterations: u64,
    /// Bucket-index builds (one per iteration that needed the index).
    pub index_builds: u64,
    /// Packed-replica builds.
    pub pack_builds: u64,
    /// Candidate pairs enumerated (Line 7 work).
    pub candidate_pairs: u64,
    /// Candidate pairs streamed through the packed lane kernel.
    pub packed_lanes: u64,
    /// Set bits in packed hit masks (oracle edges found packed).
    pub hit_bits: u64,
    /// All-zero hit-mask words skipped whole by the packed consumer.
    pub skipped_words: u64,
    /// Vertices the `max_iterations` safety valve gave a fresh color.
    pub safety_valve_vertices: u64,
    /// Iterations whose greedy kept its live lists as per-colour holder
    /// sets (the `holders` side of `listcolor::uses_palette_bitset`).
    pub color_bitset_iterations: u64,
    /// Iterations whose Line 7 kept hit masks instead of a CSR.
    pub conflict_mask_iterations: u64,
    /// Largest packed replica of any iteration, in bytes.
    pub max_replica_bytes: u64,
    /// Largest hit-mask form of any iteration, in bytes (the graph-form
    /// rule's comparison value, recorded whether or not it kept masks).
    pub max_mask_bytes: u64,
    /// Algorithm 2's successful strikes.
    pub strikes: u64,
    /// Callbacks of Algorithm 2's strike walks, successful or not.
    pub strike_callbacks: u64,
    /// Seconds spent in the coloring phase (Lines 8-9).
    pub color_secs: f64,
    /// End-to-end solve seconds.
    pub total_secs: f64,
}

impl SolveSummary {
    /// Reads the `solver_*` instruments back out of `registry`.
    pub fn from_registry(registry: &Registry) -> SolveSummary {
        let counter = |name: &str| registry.counter(name).get();
        SolveSummary {
            solves: counter("solver_solves_total"),
            iterations: counter("solver_iterations_total"),
            index_builds: counter("solver_index_builds_total"),
            pack_builds: counter("solver_pack_builds_total"),
            candidate_pairs: counter("solver_candidate_pairs_total"),
            packed_lanes: counter("solver_packed_lanes_total"),
            hit_bits: counter("solver_hit_bits_total"),
            skipped_words: counter("solver_skipped_words_total"),
            safety_valve_vertices: counter("solver_safety_valve_vertices_total"),
            color_bitset_iterations: counter("solver_color_bitset_iterations_total"),
            conflict_mask_iterations: counter("solver_conflict_mask_iterations_total"),
            max_replica_bytes: registry.gauge("solver_max_replica_bytes").get(),
            max_mask_bytes: registry.gauge("solver_max_mask_bytes").get(),
            strikes: counter("solver_strikes_total"),
            strike_callbacks: counter("solver_strike_callbacks_total"),
            color_secs: registry.histogram("solver_color_ns").sum() as f64 / 1e9,
            total_secs: registry.histogram("solver_total_ns").sum() as f64 / 1e9,
        }
    }

    /// Fraction of candidate enumeration that ran packed, in `[0, 1]`
    /// (mirrors [`picasso::PicassoResult::packed_lane_utilization`]).
    pub fn packed_lane_utilization(&self) -> f64 {
        if self.candidate_pairs == 0 {
            return 0.0;
        }
        self.packed_lanes as f64 / self.candidate_pairs as f64
    }

    /// Fraction of streamed packed lanes that were oracle edges, in
    /// `[0, 1]` (mirrors [`picasso::PicassoResult::hit_density`]).
    pub fn hit_density(&self) -> f64 {
        if self.packed_lanes == 0 {
            return 0.0;
        }
        self.hit_bits as f64 / self.packed_lanes as f64
    }

    /// The `--stats` Line-7 footer line: packing (with the parity arm
    /// the packed kernel runs on this CPU) and the graph form, with the
    /// largest replica and hit-mask form.
    pub fn packing_footer(&self) -> String {
        format!(
            "pack builds: {} ({} parity kernel, {}% of candidate enumeration ran packed, \
             {:.1}% hit density, \
             {} mask words skipped whole, largest replica {:.1} KiB), hit-mask graphs \
             in {} of {} iterations (largest masks {:.1} KiB)",
            self.pack_builds,
            picasso::packed::parity_kernel(),
            (100.0 * self.packed_lane_utilization()).round(),
            100.0 * self.hit_density(),
            self.skipped_words,
            self.max_replica_bytes as f64 / 1024.0,
            self.conflict_mask_iterations,
            self.iterations,
            self.max_mask_bytes as f64 / 1024.0
        )
    }

    /// The `--stats` coloring footer line (`scheme` is the configured
    /// [`picasso::ListColoringScheme`] label).
    pub fn coloring_footer(&self, scheme: &str) -> String {
        format!(
            "coloring [{}]: {:.3}s, holder sets in {} of {} iterations, \
             {} strikes ({} walk callbacks), \
             {} vertices colored by the max-iterations safety valve",
            scheme,
            self.color_secs,
            self.color_bitset_iterations,
            self.iterations,
            self.strikes,
            self.strike_callbacks,
            self.safety_valve_vertices
        )
    }

    /// The one-shot headline printed after every solve.
    pub fn headline(&self, num_strings: usize, num_groups: usize, pct: f64) -> String {
        format!(
            "{num_strings} strings -> {num_groups} groups ({pct:.1}%) in {} iterations, {:.3}s",
            self.iterations, self.total_secs
        )
    }

    /// Inserts the registry-derived roll-up fields into a `--json`
    /// output document (`doc` must be a JSON object).
    pub fn extend_json(&self, doc: &mut Value) {
        let Value::Object(map) = doc else {
            return;
        };
        let fields = [
            ("iterations", Value::from(self.iterations)),
            ("total_candidate_pairs", Value::from(self.candidate_pairs)),
            ("index_builds", Value::from(self.index_builds)),
            ("pack_builds", Value::from(self.pack_builds)),
            (
                "parity_kernel",
                Value::from(picasso::packed::parity_kernel()),
            ),
            (
                "packed_lane_utilization",
                Value::from(self.packed_lane_utilization()),
            ),
            ("total_hit_bits", Value::from(self.hit_bits)),
            ("total_skipped_words", Value::from(self.skipped_words)),
            ("hit_density", Value::from(self.hit_density())),
            ("max_replica_bytes", Value::from(self.max_replica_bytes)),
            ("max_mask_bytes", Value::from(self.max_mask_bytes)),
            ("color_secs", Value::from(self.color_secs)),
            ("total_strikes", Value::from(self.strikes)),
            ("total_strike_callbacks", Value::from(self.strike_callbacks)),
            (
                "safety_valve_vertices",
                Value::from(self.safety_valve_vertices),
            ),
            ("total_secs", Value::from(self.total_secs)),
        ];
        for (key, value) in fields {
            map.insert(key.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::EncodedSet;
    use picasso::{Picasso, PicassoConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solved_registry() -> (Registry, picasso::PicassoResult) {
        let mut rng = StdRng::seed_from_u64(11);
        let strings = pauli::string::random_unique_set(150, 8, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let result = Picasso::new(PicassoConfig::normal(2))
            .solve_pauli(&set)
            .unwrap();
        let registry = Registry::new();
        picasso::metrics::record_result(&registry, &result);
        (registry, result)
    }

    #[test]
    fn summary_matches_the_result_it_came_from() {
        let (registry, result) = solved_registry();
        let s = SolveSummary::from_registry(&registry);
        assert_eq!(s.solves, 1);
        assert_eq!(s.iterations, result.iterations.len() as u64);
        assert_eq!(s.candidate_pairs, result.total_candidate_pairs());
        assert_eq!(s.pack_builds, result.pack_builds as u64);
        assert_eq!(s.hit_bits, result.total_hit_bits());
        assert!((s.packed_lane_utilization() - result.packed_lane_utilization()).abs() < 1e-12);
        assert!((s.hit_density() - result.hit_density()).abs() < 1e-12);
        // Durations round-trip through integer nanoseconds.
        assert!((s.color_secs - result.color_secs()).abs() < 1e-6);
        assert!((s.total_secs - result.total_secs).abs() < 1e-6);
    }

    #[test]
    fn footers_render_the_registry_numbers() {
        let (registry, result) = solved_registry();
        let s = SolveSummary::from_registry(&registry);
        let packing = s.packing_footer();
        assert!(packing.starts_with(&format!(
            "pack builds: {} ({} parity kernel, ",
            result.pack_builds,
            picasso::packed::parity_kernel()
        )));
        assert!(packing.contains("hit density"));
        assert!(packing.contains(&format!(
            "largest replica {:.1} KiB",
            result.max_replica_bytes() as f64 / 1024.0
        )));
        assert!(packing.ends_with(&format!(
            "hit-mask graphs in {} of {} iterations (largest masks {:.1} KiB)",
            result.conflict_mask_iterations(),
            result.iterations.len(),
            result.max_mask_bytes() as f64 / 1024.0
        )));
        assert!(result.max_mask_bytes() > 0, "the greedy solve ran the rule");
        let coloring = s.coloring_footer("greedy");
        assert!(coloring.starts_with("coloring [greedy]:"));
        assert!(coloring.contains(&format!(
            "{} vertices colored by the max-iterations safety valve",
            result.safety_valve_vertices
        )));
        assert!(coloring.contains(&format!(
            "{} strikes ({} walk callbacks)",
            result.total_strikes(),
            result.total_strike_callbacks()
        )));
        assert!(coloring.contains(&format!(
            "holder sets in {} of {} iterations",
            result.color_bitset_iterations(),
            result.iterations.len()
        )));
        let headline = s.headline(150, result.num_colors as usize, result.color_percentage());
        assert!(headline.contains(&format!("in {} iterations", result.iterations.len())));
    }

    #[test]
    fn extend_json_fills_the_rollup_fields() {
        let (registry, result) = solved_registry();
        let s = SolveSummary::from_registry(&registry);
        let mut doc = serde_json::json!({ "num_strings": 150 });
        s.extend_json(&mut doc);
        assert_eq!(doc["num_strings"], 150u64, "existing fields survive");
        assert_eq!(doc["iterations"], result.iterations.len() as u64);
        assert_eq!(doc["total_candidate_pairs"], result.total_candidate_pairs());
        assert_eq!(doc["pack_builds"], result.pack_builds as u64);
        assert_eq!(doc["parity_kernel"], picasso::packed::parity_kernel());
        assert!(doc["hit_density"].as_f64().is_some());
        assert_eq!(doc["max_replica_bytes"], result.max_replica_bytes());
        assert_eq!(doc["max_mask_bytes"], result.max_mask_bytes());
        assert_eq!(doc["total_strikes"], result.total_strikes());
        assert!(result.total_strikes() > 0, "the greedy struck colours");
        assert_eq!(
            doc["total_strike_callbacks"],
            result.total_strike_callbacks()
        );
        assert_eq!(
            doc["safety_valve_vertices"],
            result.safety_valve_vertices as u64
        );
        assert!(doc["total_secs"].as_f64().unwrap() >= 0.0);
    }
}
