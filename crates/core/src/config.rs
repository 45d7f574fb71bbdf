//! Algorithm configuration: the palette/list trade-off knobs of the paper.

use serde::{Deserialize, Serialize};

/// Which implementation builds the per-iteration conflict graph.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConflictBackend {
    /// Single-threaded bucketed scan (the paper's "CPU only" build, on
    /// the inverted-index candidate engine).
    Sequential,
    /// Rayon-parallel bucketed scan (the multicore CPU build).
    Parallel,
    /// The legacy `Θ(m²)` all-pairs sequential scan, kept as the
    /// reference implementation the bucketed backends are validated
    /// against (and as the honest baseline of the `conflict_build`
    /// bench).
    AllPairs,
    /// Simulated-accelerator build following Algorithm 3 on a fleet of
    /// `devices` ([`crate::conflict::build_device`]): one device is the
    /// paper's GPU build, several its stated future work ("distributed
    /// multi-GPU parallel implementations"). Rows are pair-balanced
    /// across devices; each device replicates the encoded input and owns
    /// its shard's edge list within its own budget. Fails with
    /// [`crate::SolveError::DeviceOom`] when a shard's edge list outgrows
    /// its device, as the paper's largest instance does on the 40 GB
    /// A100.
    MultiDevice {
        /// Number of simulated devices.
        devices: usize,
        /// Memory budget of each device in bytes.
        capacity_each: usize,
    },
}

impl ConflictBackend {
    /// Parses the CLI / job-config spelling of a backend: `seq`, `par`,
    /// `allpairs`, `device:<MiB>` (a fleet of one) or
    /// `multi:<N>:<MiB>`, with `1 ≤ MiB ≤ 2²⁰` and `1 ≤ N ≤ 64`.
    pub fn from_label(label: &str) -> Result<ConflictBackend, String> {
        Ok(match label {
            "seq" => ConflictBackend::Sequential,
            "par" => ConflictBackend::Parallel,
            "allpairs" => ConflictBackend::AllPairs,
            _ => {
                let (devices, capacity) = if let Some(cap) = label.strip_prefix("device:") {
                    (1, cap)
                } else if let Some(rest) = label.strip_prefix("multi:") {
                    let (count, cap) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("backend {label:?} wants multi:<N>:<MiB>"))?;
                    let devices: usize = count
                        .parse()
                        .map_err(|_| format!("bad device count {count:?} in backend {label:?}"))?;
                    if devices == 0 || devices > 64 {
                        return Err(format!("device count {devices} out of [1, 64]"));
                    }
                    (devices, cap)
                } else {
                    return Err(format!(
                        "unknown backend {label:?} (want seq | par | allpairs | device:<MiB> \
                         | multi:<N>:<MiB>)"
                    ));
                };
                let mib: usize = capacity.parse().map_err(|_| {
                    format!("bad device capacity {capacity:?} in backend {label:?}")
                })?;
                if mib == 0 || mib > 1024 * 1024 {
                    return Err(format!("device capacity {mib} MiB out of [1, 2^20]"));
                }
                ConflictBackend::MultiDevice {
                    devices,
                    capacity_each: mib << 20,
                }
            }
        })
    }

    /// Stable label, the inverse of [`ConflictBackend::from_label`];
    /// device capacities print in whole MiB, rounded down.
    pub fn label(&self) -> String {
        match *self {
            ConflictBackend::Sequential => "seq".into(),
            ConflictBackend::Parallel => "par".into(),
            ConflictBackend::AllPairs => "allpairs".into(),
            ConflictBackend::MultiDevice {
                devices: 1,
                capacity_each,
            } => format!("device:{}", capacity_each >> 20),
            ConflictBackend::MultiDevice {
                devices,
                capacity_each,
            } => format!("multi:{devices}:{}", capacity_each >> 20),
        }
    }
}

/// How the conflict graph is list-colored (§IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ListColoringScheme {
    /// Algorithm 2: dynamic bucket order, most-constrained vertex first.
    /// The paper's default — it "provided better coloring relative to the
    /// static ordering algorithms".
    DynamicGreedy,
    /// Static order: visit in the given heuristic's order, take the first
    /// feasible color from the vertex's own list.
    Static(coloring::OrderingHeuristic),
}

impl ListColoringScheme {
    /// Parses the CLI / job-config spelling of a scheme.
    pub fn from_label(label: &str) -> Result<ListColoringScheme, String> {
        use coloring::OrderingHeuristic as H;
        Ok(match label {
            "greedy" | "dynamic" => ListColoringScheme::DynamicGreedy,
            "natural" => ListColoringScheme::Static(H::Natural),
            "random" => ListColoringScheme::Static(H::Random),
            "lf" => ListColoringScheme::Static(H::LargestFirst),
            "sl" => ListColoringScheme::Static(H::SmallestLast),
            "dlf" => ListColoringScheme::Static(H::DynamicLargestFirst),
            "id" => ListColoringScheme::Static(H::IncidenceDegree),
            other => {
                return Err(format!(
                    "unknown coloring scheme '{other}' (expected greedy, natural, random, \
                     lf, sl, dlf, or id)"
                ))
            }
        })
    }

    /// Stable label, the inverse of [`ListColoringScheme::from_label`].
    pub fn label(&self) -> &'static str {
        use coloring::OrderingHeuristic as H;
        match self {
            ListColoringScheme::DynamicGreedy => "greedy",
            ListColoringScheme::Static(H::Natural) => "natural",
            ListColoringScheme::Static(H::Random) => "random",
            ListColoringScheme::Static(H::LargestFirst) => "lf",
            ListColoringScheme::Static(H::SmallestLast) => "sl",
            ListColoringScheme::Static(H::DynamicLargestFirst) => "dlf",
            ListColoringScheme::Static(H::IncidenceDegree) => "id",
        }
    }
}

/// Full Picasso configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PicassoConfig {
    /// Palette size as a fraction of the live vertex count (the paper's
    /// `P`, reported there as a percentage).
    pub palette_fraction: f64,
    /// List-size multiplier: `L = ⌈α · log₂ n⌉` (the paper's `α`).
    pub alpha: f64,
    /// PRNG seed; the whole run is deterministic given the seed.
    pub seed: u64,
    /// Conflict-graph construction backend.
    pub backend: ConflictBackend,
    /// Conflict-graph coloring scheme.
    pub scheme: ListColoringScheme,
    /// Base of the logarithm in `L = α·log n`. The paper writes `log |V|`
    /// without a base; base 10 reproduces its empirical regime (conflict
    /// edges ≤ 5% of |E| in most cases, Table III color counts), whereas
    /// base 2 produces conflict graphs an order of magnitude denser than
    /// reported. Configurable for ablations.
    pub log_base: f64,
    /// Lower bound on the per-iteration palette size, so tiny residual
    /// subproblems still converge.
    pub min_palette: u32,
    /// Safety valve: after this many iterations remaining vertices get
    /// fresh singleton colors. The algorithm colors ≥1 vertex per
    /// iteration, so this only triggers on adversarial configurations.
    pub max_iterations: usize,
}

impl PicassoConfig {
    /// The paper's **Normal** configuration: `P = 12.5 %`, `α = 2`.
    pub fn normal(seed: u64) -> PicassoConfig {
        PicassoConfig {
            palette_fraction: 0.125,
            alpha: 2.0,
            seed,
            backend: ConflictBackend::Parallel,
            scheme: ListColoringScheme::DynamicGreedy,
            log_base: 10.0,
            min_palette: 4,
            max_iterations: 10_000,
        }
    }

    /// The paper's **Aggressive** configuration: `P = 3 %`, `α = 30`
    /// (fewer colors, more conflict edges and work).
    pub fn aggressive(seed: u64) -> PicassoConfig {
        PicassoConfig {
            palette_fraction: 0.03,
            alpha: 30.0,
            ..PicassoConfig::normal(seed)
        }
    }

    /// Builder-style palette fraction override.
    pub fn with_palette_fraction(mut self, f: f64) -> PicassoConfig {
        self.palette_fraction = f;
        self
    }

    /// Builder-style α override.
    pub fn with_alpha(mut self, alpha: f64) -> PicassoConfig {
        self.alpha = alpha;
        self
    }

    /// Builder-style backend override.
    pub fn with_backend(mut self, backend: ConflictBackend) -> PicassoConfig {
        self.backend = backend;
        self
    }

    /// Builder-style list-coloring scheme override.
    pub fn with_scheme(mut self, scheme: ListColoringScheme) -> PicassoConfig {
        self.scheme = scheme;
        self
    }

    /// Palette size for a live-vertex count, `max(min_palette, ⌈f·n⌉)`.
    pub fn palette_size(&self, n_live: usize) -> u32 {
        let p = (self.palette_fraction * n_live as f64).ceil() as u32;
        p.max(self.min_palette).max(1)
    }

    /// List size for a live-vertex count: `⌈α · log n⌉` in the configured
    /// base, clamped to `[1, palette_size]`.
    pub fn list_size(&self, n_live: usize) -> u32 {
        let log_n = (n_live.max(2) as f64).ln() / self.log_base.ln();
        let l = (self.alpha * log_n).ceil() as u32;
        l.clamp(1, self.palette_size(n_live))
    }

    /// Builder-style log-base override (for ablation studies).
    pub fn with_log_base(mut self, base: f64) -> PicassoConfig {
        self.log_base = base;
        self
    }

    /// Closed-form forecast of the *first iteration's* candidate-pair
    /// enumeration work for an `n`-vertex instance under this
    /// configuration ([`crate::analysis::estimate_candidate_pairs`] at
    /// this configuration's `P(n)` and `L(n)`). Free to evaluate — no
    /// probe solve, no list assignment — which is what makes it usable as
    /// an admission pre-check before any work is committed to a job.
    pub fn candidate_pairs_estimate(&self, n: usize) -> u64 {
        crate::analysis::estimate_candidate_pairs(n, self.palette_size(n), self.list_size(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_round_trip_and_reject_bad_specs() {
        for (label, backend) in [
            ("seq", ConflictBackend::Sequential),
            ("par", ConflictBackend::Parallel),
            ("allpairs", ConflictBackend::AllPairs),
            (
                "device:64",
                ConflictBackend::MultiDevice {
                    devices: 1,
                    capacity_each: 64 << 20,
                },
            ),
            (
                "multi:4:16",
                ConflictBackend::MultiDevice {
                    devices: 4,
                    capacity_each: 16 << 20,
                },
            ),
        ] {
            assert_eq!(ConflictBackend::from_label(label), Ok(backend), "{label}");
            assert_eq!(backend.label(), label);
        }
        // `multi:1:M` is the same fleet of one as `device:M`.
        assert_eq!(
            ConflictBackend::from_label("multi:1:8").unwrap().label(),
            "device:8"
        );
        for bad in [
            "device:",
            "device:0",
            "device:nope",
            // 2^44 MiB: the byte count would wrap a 64-bit usize.
            "device:17592186044416",
            "device:1048577",
            "multi:4",
            "multi:0:16",
            "multi:65:16",
            "multi:2:0",
            "multi:2:17592186044416",
            "Device:64",
            "warp",
        ] {
            assert!(ConflictBackend::from_label(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn paper_presets() {
        let norm = PicassoConfig::normal(1);
        assert_eq!(norm.palette_fraction, 0.125);
        assert_eq!(norm.alpha, 2.0);
        let aggr = PicassoConfig::aggressive(1);
        assert_eq!(aggr.palette_fraction, 0.03);
        assert_eq!(aggr.alpha, 30.0);
    }

    #[test]
    fn palette_size_scales_with_live_count() {
        let cfg = PicassoConfig::normal(0);
        assert_eq!(cfg.palette_size(8000), 1000); // 12.5% of 8000
        assert_eq!(cfg.palette_size(8), 4); // floored at min_palette
    }

    #[test]
    fn list_size_tracks_alpha_log_n() {
        let cfg = PicassoConfig::normal(0);
        // α=2, n=10000, log10: 2 * 4 = 8.
        assert_eq!(cfg.list_size(10_000), 8);
        // α=2, n=1024, log2 ablation: 2 * 10 = 20.
        assert_eq!(cfg.with_log_base(2.0).list_size(1024), 20);
        // Never exceeds the palette.
        let aggr = PicassoConfig::aggressive(0);
        let n = 100;
        assert!(aggr.list_size(n) <= aggr.palette_size(n));
        // Never below 1.
        assert!(cfg.list_size(2) >= 1);
    }

    #[test]
    fn scheme_labels_round_trip() {
        for label in ["greedy", "natural", "random", "lf", "sl", "dlf", "id"] {
            let scheme = ListColoringScheme::from_label(label).expect(label);
            assert_eq!(scheme.label(), label);
        }
        assert_eq!(
            ListColoringScheme::from_label("dynamic"),
            Ok(ListColoringScheme::DynamicGreedy)
        );
        assert!(ListColoringScheme::from_label("bogus").is_err());
        // The removed parallel and autotuned schemes fail with the error
        // that lists what remains.
        for gone in ["jp", "spec", "auto", "jones-plassmann", "speculative"] {
            let err = ListColoringScheme::from_label(gone).unwrap_err();
            assert!(
                err.contains(&format!("'{gone}'")) && err.contains("greedy, natural"),
                "{err}"
            );
        }
    }

    #[test]
    fn builders_compose() {
        let cfg = PicassoConfig::normal(3)
            .with_palette_fraction(0.01)
            .with_alpha(4.5)
            .with_backend(ConflictBackend::Sequential);
        assert_eq!(cfg.palette_fraction, 0.01);
        assert_eq!(cfg.alpha, 4.5);
        assert_eq!(cfg.backend, ConflictBackend::Sequential);
        assert_eq!(cfg.seed, 3);
    }
}
