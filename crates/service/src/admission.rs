//! Admission control: decide a job's fate **before any solve work runs**.
//!
//! The pre-oracle load estimates grown in the core crate make this
//! possible with zero cost per decision: the closed-form candidate-pair
//! estimate [`picasso::estimate_candidate_pairs`] (`≈ m²L²/2P`) needs
//! only the vertex count and the resolved configuration — no list
//! assignment, no oracle query, no probe solve — and from it the
//! controller forecasts the job's worst-case host footprint. Jobs whose
//! forecast exceeds the hard budget are rejected outright (their
//! response carries the numbers); jobs above the soft budget are
//! *demoted* to the lowest priority so small interactive work overtakes
//! them in the queue.

use crate::job::{SolveRequest, Workload};
use picasso::{ListColoringScheme, PicassoConfig};

/// Byte budgets the controller enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Hard ceiling: forecasts above this are rejected.
    pub max_forecast_bytes: usize,
    /// Soft ceiling: forecasts above this are admitted at priority 0.
    pub demote_forecast_bytes: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_forecast_bytes: 256 * 1024 * 1024,
            demote_forecast_bytes: 64 * 1024 * 1024,
        }
    }
}

/// The controller's verdict on one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Under the soft budget: queue at the requested priority.
    Admit {
        /// The forecast that cleared the budgets.
        forecast_bytes: usize,
    },
    /// Between the soft and hard budgets: queue at priority 0.
    Demote {
        /// The forecast that tripped the soft budget.
        forecast_bytes: usize,
    },
    /// Over the hard budget (or unresolvable): do not queue.
    Reject {
        /// Why (budget numbers or the configuration error).
        reason: String,
    },
}

/// Worst-case host bytes one solve of `workload` under `cfg` can hold
/// live at once, from closed-form estimates alone: the encoded input,
/// the first iteration's color lists and bucket index, and — every
/// candidate pessimistically an edge — the COO staging and output CSR.
/// Later iterations run on strictly smaller live sets, so the first
/// iteration dominates.
pub fn forecast_peak_bytes(workload: &Workload, cfg: &PicassoConfig) -> usize {
    let n = workload.num_vertices();
    if n == 0 {
        return 0;
    }
    let palette = cfg.palette_size(n) as usize;
    let list = cfg.list_size(n) as usize;
    let pairs = cfg.candidate_pairs_estimate(n);
    let input = n * workload.input_bytes_per_vertex();
    let lists = n * list * std::mem::size_of::<u32>();
    let index = (n * list + palette + 1) * std::mem::size_of::<u32>();
    let coo = pairs.saturating_mul(8).min(usize::MAX as u64) as usize;
    let csr = pairs.saturating_mul(8).min(usize::MAX as u64) as usize
        + (n + 1) * std::mem::size_of::<usize>();
    input
        .saturating_add(lists)
        .saturating_add(index)
        .saturating_add(coo)
        .saturating_add(csr)
}

/// The **observed** counterpart of [`forecast_peak_bytes`]: the same
/// structural model evaluated on what a finished solve actually did —
/// the real per-iteration live sets, list sizes, bucket indexes (only
/// on an iteration that ran the bucketed engine) and conflict graphs
/// instead of the worst-case every-candidate-an-edge bound (and the max
/// across iterations instead of assuming the first dominates). Line 7's
/// graph is charged with core's own byte counts:
/// the mask path ([`picasso::conflict::mask_path_bytes`]) for an
/// iteration that kept hit masks
/// ([`picasso::IterationStats::conflict_masks`]), else the CSR path
/// ([`picasso::conflict::csr_path_bytes`]), plus the packed oracle
/// replica ([`picasso::IterationStats::replica_bytes`]) of an iteration
/// that packed; beside it, under the greedy scheme, the colouring
/// scratch, its live lists in the form the lists' shape picks on any
/// graph form ([`picasso::listcolor::greedy_scratch_bytes`]: holder sets
/// or position masks). Deterministic and allocator-independent, so it works
/// identically in the CLI, the service, and tests.
///
/// It is a **lower bound** on the solve's peak, not the peak itself: it
/// leaves out the pooled scan arenas (`TaskArena`, one per concurrently
/// running cut) and the static schemes' scratch, so `observed ÷
/// forecast` reads low (`tests/memory.rs` pins how low on one solve).
///
/// Recording `observed ÷ forecast` per served job (see
/// [`crate::ServiceMetrics`]) is the groundwork for the ROADMAP's
/// "calibrate the admission forecast" item: the ratio *is* the
/// correction factor a calibrated controller would fit, and the service
/// surfaces its running aggregate after every batch.
pub fn observed_peak_bytes(
    workload: &Workload,
    cfg: &PicassoConfig,
    result: &picasso::PicassoResult,
) -> usize {
    let n = workload.num_vertices();
    if n == 0 {
        return 0;
    }
    let input = n * workload.input_bytes_per_vertex();
    let mut transient = 0usize;
    for s in &result.iterations {
        let m = s.live_vertices;
        let l = s.list_size as usize;
        let lists = m * l * std::mem::size_of::<u32>();
        // Only the bucketed engine builds a bucket index.
        let index = if picasso::CandidateEngine::bucketed_is_cheaper(s.bucket_pairs_estimate, m) {
            (m * l + s.palette_size as usize + 1) * std::mem::size_of::<u32>()
        } else {
            0
        };
        let graph = if s.conflict_masks {
            picasso::conflict::mask_path_bytes(m, s.conflict_edges as u64, s.mask_bytes)
        } else {
            picasso::conflict::csr_path_bytes(m, s.conflict_edges as u64)
        };
        let line7 = (graph + s.replica_bytes) as usize;
        let color = match cfg.scheme {
            ListColoringScheme::DynamicGreedy => {
                picasso::listcolor::greedy_scratch_bytes(m, s.palette_size, l) as usize
            }
            ListColoringScheme::Static(_) => 0,
        };
        transient = transient.max(lists + index + line7 + color);
    }
    input + transient
}

/// The admission controller.
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// A controller enforcing `config`.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController { config }
    }

    /// The enforced budgets.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Assesses one request. Pure and allocation-light: resolves the
    /// configuration, evaluates the closed-form forecast, compares
    /// against the two budgets. No list is assigned and no oracle edge
    /// is examined on any path, including rejection.
    pub fn assess(&self, request: &SolveRequest) -> AdmissionDecision {
        let cfg = match request.config.effective() {
            Ok(cfg) => cfg,
            Err(e) => {
                return AdmissionDecision::Reject {
                    reason: format!("invalid configuration: {e}"),
                }
            }
        };
        let forecast_bytes = forecast_peak_bytes(&request.workload, &cfg);
        if forecast_bytes > self.config.max_forecast_bytes {
            AdmissionDecision::Reject {
                reason: format!(
                    "forecast {forecast_bytes} B exceeds the {} B admission budget \
                     (n={}, estimated candidate pairs={})",
                    self.config.max_forecast_bytes,
                    request.workload.num_vertices(),
                    cfg.candidate_pairs_estimate(request.workload.num_vertices()),
                ),
            }
        } else if forecast_bytes > self.config.demote_forecast_bytes {
            AdmissionDecision::Demote { forecast_bytes }
        } else {
            AdmissionDecision::Admit { forecast_bytes }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobConfig;

    fn synthetic(n: usize) -> SolveRequest {
        SolveRequest::new(
            format!("n{n}"),
            Workload::SyntheticPauli {
                n,
                qubits: 10,
                seed: 1,
            },
        )
    }

    #[test]
    fn forecast_grows_with_instance_size() {
        let cfg = PicassoConfig::normal(1);
        let small = forecast_peak_bytes(&synthetic(100).workload, &cfg);
        let large = forecast_peak_bytes(&synthetic(10_000).workload, &cfg);
        assert!(large > 20 * small, "{small} -> {large}");
        assert_eq!(
            forecast_peak_bytes(
                &Workload::Pauli { strings: vec![] },
                &PicassoConfig::normal(1)
            ),
            0
        );
    }

    #[test]
    fn decisions_follow_the_two_budgets() {
        let cfg = PicassoConfig::normal(1);
        let mid = forecast_peak_bytes(&synthetic(1000).workload, &cfg);
        let ctl = AdmissionController::new(AdmissionConfig {
            max_forecast_bytes: mid * 4,
            demote_forecast_bytes: mid / 2,
        });
        assert!(matches!(
            ctl.assess(&synthetic(100)),
            AdmissionDecision::Admit { .. }
        ));
        match ctl.assess(&synthetic(1000)) {
            AdmissionDecision::Demote { forecast_bytes } => assert_eq!(forecast_bytes, mid),
            other => panic!("expected demotion, got {other:?}"),
        }
        match ctl.assess(&synthetic(100_000)) {
            AdmissionDecision::Reject { reason } => {
                assert!(reason.contains("admission budget"), "{reason}");
                assert!(reason.contains("candidate pairs"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configuration_is_rejected_with_the_error() {
        let mut req = synthetic(10);
        req.config = JobConfig {
            palette_fraction: Some(2.0),
            ..JobConfig::default()
        };
        match AdmissionController::default().assess(&req) {
            AdmissionDecision::Reject { reason } => {
                assert!(reason.contains("invalid configuration"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mask_form_iterations_are_charged_their_masks_not_a_coo_and_csr() {
        let (n, qubits, seed) = (1024, 24, 5);
        let workload = Workload::SyntheticPauli { n, qubits, seed };
        let strings = crate::job::synthetic_pauli_strings(n, qubits, seed)
            .expect("a valid synthetic workload");
        let set = pauli::EncodedSet::from_strings(&strings);
        let cfg = PicassoConfig::aggressive(1);
        let mut result = picasso::Picasso::new(cfg)
            .solve_pauli(&set)
            .expect("the solve succeeds");
        result.iterations.truncate(1);
        let first = result.iterations[0];
        assert!(
            first.conflict_masks,
            "the dense first iteration keeps masks"
        );
        let masks = observed_peak_bytes(&workload, &cfg, &result);
        result.iterations[0].conflict_masks = false;
        let csr = observed_peak_bytes(&workload, &cfg, &result);
        let (m, edges) = (first.live_vertices, first.conflict_edges as u64);
        let csr_path = picasso::conflict::csr_path_bytes(m, edges);
        let mask_path = picasso::conflict::mask_path_bytes(m, edges, first.mask_bytes);
        // The colouring scratch does not depend on the graph form.
        assert_eq!((csr - masks) as u64, csr_path - mask_path);
        assert!(mask_path < csr_path / 4, "{mask_path} vs {csr_path}");
    }

    #[test]
    fn line7_is_charged_cores_byte_counts_plus_the_packed_replica() {
        // Normal lists on 24 qubits: every iteration packs and keeps hit
        // masks. Each iteration alone, in either graph form, is charged
        // the input, its lists and index, core's count of that graph
        // form, exactly its replica and, under the greedy scheme, core's
        // count of the colouring scratch, the same in either form.
        let (n, qubits, seed) = (1024, 24, 5);
        let workload = Workload::SyntheticPauli { n, qubits, seed };
        let strings = crate::job::synthetic_pauli_strings(n, qubits, seed)
            .expect("a valid synthetic workload");
        let set = pauli::EncodedSet::from_strings(&strings);
        let cfg = PicassoConfig::normal(1);
        let result = picasso::Picasso::new(cfg)
            .solve_pauli(&set)
            .expect("the solve succeeds");
        let static_cfg = PicassoConfig {
            scheme: ListColoringScheme::from_label("natural").unwrap(),
            ..cfg
        };
        let input = n * workload.input_bytes_per_vertex();
        for s in &result.iterations {
            assert!(s.replica_bytes > 0, "iteration {}: packed", s.iteration);
            let (m, edges) = (s.live_vertices, s.conflict_edges as u64);
            // `u32` words of the lists (`m·L`) and, on the bucketed
            // engine, of the index (`m·L + P + 1`).
            let bucketed =
                picasso::CandidateEngine::bucketed_is_cheaper(s.bucket_pairs_estimate, m);
            let index = if bucketed {
                m * s.list_size as usize + 1 + s.palette_size as usize
            } else {
                0
            };
            let words = m * s.list_size as usize + index;
            for conflict_masks in [true, false] {
                let what = format!("iteration {} masks={conflict_masks}", s.iteration);
                let graph = if conflict_masks {
                    picasso::conflict::mask_path_bytes(m, edges, s.mask_bytes)
                } else {
                    picasso::conflict::csr_path_bytes(m, edges)
                };
                let color = picasso::listcolor::greedy_scratch_bytes(
                    m,
                    s.palette_size,
                    s.list_size as usize,
                );
                let mut one = result.clone();
                one.iterations = vec![picasso::IterationStats {
                    conflict_masks,
                    ..*s
                }];
                let line7 = input + 4 * words + (graph + s.replica_bytes) as usize;
                assert_eq!(
                    observed_peak_bytes(&workload, &static_cfg, &one),
                    line7,
                    "{what}"
                );
                assert_eq!(
                    observed_peak_bytes(&workload, &cfg, &one),
                    line7 + color as usize,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn aggressive_jobs_forecast_higher_than_normal() {
        // Aggressive (huge α) means deeper buckets and more candidate
        // pairs — the forecast must reflect the configuration, not just
        // the size.
        let normal = forecast_peak_bytes(&synthetic(2000).workload, &PicassoConfig::normal(1));
        let aggressive =
            forecast_peak_bytes(&synthetic(2000).workload, &PicassoConfig::aggressive(1));
        assert!(aggressive > normal, "{aggressive} vs {normal}");
    }
}
