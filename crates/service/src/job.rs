//! The service's job model: serializable solve requests and responses.
//!
//! A [`SolveRequest`] names a workload (explicit Pauli strings, a
//! deterministic synthetic Pauli set, or a synthetic implicit graph),
//! per-job [`PicassoConfig`] overrides, and a scheduling priority. A
//! [`SolveResponse`] carries the request id back with a [`JobOutcome`]:
//! the solve summary, an admission rejection, or a solver failure.
//!
//! Both sides round-trip through JSONL (one compact JSON document per
//! line) via the vendored `serde_json` shim — the wire format the
//! `picasso-cli serve` subcommand drains and emits. Responses are
//! **deterministic**: the summary contains no timing, so a response
//! served from the result cache is bit-identical to the freshly solved
//! one.

use picasso::{ConflictBackend, ListColoringScheme, PicassoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// What a job asks the service to color.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Explicit Pauli strings (the quantum application's native input):
    /// the service colors the complement of their anticommutation graph.
    Pauli {
        /// One string per vertex (`IXYZ…`), all of equal width.
        strings: Vec<String>,
    },
    /// A deterministic synthetic Pauli instance: `n` random unique
    /// strings on `qubits` qubits drawn from `seed` — the dense-
    /// complement regime the paper stresses, reproducible from three
    /// integers instead of megabytes of strings.
    SyntheticPauli {
        /// Number of strings (vertices).
        n: usize,
        /// Qubits per string.
        qubits: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A synthetic implicit graph: edges are decided by a seeded hash of
    /// the endpoint pair at query time, so the instance is **never
    /// materialized** — an oracle-only workload exercising
    /// [`Picasso::solve_oracle_in`](picasso::Picasso::solve_oracle_in).
    SyntheticGraph {
        /// Vertex count.
        n: usize,
        /// Approximate edge density in `[0, 1]`.
        density: f64,
        /// Hash seed.
        seed: u64,
    },
}

impl Workload {
    /// Vertex count of the instance — known without generating it,
    /// which is what lets admission control run before any work.
    pub fn num_vertices(&self) -> usize {
        match self {
            Workload::Pauli { strings } => strings.len(),
            Workload::SyntheticPauli { n, .. } => *n,
            Workload::SyntheticGraph { n, .. } => *n,
        }
    }

    /// Bytes per vertex the solver's encoded input occupies (the device
    /// upload payload): packed Pauli words for the quantum workloads,
    /// one nominal word for oracle graphs.
    pub fn input_bytes_per_vertex(&self) -> usize {
        let qubits = match self {
            Workload::Pauli { strings } => strings.first().map_or(0, String::len),
            Workload::SyntheticPauli { qubits, .. } => *qubits,
            Workload::SyntheticGraph { .. } => return std::mem::size_of::<u64>(),
        };
        pauli::encode::words_for(qubits) * std::mem::size_of::<u64>()
    }

    /// The canonical JSON form (used both on the wire and as the
    /// content-address hash input).
    pub fn to_json(&self) -> Value {
        match self {
            Workload::Pauli { strings } => json!({
                "type": "pauli",
                "strings": strings.clone(),
            }),
            Workload::SyntheticPauli { n, qubits, seed } => json!({
                "type": "synthetic_pauli",
                "n": *n,
                "qubits": *qubits,
                "seed": *seed,
            }),
            Workload::SyntheticGraph { n, density, seed } => json!({
                "type": "synthetic_graph",
                "n": *n,
                "density": *density,
                "seed": *seed,
            }),
        }
    }

    /// Parses the canonical JSON form.
    pub fn from_json(v: &Value) -> Result<Workload, String> {
        match v["type"].as_str() {
            Some("pauli") => {
                let strings = v["strings"]
                    .as_array()
                    .ok_or("pauli workload needs a strings array")?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "non-string entry in strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let width = strings.first().map_or(0, String::len);
                if strings.iter().any(|s| s.len() != width) {
                    return Err("pauli strings must share one width".into());
                }
                Ok(Workload::Pauli { strings })
            }
            Some("synthetic_pauli") => {
                let n = v["n"].as_u64().ok_or("synthetic_pauli needs n")? as usize;
                let qubits = v["qubits"].as_u64().ok_or("synthetic_pauli needs qubits")? as usize;
                check_synthetic_pauli_size(n, qubits)?;
                Ok(Workload::SyntheticPauli {
                    n,
                    qubits,
                    seed: v["seed"].as_u64().unwrap_or(0),
                })
            }
            Some("synthetic_graph") => {
                let density = v["density"]
                    .as_f64()
                    .ok_or("synthetic_graph needs density")?;
                if !(0.0..=1.0).contains(&density) {
                    return Err(format!("density {density} out of [0, 1]"));
                }
                Ok(Workload::SyntheticGraph {
                    n: v["n"].as_u64().ok_or("synthetic_graph needs n")? as usize,
                    density,
                    seed: v["seed"].as_u64().unwrap_or(0),
                })
            }
            _ => Err("workload.type must be pauli | synthetic_pauli | synthetic_graph".into()),
        }
    }
}

/// The seeded implicit graph behind [`Workload::SyntheticGraph`]: edge
/// membership is a pure hash of `(min(u,v), max(u,v), seed)` compared to
/// the density threshold, so queries are O(1), symmetric, and the graph
/// is never materialized.
pub struct HashOracle {
    n: usize,
    seed: u64,
    /// `density` scaled to the full `u64` range.
    threshold: u64,
}

impl HashOracle {
    /// An `n`-vertex oracle of approximate density `density`.
    pub fn new(n: usize, density: f64, seed: u64) -> HashOracle {
        HashOracle {
            n,
            seed,
            threshold: (density.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
        }
    }

    #[inline]
    fn mix(&self, a: u64, b: u64) -> u64 {
        // splitmix64 over the packed pair, seeded.
        let mut x = (a << 32 | b) ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl graph::EdgeOracle for HashOracle {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn has_edge(&self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        self.mix(a, b) < self.threshold
    }
}

/// Per-job overrides over the service's base [`PicassoConfig`]. Absent
/// fields fall back to [`PicassoConfig::normal`] (or
/// [`PicassoConfig::aggressive`] when `aggressive` is set); the resolved
/// configuration — not the override set — is what the content address
/// hashes, so `{}` and an explicit restatement of the defaults collide
/// onto the same cache entry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Palette fraction override (the paper's `P`, as a fraction).
    pub palette_fraction: Option<f64>,
    /// α override.
    pub alpha: Option<f64>,
    /// Solver seed override (default 1 — jobs are deterministic).
    pub seed: Option<u64>,
    /// Start from the Aggressive preset instead of Normal.
    pub aggressive: bool,
    /// Conflict backend override: `seq`, `par`, `allpairs` or
    /// `device:<MiB>` (the simulated device of that capacity). A device
    /// placement starts the service's degradation ladder: on a genuine
    /// capacity failure the job re-solves on `Parallel`, with the
    /// identical coloring.
    pub backend: Option<String>,
    /// List-coloring scheme override (`greedy`, or a static ordering:
    /// `natural`, `random`, `lf`, `sl`, `dlf`, `id`).
    pub coloring: Option<String>,
    /// Soft wall-clock budget for the job, measured from enqueue. The
    /// solver checks it cooperatively between phases; an expired job
    /// fails with a deadline error instead of occupying a worker.
    /// Deliberately **not** part of the resolved [`PicassoConfig`] (and
    /// therefore not part of the cache fingerprint): the same instance
    /// under different deadlines is the same solve.
    pub deadline_ms: Option<u64>,
}

impl JobConfig {
    /// Resolves the overrides into a full solver configuration.
    pub fn effective(&self) -> Result<PicassoConfig, String> {
        let mut cfg = if self.aggressive {
            PicassoConfig::aggressive(self.seed.unwrap_or(1))
        } else {
            PicassoConfig::normal(self.seed.unwrap_or(1))
        };
        if let Some(f) = self.palette_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return Err(format!("palette_fraction {f} out of (0, 1]"));
            }
            cfg = cfg.with_palette_fraction(f);
        }
        if let Some(a) = self.alpha {
            if !a.is_finite() || a <= 0.0 {
                return Err(format!("alpha {a} must be positive"));
            }
            cfg = cfg.with_alpha(a);
        }
        if let Some(label) = self.backend.as_deref() {
            cfg = cfg.with_backend(ConflictBackend::from_label(label)?);
        }
        if let Some(label) = self.coloring.as_deref() {
            cfg = cfg.with_scheme(ListColoringScheme::from_label(label)?);
        }
        Ok(cfg)
    }

    /// JSON form; only set fields are emitted.
    pub fn to_json(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        if let Some(f) = self.palette_fraction {
            map.insert("palette_fraction".to_string(), Value::from(f));
        }
        if let Some(a) = self.alpha {
            map.insert("alpha".to_string(), Value::from(a));
        }
        if let Some(s) = self.seed {
            map.insert("seed".to_string(), Value::from(s));
        }
        if self.aggressive {
            map.insert("aggressive".to_string(), Value::from(true));
        }
        if let Some(b) = &self.backend {
            map.insert("backend".to_string(), Value::from(b.as_str()));
        }
        if let Some(c) = &self.coloring {
            map.insert("coloring".to_string(), Value::from(c.as_str()));
        }
        if let Some(d) = self.deadline_ms {
            map.insert("deadline_ms".to_string(), Value::from(d));
        }
        Value::Object(map)
    }

    /// Parses the JSON form (missing object → all defaults).
    pub fn from_json(v: &Value) -> Result<JobConfig, String> {
        let cfg = JobConfig {
            palette_fraction: v["palette_fraction"].as_f64(),
            alpha: v["alpha"].as_f64(),
            seed: v["seed"].as_u64(),
            aggressive: v["aggressive"].as_bool().unwrap_or(false),
            backend: v["backend"].as_str().map(str::to_string),
            coloring: v["coloring"].as_str().map(str::to_string),
            deadline_ms: v["deadline_ms"].as_u64(),
        };
        // Fail fast on malformed overrides so the error is attributed at
        // parse time, not on a worker thread.
        cfg.effective()?;
        Ok(cfg)
    }
}

/// One queued unit of work.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Caller-chosen identifier, echoed on the response.
    pub id: String,
    /// Scheduling priority: higher pops first; ties pop in submission
    /// order. Admission may demote this to 0.
    pub priority: u8,
    /// The instance to color.
    pub workload: Workload,
    /// Per-job configuration overrides.
    pub config: JobConfig,
}

impl SolveRequest {
    /// A request with default priority and configuration.
    pub fn new(id: impl Into<String>, workload: Workload) -> SolveRequest {
        SolveRequest {
            id: id.into(),
            priority: 1,
            workload,
            config: JobConfig::default(),
        }
    }

    /// The canonical content identity of the solve this request denotes:
    /// the workload's canonical JSON plus the *resolved* configuration.
    /// The id and priority are deliberately excluded — two differently
    /// named submissions of the same instance and configuration are the
    /// same solve. The cache stores this string alongside each entry and
    /// compares it on every hit, so a 64-bit [`SolveRequest::instance_key`]
    /// collision can never serve another instance's result.
    pub fn instance_fingerprint(&self) -> String {
        let workload = serde_json::to_string(&self.workload.to_json()).expect("canonical json");
        let cfg = self
            .config
            .effective()
            .map(|c| format!("{c:?}"))
            .unwrap_or_else(|e| format!("invalid:{e}"));
        format!("{workload}|{cfg}")
    }

    /// FNV-1a hash of [`SolveRequest::instance_fingerprint`] — the cache
    /// and single-flight slot index (verified against the fingerprint on
    /// lookup).
    pub fn instance_key(&self) -> u64 {
        fnv1a64(self.instance_fingerprint().as_bytes())
    }

    /// The JSONL wire form.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id.clone(),
            "priority": self.priority,
            "workload": self.workload.to_json(),
            "config": self.config.to_json(),
        })
    }

    /// Parses one JSONL line.
    pub fn from_json_line(line: &str) -> Result<SolveRequest, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
        SolveRequest::from_json(&v)
    }

    /// Parses the wire form.
    pub fn from_json(v: &Value) -> Result<SolveRequest, String> {
        let id = v["id"]
            .as_str()
            .ok_or("request needs a string id")?
            .to_string();
        let priority = v["priority"].as_u64().unwrap_or(1).min(u8::MAX as u64) as u8;
        let workload = Workload::from_json(&v["workload"]).map_err(|e| format!("{id}: {e}"))?;
        let config = JobConfig::from_json(&v["config"]).map_err(|e| format!("{id}: {e}"))?;
        Ok(SolveRequest {
            id,
            priority,
            workload,
            config,
        })
    }
}

/// What [`parse_request_lines`] recovered from a JSONL batch: the
/// well-formed requests plus one terminal [`JobOutcome::Malformed`]
/// response per bad line. A malformed line rejects *that line*, never
/// the wave around it.
#[derive(Debug, Default)]
pub struct ParsedRequests {
    /// Requests that parsed and validated.
    pub requests: Vec<SolveRequest>,
    /// One rejection response per malformed line, in line order.
    pub malformed: Vec<SolveResponse>,
}

/// Parses a whole JSONL request file (blank lines and `#` comments
/// allowed). Malformed lines become per-line [`JobOutcome::Malformed`]
/// responses — carrying the 1-based line number and, when the line was
/// at least valid JSON, the request's own id — instead of failing the
/// batch.
pub fn parse_request_lines(text: &str) -> ParsedRequests {
    let mut out = ParsedRequests::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match SolveRequest::from_json_line(line) {
            Ok(req) => out.requests.push(req),
            Err(error) => {
                // Salvage the id when the document parsed as JSON but
                // failed validation, so the caller can still correlate.
                let id = serde_json::from_str(line)
                    .ok()
                    .and_then(|v: Value| v["id"].as_str().map(str::to_string))
                    .unwrap_or_else(|| format!("line-{}", idx + 1));
                out.malformed.push(SolveResponse {
                    id,
                    outcome: JobOutcome::Malformed {
                        line: idx + 1,
                        error,
                    },
                });
            }
        }
    }
    out
}

/// The deterministic result payload of a completed solve. Carries no
/// timing: a cached response must be bit-identical to the fresh one.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveSummary {
    /// Vertices in the instance.
    pub num_vertices: usize,
    /// Colors used (the application's unitary count).
    pub num_colors: u32,
    /// Final color of every vertex.
    pub colors: Vec<u32>,
    /// Solver iterations taken.
    pub iterations: usize,
    /// Candidate pairs the conflict builds enumerated.
    pub candidate_pairs: u64,
}

/// How a job ended.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Solved; the summary is deterministic for the request.
    Solved(SolveSummary),
    /// Refused by admission control before any solve work ran.
    Rejected {
        /// Human-readable refusal (budget numbers included).
        reason: String,
    },
    /// The solver reported an error (e.g. a malformed workload), or the
    /// job was quarantined after exhausting its retry budget.
    Failed {
        /// Rendered error.
        error: String,
    },
    /// The request line never parsed: rejected at intake, one response
    /// per bad line, without failing the rest of the wave.
    Malformed {
        /// 1-based line number in the submitted JSONL batch.
        line: usize,
        /// The parse error.
        error: String,
    },
}

/// A response, correlated to its request by id.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveResponse {
    /// The request's id.
    pub id: String,
    /// The result.
    pub outcome: JobOutcome,
}

impl SolveResponse {
    /// The JSONL wire form. Serving telemetry (cache hits, queue delay)
    /// is deliberately *not* part of the response document — it lives in
    /// the batch metrics — so cached and fresh responses serialize
    /// byte-identically.
    pub fn to_json(&self) -> Value {
        match &self.outcome {
            JobOutcome::Solved(s) => json!({
                "id": self.id.clone(),
                "status": "solved",
                "num_vertices": s.num_vertices,
                "num_colors": s.num_colors,
                "colors": s.colors.clone(),
                "iterations": s.iterations,
                "candidate_pairs": s.candidate_pairs,
            }),
            JobOutcome::Rejected { reason } => json!({
                "id": self.id.clone(),
                "status": "rejected",
                "reason": reason.clone(),
            }),
            JobOutcome::Failed { error } => json!({
                "id": self.id.clone(),
                "status": "failed",
                "error": error.clone(),
            }),
            JobOutcome::Malformed { line, error } => json!({
                "id": self.id.clone(),
                "status": "malformed",
                "line": *line,
                "error": error.clone(),
            }),
        }
    }

    /// One compact JSONL line. Serialization of these documents cannot
    /// fail in practice; if the shim ever refuses one, the caller still
    /// gets a well-formed failed line rather than a panic.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_json()).unwrap_or_else(|e| {
            format!(
                "{{\"id\":\"{}\",\"status\":\"failed\",\"error\":\"unserializable response: {e}\"}}",
                self.id.replace(['"', '\\'], "_")
            )
        })
    }
}

/// Rejects synthetic-Pauli shapes that cannot exist: there are only
/// `4^qubits` distinct strings, and the generator asserts (panics) when
/// asked for more. Checked at request parse time *and* again before
/// generation, so an impossible workload yields a `Failed` response —
/// never a panicking worker thread.
pub fn check_synthetic_pauli_size(n: usize, qubits: usize) -> Result<(), String> {
    // 4^qubits overflows usize past 31 qubits, where any practical n fits.
    if qubits < 32 && n > 4usize.pow(qubits as u32) {
        return Err(format!(
            "synthetic_pauli cannot draw {n} distinct strings on {qubits} qubits \
             (only {} exist)",
            4usize.pow(qubits as u32)
        ));
    }
    Ok(())
}

/// Generates the Pauli strings of a [`Workload::SyntheticPauli`]
/// instance (deterministic in the workload's seed). Fails — rather than
/// panicking — on impossible shapes.
pub fn synthetic_pauli_strings(
    n: usize,
    qubits: usize,
    seed: u64,
) -> Result<Vec<pauli::PauliString>, String> {
    check_synthetic_pauli_size(n, qubits)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(pauli::string::random_unique_set(n, qubits, &mut rng))
}

/// 64-bit FNV-1a — the service's content-address hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SolveRequest {
        SolveRequest {
            id: "job-1".into(),
            priority: 3,
            workload: Workload::Pauli {
                strings: vec!["XX".into(), "YY".into(), "ZZ".into()],
            },
            config: JobConfig {
                alpha: Some(2.5),
                ..JobConfig::default()
            },
        }
    }

    #[test]
    fn requests_round_trip_through_jsonl() {
        for req in [
            sample_request(),
            SolveRequest::new(
                "s1",
                Workload::SyntheticPauli {
                    n: 64,
                    qubits: 8,
                    seed: 7,
                },
            ),
            SolveRequest::new(
                "g1",
                Workload::SyntheticGraph {
                    n: 40,
                    density: 0.25,
                    seed: 3,
                },
            ),
        ] {
            let line = serde_json::to_string(&req.to_json()).unwrap();
            let back = SolveRequest::from_json_line(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn request_parsing_rejects_malformed_input() {
        assert!(SolveRequest::from_json_line("{").is_err());
        assert!(SolveRequest::from_json_line(r#"{"id": "x"}"#).is_err());
        assert!(SolveRequest::from_json_line(
            r#"{"id": "x", "workload": {"type": "pauli", "strings": ["XX", "YYY"]}}"#
        )
        .is_err());
        assert!(SolveRequest::from_json_line(
            r#"{"id": "x", "workload": {"type": "synthetic_graph", "n": 4, "density": 7.0}}"#
        )
        .is_err());
        assert!(SolveRequest::from_json_line(
            r#"{"id": "x", "workload": {"type": "synthetic_pauli", "n": 4, "qubits": 2},
                "config": {"backend": "warp"}}"#
        )
        .is_err());
    }

    #[test]
    fn impossible_synthetic_pauli_shapes_are_rejected_not_panicked() {
        // Only 4^qubits distinct strings exist; asking for more must be
        // an error at parse time and at generation time — never a panic.
        assert!(check_synthetic_pauli_size(4, 1).is_ok());
        assert!(check_synthetic_pauli_size(5, 1).is_err());
        assert!(check_synthetic_pauli_size(2, 0).is_err());
        assert!(
            check_synthetic_pauli_size(usize::MAX, 32).is_ok(),
            "4^32 > usize range"
        );
        assert!(synthetic_pauli_strings(20, 1, 7).is_err());
        assert_eq!(synthetic_pauli_strings(4, 1, 7).unwrap().len(), 4);
        let err = SolveRequest::from_json_line(
            r#"{"id": "x", "workload": {"type": "synthetic_pauli", "n": 20, "qubits": 1}}"#,
        )
        .unwrap_err();
        assert!(err.contains("distinct strings"), "{err}");
    }

    #[test]
    fn instance_key_is_content_addressed() {
        let a = sample_request();
        // Same content, different id/priority: same key.
        let mut b = a.clone();
        b.id = "something-else".into();
        b.priority = 9;
        assert_eq!(a.instance_key(), b.instance_key());
        // Different workload or config: different key.
        let mut c = a.clone();
        c.workload = Workload::Pauli {
            strings: vec!["XX".into(), "YY".into(), "ZX".into()],
        };
        assert_ne!(a.instance_key(), c.instance_key());
        let mut d = a.clone();
        d.config.alpha = Some(3.0);
        assert_ne!(a.instance_key(), d.instance_key());
        // Defaults spelled out resolve to the default key.
        let mut e = a.clone();
        e.config.seed = Some(1);
        assert_eq!(a.instance_key(), e.instance_key());
    }

    #[test]
    fn hash_oracle_is_symmetric_and_tracks_density() {
        let o = HashOracle::new(200, 0.3, 5);
        let mut edges = 0u64;
        for u in 0..200 {
            assert!(!graph::EdgeOracle::has_edge(&o, u, u));
            for v in (u + 1)..200 {
                assert_eq!(
                    graph::EdgeOracle::has_edge(&o, u, v),
                    graph::EdgeOracle::has_edge(&o, v, u)
                );
                edges += graph::EdgeOracle::has_edge(&o, u, v) as u64;
            }
        }
        let density = edges as f64 / (200.0 * 199.0 / 2.0);
        assert!((density - 0.3).abs() < 0.03, "density {density}");
        // Different seeds give different graphs.
        let o2 = HashOracle::new(200, 0.3, 6);
        let differs = (0..200).any(|u| {
            (u + 1..200).any(|v| {
                graph::EdgeOracle::has_edge(&o, u, v) != graph::EdgeOracle::has_edge(&o2, u, v)
            })
        });
        assert!(differs);
    }

    #[test]
    fn responses_serialize_compactly_and_deterministically() {
        let resp = SolveResponse {
            id: "job-1".into(),
            outcome: JobOutcome::Solved(SolveSummary {
                num_vertices: 3,
                num_colors: 2,
                colors: vec![0, 1, 0],
                iterations: 1,
                candidate_pairs: 3,
            }),
        };
        let line = resp.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(line, resp.to_json_line(), "deterministic serialization");
        let doc = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["status"], "solved");
        assert_eq!(doc["num_colors"], 2);
    }

    #[test]
    fn effective_config_applies_overrides() {
        let cfg = JobConfig {
            palette_fraction: Some(0.2),
            alpha: Some(4.0),
            seed: Some(9),
            aggressive: false,
            backend: Some("seq".into()),
            coloring: Some("sl".into()),
            deadline_ms: None,
        }
        .effective()
        .unwrap();
        assert_eq!(cfg.palette_fraction, 0.2);
        assert_eq!(cfg.alpha, 4.0);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.backend, ConflictBackend::Sequential);
        assert_eq!(cfg.scheme.label(), "sl");
        let aggressive = JobConfig {
            aggressive: true,
            ..JobConfig::default()
        }
        .effective()
        .unwrap();
        assert_eq!(aggressive.palette_fraction, 0.03);
    }

    #[test]
    fn coloring_override_round_trips_and_distinguishes_the_cache_key() {
        let mut req = sample_request();
        req.config.coloring = Some("dlf".into());
        let line = serde_json::to_string(&req.to_json()).unwrap();
        let back = SolveRequest::from_json_line(&line).unwrap();
        assert_eq!(back, req);
        // A different coloring scheme is a different solve.
        assert_ne!(req.instance_key(), sample_request().instance_key());
        // Unknown schemes are rejected at parse time.
        assert!(SolveRequest::from_json_line(
            r#"{"id": "x", "workload": {"type": "synthetic_pauli", "n": 4, "qubits": 2},
                "config": {"coloring": "rainbow"}}"#
        )
        .is_err());
        // So are the removed parallel and autotuned schemes, with the
        // label parser's error naming the schemes that remain.
        for gone in ["jp", "spec", "auto"] {
            let line = format!(
                r#"{{"id": "x", "workload": {{"type": "synthetic_pauli", "n": 4, "qubits": 2}},
                    "config": {{"coloring": "{gone}"}}}}"#
            );
            let err = SolveRequest::from_json_line(&line).unwrap_err();
            assert!(
                err.contains(&format!("unknown coloring scheme '{gone}'"))
                    && err.contains("expected greedy, natural"),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_request_lines_recovers_per_line_from_malformed_input() {
        let text = format!(
            "# a comment\n\n{}\nnot json\n{{\"id\": \"named\", \"workload\": 3}}\n",
            serde_json::to_string(&sample_request().to_json()).unwrap()
        );
        let parsed = parse_request_lines(&text);
        // The good line still parses — a bad neighbor never fails the batch.
        assert_eq!(parsed.requests.len(), 1);
        assert_eq!(parsed.requests[0].id, "job-1");
        assert_eq!(parsed.malformed.len(), 2);
        // Unparseable JSON: synthesized id carries the line number.
        assert_eq!(parsed.malformed[0].id, "line-4");
        assert!(matches!(
            &parsed.malformed[0].outcome,
            JobOutcome::Malformed { line: 4, .. }
        ));
        // Valid JSON failing validation: the document's own id survives.
        assert_eq!(parsed.malformed[1].id, "named");
        assert!(matches!(
            &parsed.malformed[1].outcome,
            JobOutcome::Malformed { line: 5, .. }
        ));
        // The wire form names the status and line.
        let doc = serde_json::from_str(&parsed.malformed[0].to_json_line()).unwrap();
        assert_eq!(doc["status"], "malformed");
        assert_eq!(doc["line"], 4);
        // A clean file reports nothing malformed.
        let clean = parse_request_lines("# only comments\n\n");
        assert!(clean.requests.is_empty() && clean.malformed.is_empty());
    }

    #[test]
    fn device_backend_specs_parse_and_validate() {
        let dev = JobConfig {
            backend: Some("device:64".into()),
            ..JobConfig::default()
        }
        .effective()
        .unwrap();
        assert_eq!(
            dev.backend,
            ConflictBackend::Device {
                capacity: 64 * 1024 * 1024,
            }
        );
        for bad in [
            "device:",
            "device:0",
            "device:nope",
            "device:17592186044416",
            "multi:4",
            "multi:0:16",
            "multi:999:16",
            "multi:2:0",
            "multi:4:16",
            "warp",
        ] {
            let err = JobConfig {
                backend: Some(bad.into()),
                ..JobConfig::default()
            }
            .effective();
            assert!(err.is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn a_multi_backend_line_comes_back_malformed() {
        // `multi:` is no backend: its JSONL line is a per-line
        // rejection naming the backends there are.
        let parsed = parse_request_lines(concat!(
            r#"{"id": "fleet", "workload": {"type": "synthetic_pauli", "n": 40, "qubits": 8},"#,
            r#" "config": {"backend": "multi:2:16"}}"#,
        ));
        assert!(parsed.requests.is_empty());
        match &parsed.malformed[..] {
            [SolveResponse {
                id,
                outcome: JobOutcome::Malformed { line: 1, error },
            }] => {
                assert_eq!(id, "fleet");
                assert!(error.contains("unknown backend"), "{error}");
                assert!(error.contains("device:<MiB>"), "{error}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deadline_round_trips_but_never_enters_the_cache_identity() {
        let mut req = sample_request();
        req.config.deadline_ms = Some(250);
        let line = serde_json::to_string(&req.to_json()).unwrap();
        let back = SolveRequest::from_json_line(&line).unwrap();
        assert_eq!(back, req);
        // Deadlines shape scheduling, not results: same fingerprint and
        // key with or without one, so cached entries stay shareable.
        assert_eq!(
            req.instance_fingerprint(),
            sample_request().instance_fingerprint()
        );
        assert_eq!(req.instance_key(), sample_request().instance_key());
    }
}
