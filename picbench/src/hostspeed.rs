//! Host-speed normalisation.
//!
//! On a shared host the same solve can take twice as long a few minutes
//! later: neighbours slow the cores down, and the slowdown is on-CPU (the
//! thread is not descheduled, it runs slower), so neither CPU time nor
//! more samples remove it. A fixed reference kernel timed in the same run
//! slows down with the host and not with the code under test: the ratio
//! of the two holds to a few percent while either alone swings by tens of
//! percent. Every timing the benchmark reports is therefore multiplied by
//! `nominal / measured` of the reference samples taken just before and
//! just after it, i.e. expressed in milliseconds of a host running the
//! reference at its nominal speed. The raw values and the reference
//! timings are kept in the record's details.
//!
//! The kernel is benchmark-owned code (generate 2^19 xorshift words, sort
//! them), so no change to the library can move it. It runs on one thread:
//! measured over four minutes, its ratio to the `Parallel` solve held as
//! well as the ratio to a copy of it running on every thread at once.

use crate::stats::median;
use std::time::Instant;

/// Reference words sorted per kernel call (4 MiB, past the L2 caches).
const WORDS: usize = 1 << 19;
/// Kernel time the normalisation scales to, in ms (its typical time on
/// the 2-core host the bounds were sized on).
pub const NOMINAL_MS: f64 = 12.0;
/// Operation time between reference samples, in seconds.
const SAMPLE_EVERY_S: f64 = 0.1;

/// Reference-kernel samples for one run.
pub struct HostSpeed {
    buf: Vec<u64>,
    ref_ms: Vec<f64>,
    since_sample_s: f64,
}

fn kernel(buf: &mut Vec<u64>) -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    buf.clear();
    for _ in 0..WORDS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        buf.push(s);
    }
    buf.sort_unstable();
    buf[WORDS / 2]
}

/// Mean of the reference samples on either side of `epoch`.
fn bracket(refs: &[f64], epoch: usize) -> f64 {
    let before = refs[epoch.clamp(1, refs.len()) - 1];
    let after = refs.get(epoch).copied().unwrap_or(before);
    (before + after) / 2.0
}

impl HostSpeed {
    /// Allocates the kernel buffer and takes a first sample.
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed {
            buf: Vec::with_capacity(WORDS),
            ref_ms: Vec::new(),
            since_sample_s: 0.0,
        };
        h.sample();
        h
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel(&mut self.buf));
        self.ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.since_sample_s = 0.0;
    }

    /// Notes `secs` of measured operations and samples the kernel once
    /// enough of them have passed since the last sample.
    pub fn after(&mut self, secs: f64) {
        self.since_sample_s += secs;
        if self.since_sample_s >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// The current epoch: operations timed now fall between reference
    /// samples `epoch - 1` and `epoch`.
    pub fn epoch(&self) -> usize {
        self.ref_ms.len()
    }

    /// Factor for a timing taken in `epoch`.
    pub fn factor(&self, epoch: usize) -> f64 {
        NOMINAL_MS / bracket(&self.ref_ms, epoch)
    }

    /// The reference timings, for the record's details.
    pub fn details(&self) -> serde_json::Value {
        serde_json::json!({
            "samples": self.ref_ms.len(),
            "ref_ms": median(&self.ref_ms),
            "factor": NOMINAL_MS / median(&self.ref_ms),
        })
    }
}
