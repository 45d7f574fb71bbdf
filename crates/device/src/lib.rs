//! A simulated memory-limited accelerator.
//!
//! The paper's GPU contribution (§V, Algorithm 3) is fundamentally a
//! *memory-management policy* for a 40 GB device: budget allocations,
//! launch a one-thread-per-candidate-pair kernel, and decide where to
//! assemble the CSR based on what fits. `DeviceSim` reproduces that
//! policy faithfully on the host:
//!
//! * a hard byte budget with OOM failures ([`DeviceError::OutOfMemory`]),
//!   charged through RAII [`DeviceLease`] reservations
//!   ([`DeviceSim::reserve`]) while the caller keeps the simulated data
//!   in its own recycled host arrays,
//! * explicit host↔device transfer accounting ([`DeviceSim::note_h2d`],
//!   [`DeviceSim::note_d2h`]),
//! * weighted "kernel launches" ([`DeviceSim::launch_weighted_span`])
//!   that fan pair-balanced blocks out over the rayon thread pool,
//! * seeded fault injection at the reserve and launch sites
//!   ([`FaultPlan`]).
//!
//! What is *not* simulated is HBM bandwidth — absolute speeds are host
//! speeds. The decision logic (which instances fit, when CSR assembly
//! falls back to the host, when the run OOMs — Fig. 2's capacity line)
//! is preserved exactly.

pub mod fault;
pub mod sim;

pub use fault::{FaultPlan, FaultSite, FAULT_SITES};
pub use sim::{balanced_weight_cuts, DeviceError, DeviceLease, DeviceSim, DeviceStats};

/// Capacity presets, scaled-down analogues of real devices.
pub mod presets {
    /// The paper's NVIDIA A100: 40 GB of HBM.
    pub const A100_40GB: usize = 40 * 1024 * 1024 * 1024;

    /// Default simulated capacity used by the scaled-down experiments,
    /// calibrated against the default Fig. 2 dataset scale (1/64) so the
    /// crossover lands where the paper's does: the large tier's conflict
    /// edge lists outgrow the device at α = 2 (they need α = 1, and the
    /// very largest instance fails even then), while every medium
    /// instance fits.
    pub const SCALED_DEFAULT: usize = 64 * 1024 * 1024;
}
