//! Algorithm 3 under pressure: solve the same instance on simulated
//! devices of shrinking capacity and watch CSR assembly move from device
//! to host, then the build run out of memory entirely — the behaviour
//! behind Fig. 2's capacity line.
//!
//! ```sh
//! cargo run --release --example memory_budget
//! ```

use pauli::EncodedSet;
use picasso::{ConflictBackend, Picasso, PicassoConfig, SolveError};
use qchem::MoleculeSpec;

fn main() {
    let spec = MoleculeSpec::by_name("H4 1D 631g").unwrap();
    let strings = spec.generate(0.05, 1); // ~2.1k vertices
    let set = EncodedSet::from_strings(&strings);
    println!("instance: {} at |V| = {}\n", spec.name, strings.len());

    // Every capacity that completes must give the same coloring: the
    // device build is bit-identical wherever the CSR is assembled.
    let mut colors = Vec::new();
    let mut failed = false;
    for capacity_mib in [64usize, 8, 4, 2, 1] {
        let cfg = PicassoConfig::normal(1).with_backend(ConflictBackend::Device {
            capacity: capacity_mib * 1024 * 1024,
        });
        match Picasso::new(cfg).solve_pauli(&set) {
            Ok(r) => {
                let on_device = r
                    .iterations
                    .iter()
                    .filter(|s| s.csr_on_device == Some(true))
                    .count();
                let stats = r.device_stats.unwrap();
                println!(
                    "{capacity_mib:>3} MiB: ok — {} colors, {}/{} iterations assembled CSR on-device, peak device use {}",
                    r.num_colors,
                    on_device,
                    r.iterations.len(),
                    memtrack::format_bytes(stats.peak_bytes),
                );
                colors.push(r.num_colors);
            }
            Err(SolveError::DeviceOom(e)) => {
                println!("{capacity_mib:>3} MiB: {e}");
            }
            Err(e) => {
                println!("{capacity_mib:>3} MiB: unexpected failure: {e}");
                failed = true;
            }
        }
    }
    println!("\nsmaller devices force host CSR assembly, then fail outright —");
    println!("the same degradation the paper reports against the 40 GB A100.");
    if colors.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("color counts differ across capacities: {colors:?}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
