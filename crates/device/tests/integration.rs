//! Device-simulation integration: a realistic reserve → upload → kernel
//! → download pipeline with budget churn and OOM recovery.

use device::{DeviceError, DeviceSim};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn pipeline_computes_and_accounts() {
    let dev = DeviceSim::new(1 << 20);
    let input: Vec<u32> = (0..1000).collect();
    let bytes = std::mem::size_of_val(input.as_slice());
    let lease = dev.reserve(bytes).unwrap();
    dev.note_h2d(bytes);

    // Kernel: sum of squares over unit-weight blocks of the input.
    let acc = AtomicU64::new(0);
    dev.launch_weighted_span(&vec![1; input.len()], 0, 8, |_b, range| {
        let sum: u64 = input[range].iter().map(|&v| v as u64 * v as u64).sum();
        acc.fetch_add(sum, Ordering::Relaxed);
    })
    .unwrap();
    let expected: u64 = (0..1000u64).map(|v| v * v).sum();
    assert_eq!(acc.load(Ordering::Relaxed), expected);

    dev.note_d2h(lease.size_bytes());
    drop(lease);

    let stats = dev.stats();
    assert_eq!(stats.h2d_bytes, 4000);
    assert_eq!(stats.d2h_bytes, 4000);
    assert_eq!(stats.kernel_launches, 1);
    assert_eq!((stats.used_bytes, stats.peak_bytes), (0, 4000));
}

#[test]
fn budget_churn_never_leaks() {
    let dev = DeviceSim::new(10_000);
    for round in 0..50 {
        let a = dev.reserve(4000).unwrap();
        let b = dev.reserve(4000).unwrap();
        assert_eq!(dev.used_bytes(), 8000, "round {round}");
        drop(a);
        let c = dev.reserve(5000).unwrap();
        assert_eq!(dev.used_bytes(), 9000);
        drop(b);
        drop(c);
        assert_eq!(dev.used_bytes(), 0);
    }
    assert_eq!(dev.stats().peak_bytes, 9000);
}

#[test]
fn oom_is_recoverable() {
    let dev = DeviceSim::new(1000);
    let hold = dev.reserve(900).unwrap();
    match dev.reserve(200) {
        Err(DeviceError::OutOfMemory {
            requested,
            available,
        }) => {
            assert_eq!(requested, 200);
            assert_eq!(available, 100);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    drop(hold);
    // After freeing, the same request succeeds: failed reservations must
    // not poison the budget.
    assert!(dev.reserve(200).is_ok());
}

#[test]
fn clone_shares_the_budget() {
    let dev = DeviceSim::new(1000);
    let dev2 = dev.clone();
    let _a = dev.reserve(600).unwrap();
    assert_eq!(dev2.used_bytes(), 600);
    assert!(dev2.reserve(600).is_err());
}
