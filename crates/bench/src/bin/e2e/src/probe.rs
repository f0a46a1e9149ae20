//! The host-speed probe.
//!
//! The measuring host is shared: its speed on floating-point code swings
//! by tens of percent within seconds while steal time stays near zero.
//! The probe is a fixed floating-point workload owned by the benchmark
//! (Box-Muller transforms: `ln`, `sqrt`, `sin`, `cos`). Timed right
//! before and right after a measurement, it tells how fast the host ran
//! at that moment, and host times are scaled to a reference speed. It
//! never runs code under test, so a change to the simulator moves a
//! scaled time exactly as much as the raw one.

use std::time::Instant;

/// Probe time that defines the reference host speed. On a quiet 2.1 GHz
/// Xeon core the probe takes about 2 ms, so scaled times there read close
/// to raw ones.
pub const REF_S: f64 = 2e-3;
const ITERS: u64 = 60_000;

/// Times the probe on `threads` threads at once (the engine's worker
/// count) and returns the mean per-thread time, s.
pub fn seconds(threads: usize) -> f64 {
    let pass = || {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u1 = ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let u2 = (x & 0xffff) as f64 / 65_536.0;
            let r = (-2.0 * u1.ln()).sqrt();
            let phase = std::f64::consts::TAU * u2;
            acc += r * phase.cos() + r * phase.sin();
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(pass)).collect();
        let total: f64 = handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum();
        total / threads as f64
    })
}

/// The factor that scales a host time measured between two probes to
/// the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REF_S / ((before + after) / 2.0)
}
