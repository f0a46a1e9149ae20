//! Full custom-core throughput and detection-latency micro-benchmarks:
//! how much air time the cycle-accurate model processes per wall-clock
//! second, and the cost of the pieces (energy differentiator, trigger
//! builder, jam controller) individually, and of the noise that feeds it.

use rjam_bench::harness::Harness;
use rjam_channel::NoiseSource;
use rjam_fpga::energy::EnergyDifferentiator;
use rjam_fpga::{CoreConfig, DspCore, JamController, TriggerMode, TriggerSource};
use rjam_sdr::complex::IqI16;
use rjam_sdr::rng::Rng;
use std::hint::black_box;

fn noise_stream(n: usize) -> Vec<IqI16> {
    let mut rng = Rng::seed_from(3);
    (0..n)
        .map(|_| {
            IqI16::new(
                (rng.gaussian() * 1000.0) as i16,
                (rng.gaussian() * 1000.0) as i16,
            )
        })
        .collect()
}

fn main() {
    let stream = noise_stream(25_000); // 1 ms of air time at 25 MSPS
    let elems = stream.len() as u64;
    let mut h = Harness::new("dsp_core");

    let cfg = CoreConfig {
        coeff_i: [3; 64],
        coeff_q: [-2; 64],
        xcorr_threshold: 100_000,
        energy_high_db: 10.0,
        trigger_mode: TriggerMode::Any(vec![TriggerSource::Xcorr, TriggerSource::EnergyHigh]),
        uptime_samples: 250,
        enabled: true,
        ..CoreConfig::default()
    };
    let mut core = DspCore::new();
    core.configure(&cfg);
    h.bench_throughput("full_core_1ms_air", "", elems, || {
        let mut active = 0u32;
        for &s in &stream {
            active += u32::from(core.process(black_box(s)).tx.is_some());
        }
        // Host-side register poll: publishes the core's counter deltas
        // so the bench record carries per-iteration work counts.
        core.flush_obs();
        black_box(active)
    });

    let mut det = EnergyDifferentiator::new();
    det.set_threshold_high_db(10.0);
    h.bench_throughput("energy_differentiator_1ms_air", "", elems, || {
        let mut hits = 0u32;
        for &s in &stream {
            hits += u32::from(det.push(black_box(s)).trigger_high);
        }
        black_box(hits)
    });

    let mut ctl = JamController::new();
    ctl.set_continuous(true);
    h.bench_throughput("jam_controller_wgn_1ms_air", "", elems, || {
        let mut acc = 0i64;
        for &s in &stream {
            if let Some(tx) = ctl.tick(false, black_box(s)) {
                acc += tx.i as i64;
            }
        }
        black_box(acc)
    });

    // The `channel` layer's ways to the detector input, at the
    // false-alarm floor's noise power (20 dB under the 0.02 RX level):
    // f64 noise then the ADC quantizer (the WiMAX path), the ADC-domain
    // generator the detection and energy false-alarm streams use (both
    // produce the same i16 samples), and the sign stream correlator-only
    // false-alarm streams use (the same signs).
    let noise_power = 0.02 / 100.0;
    let mut f64_src = NoiseSource::new(noise_power, Rng::seed_from(5));
    let mut f64_out: Vec<IqI16> = Vec::with_capacity(stream.len());
    h.bench_throughput("noise_f64_1ms_air", "", elems, || {
        f64_out.clear();
        f64_out.extend((0..stream.len()).map(|_| IqI16::from_cf64(f64_src.next_sample())));
        black_box(f64_out.len())
    });
    let mut adc_src = NoiseSource::new(noise_power, Rng::seed_from(5));
    let mut adc_out: Vec<IqI16> = Vec::with_capacity(stream.len());
    h.bench_throughput("noise_adc_1ms_air", "", elems, || {
        adc_out.clear();
        adc_src.adc_noise(stream.len(), &mut adc_out);
        black_box(adc_out.len())
    });
    let mut signs_src = NoiseSource::new(noise_power, Rng::seed_from(5));
    h.bench_throughput("noise_signs_1ms_air", "", elems, || {
        adc_out.clear();
        signs_src.adc_noise_signs(stream.len(), &mut adc_out);
        black_box(adc_out.len())
    });

    // Personality switch: the register-level reconfiguration path.
    let mut core = DspCore::new();
    let mut cfg_a = CoreConfig {
        uptime_samples: 2500,
        enabled: true,
        ..CoreConfig::default()
    };
    let mut cfg_b = cfg_a.clone();
    cfg_b.uptime_samples = 250;
    core.configure(&cfg_a);
    cfg_a.delay_samples = 0;
    h.bench("personality_switch_registers", "", || {
        black_box(core.configure(black_box(&cfg_b)));
        black_box(core.configure(black_box(&cfg_a)));
    });

    h.finish();
}
