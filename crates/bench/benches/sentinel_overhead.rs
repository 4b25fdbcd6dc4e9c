//! Cost of the analog drift sentinel on the decode hot path: batched
//! tokens/s through a P-DAC backend with no sentinel, with it sampling
//! at its default rate, and sampling every operation, on a fixed shape
//! (hidden 64, 2 layers, 4 heads, 4 prompt + 100 generated tokens,
//! batch 8, 7 alternating trials). Emits `BENCH_sentinel.json` with the
//! gated `sentinel_overhead` for off and sampled; the default rate must
//! cost under 3% tokens/s. Full-rate shadowing on a saturated box costs
//! whatever the scheduler decides (~20–35% on one core): not gated.

use pdac_bench::decode::{
    decode_secs, interleave, overhead_records, paired_overhead, prompt_tokens, write_bench,
    DecodeShape,
};
use pdac_nn::AnalogGemm;
use pdac_verify::sentinel::{Sentinel, SentinelConfig, DEFAULT_RATE};

const SHAPE: DecodeShape = DecodeShape::of([64, 2, 4, 4, 100]);
const BATCH: usize = 8;
const TRIALS: usize = 7;
/// Budget for the default-rate overhead fraction.
const MAX_OVERHEAD: f64 = 0.03;
const MODES: [&str; 3] = ["off", "sampled", "full"];
/// Sampling rate per mode (`None` = no sentinel).
const RATES: [Option<f64>; 3] = [None, Some(DEFAULT_RATE), Some(1.0)];

fn main() {
    let model = SHAPE.model("sentinel-bench");
    let pdac = pdac_core::pdac::PDac::with_optimal_approx(8).expect("pdac8");
    let backend = AnalogGemm::new(pdac, "pdac8");
    let prompt = prompt_tokens(SHAPE.hidden, BATCH, SHAPE.prompt, 0, 11);
    // Metrics stay on in every mode so the only delta is the sentinel.
    pdac_telemetry::enable();
    pdac_telemetry::set_tracing(false);
    decode_secs(&model, &backend, &prompt, 1); // untimed warm pass
    let times = interleave(TRIALS, MODES.len(), |i| {
        let config = |rate| SentinelConfig {
            rate,
            ..SentinelConfig::default()
        };
        let sentinel = RATES[i].map(|rate| Sentinel::install(config(rate)));
        let elapsed = decode_secs(&model, &backend, &prompt, SHAPE.gen);
        if let Some(stats) = sentinel.map(|handle| handle.finish()) {
            assert!(
                stats.alerts == 0,
                "clean pdac8 run raised alerts: {stats:?}"
            );
        }
        elapsed
    });
    pdac_telemetry::health::reset();
    pdac_telemetry::disable();

    let tokens = (BATCH * (SHAPE.prompt + SHAPE.gen)) as f64;
    let records = overhead_records("sentinel_overhead", &MODES, 2, &times, tokens, BATCH);
    let doc = SHAPE.doc("sentinel_overhead", records);
    write_bench("BENCH_sentinel.json", doc);

    let sampled = paired_overhead(&times[1], &times[0]);
    let (pct, budget) = (sampled * 100.0, MAX_OVERHEAD * 100.0);
    assert!(sampled < MAX_OVERHEAD, "default rate costs {pct:.2}%");
    println!("sentinel_overhead: default rate {pct:.2}% < {budget:.2}% budget OK");
}
