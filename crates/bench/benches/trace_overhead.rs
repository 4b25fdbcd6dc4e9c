//! Cost of observability on the decode hot path: batched tokens/s with
//! telemetry off, metrics only (histograms, no span events) and full
//! tracing, on a fixed shape (hidden 128, 2 layers, 4 heads, 4 prompt +
//! 24 generated tokens, batch 8, 5 alternating trials). Emits
//! `BENCH_trace.json` with the gated `trace_overhead` per mode; full
//! tracing must cost under 5% tokens/s.

use pdac_bench::decode::{
    decode_secs, interleave, overhead_records, paired_overhead, prompt_tokens, write_bench,
    DecodeShape,
};
use pdac_nn::ExactGemm;

const SHAPE: DecodeShape = DecodeShape::of([128, 2, 4, 4, 24]);
const BATCH: usize = 8;
const TRIALS: usize = 5;
/// Budget for the full-tracing overhead fraction.
const MAX_OVERHEAD: f64 = 0.05;
const MODES: [&str; 3] = ["off", "metrics", "full"];

fn main() {
    let model = SHAPE.model("trace-bench");
    let prompt = prompt_tokens(SHAPE.hidden, BATCH, SHAPE.prompt, 0, 11);
    // A warm pass (scratch + allocator) outside the timed trials.
    pdac_telemetry::disable();
    decode_secs(&model, &ExactGemm, &prompt, 1);
    let times = interleave(TRIALS, MODES.len(), |i| {
        if MODES[i] == "off" {
            pdac_telemetry::disable();
        } else {
            pdac_telemetry::enable();
            pdac_telemetry::set_tracing(MODES[i] == "full");
        }
        decode_secs(&model, &ExactGemm, &prompt, SHAPE.gen)
    });
    pdac_telemetry::disable();

    let tokens = (BATCH * (SHAPE.prompt + SHAPE.gen)) as f64;
    let records = overhead_records("trace_overhead", &MODES, 3, &times, tokens, BATCH);
    let doc = SHAPE.doc("trace_overhead", records);
    write_bench("BENCH_trace.json", doc);

    let full = paired_overhead(&times[2], &times[0]);
    let (pct, budget) = (full * 100.0, MAX_OVERHEAD * 100.0);
    assert!(full < MAX_OVERHEAD, "full tracing costs {pct:.2}%");
    println!("trace_overhead: full tracing {pct:.2}% < {budget:.2}% budget OK");
}
