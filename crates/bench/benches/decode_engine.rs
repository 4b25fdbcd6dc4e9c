//! Batched decode throughput: aggregate tokens/s at each batch size for
//! the exact and the P-DAC backend, against the same sequences decoded
//! one at a time through a one-slot cache. Emits `BENCH_decode.json`;
//! each `pdac` record run beside `exact` carries the gated
//! `pdac_over_exact` (P-DAC over exact batched tokens/s). Knobs
//! `PDAC_BENCH_DECODE_*`: `HIDDEN`/`LAYERS`/`HEADS` (256/4/4),
//! `PROMPT`/`TOKENS` (8/24), `BATCHES` (`1,4,8,16`), `BACKENDS`
//! (`exact,pdac`), `REPS` (1; best of N alternating pairs) and `FLOOR`
//! (minimum speedup from batch 2 up: at batch 1 both sides run the same
//! one-slot decode). The default shape asserts the batch-8 speedups:
//! P-DAC ≥ 3×, exact ≥ 2×.

use pdac_bench::decode::{
    backend, best, decode_secs, interleave, or_exit, per, prompt_tokens, write_bench, DecodeShape,
    Knobs, BACKENDS,
};
use pdac_math::Mat;
use pdac_nn::{GemmBackend, TransformerModel};
use pdac_telemetry::Json;

/// The same sequences one at a time, each through its own one-slot
/// cache (the pre-batching serving strategy); returns total seconds.
fn run_sequential(m: &TransformerModel, b: &dyn GemmBackend, prompt: &[Mat], gen: usize) -> f64 {
    let row = |r: usize| move |t: &Mat| Mat::from_rows(1, t.cols(), t.row(r)).unwrap();
    let seqs = (0..prompt[0].rows()).map(|r| prompt.iter().map(row(r)).collect::<Vec<_>>());
    seqs.map(|seq| decode_secs(m, b, &seq, gen)).sum()
}

fn main() {
    let knobs = Knobs::env("PDAC_BENCH_DECODE");
    let default = DecodeShape::of([256, 4, 4, 8, 24]);
    let shape = or_exit(default.with_knobs(&knobs));
    let batches = or_exit(knobs.list("BATCHES", vec![1, 4, 8, 16]));
    let labels = or_exit(knobs.pick("BACKENDS", &BACKENDS));
    let reps = or_exit(knobs.get("REPS", 1)).max(1);
    let floor = or_exit(knobs.opt::<f64>("FLOOR"));
    let default_run = DecodeShape { heads: 4, ..shape } == default;
    let model = shape.model("decode-bench");

    let (mut records, mut exact_tps) = (Vec::new(), Vec::new());
    for label in labels {
        let backend = backend(label);
        let backend = backend.as_ref();
        for &s in &batches {
            let prompt = prompt_tokens(shape.hidden, s, shape.prompt, 0, 7 * s as u64 + 1);
            let tokens = (s * (shape.prompt + shape.gen)) as f64;
            // A warm pass primes weight caches and packs untimed.
            decode_secs(&model, backend, &prompt, 1.min(shape.gen));
            let times = interleave(reps, 2, |side| match side {
                0 => decode_secs(&model, backend, &prompt, shape.gen),
                _ => run_sequential(&model, backend, &prompt, shape.gen),
            });
            let (batched_s, sequential_s) = (best(&times[0]), best(&times[1]));
            let (batched_tps, sequential_tps) = (per(tokens, batched_s), per(tokens, sequential_s));
            let speedup = per(batched_tps, sequential_tps);
            println!(
                "decode_engine/{label}/batch{s}: batched {batched_tps:>9.1} tok/s, \
                 sequential {sequential_tps:>9.1} tok/s, speedup {speedup:.2}x"
            );
            let claim = (default_run && s == 8).then_some(if label == "pdac" { 3.0 } else { 2.0 });
            for floor in [floor.filter(|_| s >= 2), claim].into_iter().flatten() {
                assert!(
                    speedup >= floor,
                    "{label}/batch{s}: {speedup:.3}x < {floor}x"
                );
            }
            let mut fields = vec![
                ("backend".into(), Json::Str(label.into())),
                ("batch".into(), Json::Int(s as u64)),
                ("tokens".into(), Json::Int(tokens as u64)),
                ("batched_s".into(), Json::Num(batched_s)),
                ("sequential_s".into(), Json::Num(sequential_s)),
                ("batched_tokens_per_s".into(), Json::Num(batched_tps)),
                ("sequential_tokens_per_s".into(), Json::Num(sequential_tps)),
                ("speedup".into(), Json::Num(speedup)),
            ];
            if label == "exact" {
                exact_tps.push((s, batched_tps));
            } else if let Some(&(_, exact)) = exact_tps.iter().find(|(b, _)| *b == s) {
                let ratio = per(batched_tps, exact);
                println!("decode_engine/{label}/batch{s}: {ratio:.3}x exact tokens/s");
                fields.push(("pdac_over_exact".into(), Json::Num(ratio)));
            }
            records.push(Json::Obj(fields));
        }
    }
    let mut doc = shape.doc("decode_engine", records);
    doc.push(("reps".into(), Json::Int(reps as u64)));
    write_bench("BENCH_decode.json", doc);
}
