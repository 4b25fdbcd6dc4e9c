//! Prefix sharing vs no sharing in the paged KV cache: `BATCH` sequences
//! share a prompt prefix (75% by default). The flat side is the paged
//! store without sharing (what `TokenServer::new` serves through) and
//! decodes every full prompt; the paged side computes the prefix once,
//! publishes it, maps it into every slot and decodes only the tails.
//! Every rep asserts both end on bit-identical hidden states. Emits
//! `BENCH_kv.json` with the gated `flat_bytes_over_paged_bytes` (floor 2×
//! at the default shape) and `paged_tps_over_flat` (floor 0.95). Knobs
//! `PDAC_BENCH_KV_*`: `HIDDEN`/`LAYERS`/`HEADS` (64/2/4), `BATCH` (8),
//! `PROMPT`/`SHARED` (32/24), `TOKENS` (4), `BLOCK` (page tokens, 4),
//! `BACKENDS` (`exact,pdac`), `REPS` (3; best of alternating pairs).

use pdac_bench::decode::{
    backend, best, decode_run, feed, interleave, or_exit, per, prompt_tokens, timed, write_bench,
    DecodeShape, Knobs, BACKENDS,
};
use pdac_math::Mat;
use pdac_nn::{prefix_block_hashes, GemmBackend, PagedConfig, PagedKvCache, TransformerModel};
use pdac_telemetry::Json;

/// The shared-prefix side: slot 0 decodes the prefix once and publishes
/// it, every slot maps it and decodes only its tail. Returns seconds,
/// the final hidden rows and the backing bytes.
fn run_paged(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    shared: usize,
    gen: usize,
    block: usize,
) -> (f64, Mat, usize) {
    let s = prompt[0].rows();
    let mut cache = PagedKvCache::new(model, s, PagedConfig::new(block));
    let hashes = prefix_block_hashes(prompt[..shared].iter().map(|t| t.row_slice(0)), block);
    let (secs, last) = timed(|| {
        for tok in &prompt[..shared] {
            model.decode_step(tok.row_slice(0), &mut cache, backend);
        }
        cache.publish_prefix(0, &hashes);
        cache.reset_slot(0);
        for slot in 0..s {
            let mapped = cache.lookup_prefix(slot, &hashes);
            assert_eq!(mapped, shared, "published prefix must map fully");
        }
        feed(model, backend, &mut cache, &prompt[shared..], gen)
    });
    (secs, last, cache.allocator().backing_bytes())
}

fn main() {
    let knobs = Knobs::env("PDAC_BENCH_KV");
    let shape = or_exit(DecodeShape::of([64, 2, 4, 32, 4]).with_knobs(&knobs));
    let (hidden, prompt_len, gen) = (shape.hidden, shape.prompt, shape.gen);
    let batch = or_exit(knobs.get("BATCH", 8));
    let shared = or_exit(knobs.get("SHARED", 24)).min(prompt_len);
    let block = or_exit(knobs.get("BLOCK", 4)).max(1);
    let reps = or_exit(knobs.get("REPS", 3)).max(1);
    let labels = or_exit(knobs.pick("BACKENDS", &BACKENDS));
    let default_run = hidden == 64 && prompt_len == 32 && shared == 24 && batch == 8;
    assert!(
        shared.is_multiple_of(block),
        "SHARED not a multiple of BLOCK"
    );
    let model = shape.model("kv-bench");

    let mut records = Vec::new();
    for label in labels {
        let backend = backend(label);
        let backend = backend.as_ref();
        let prompt = prompt_tokens(hidden, batch, prompt_len, shared, 42);
        // Both sides serve batch × (prompt + generated) tokens.
        let tokens = (batch * (prompt_len + gen)) as f64;
        let flat = |gen| decode_run(&model, backend, &prompt, gen, PagedConfig::new(block));
        let paged = |gen| run_paged(&model, backend, &prompt, shared, gen, block);
        let _ = (flat(1.min(gen)), paged(1.min(gen))); // untimed warm passes
        let (mut lasts, mut bytes) = (Vec::new(), [0usize; 2]);
        let times = interleave(reps, 2, |side| {
            let (secs, last, b) = if side == 0 { flat(gen) } else { paged(gen) };
            lasts.push(last);
            bytes[side] = b;
            secs
        });
        // Paging is pure data movement: every run ends on the same bits.
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let same = lasts.iter().all(|m| bits(m) == bits(&lasts[0]));
        assert!(same, "kv_paged/{label}: shared-prefix run diverged");
        let (flat_s, paged_s) = (best(&times[0]), best(&times[1]));
        let [flat_bytes, paged_bytes] = bytes;
        let (flat_tps, paged_tps) = (per(tokens, flat_s), per(tokens, paged_s));
        let tps_ratio = per(paged_tps, flat_tps);
        let bytes_ratio = flat_bytes as f64 / (paged_bytes as f64).max(1.0);
        println!(
            "kv_paged/{label}: flat {flat_tps:>9.1} tok/s / {flat_bytes} B, \
             paged {paged_tps:>9.1} tok/s / {paged_bytes} B, \
             bytes ratio {bytes_ratio:.2}x, tps ratio {tps_ratio:.2}x"
        );
        let floors_met = bytes_ratio >= 2.0 && tps_ratio >= 0.95;
        assert!(
            !default_run || floors_met,
            "{label}: below the 2x bytes / 0.95x tok/s floors"
        );
        records.push(Json::Obj(vec![
            ("backend".into(), Json::Str(label.into())),
            ("mode".into(), Json::Str("shared_prefix".into())),
            ("batch".into(), Json::Int(batch as u64)),
            ("prompt".into(), Json::Int(prompt_len as u64)),
            ("shared".into(), Json::Int(shared as u64)),
            ("block".into(), Json::Int(block as u64)),
            ("flat_s".into(), Json::Num(flat_s)),
            ("paged_s".into(), Json::Num(paged_s)),
            // Num, not Int: byte footprints are measurements, kept out of
            // the record identity so the gate compares the ratio.
            ("flat_bytes".into(), Json::Num(flat_bytes as f64)),
            ("paged_bytes".into(), Json::Num(paged_bytes as f64)),
            ("flat_tokens_per_s".into(), Json::Num(flat_tps)),
            ("paged_tokens_per_s".into(), Json::Num(paged_tps)),
            ("flat_bytes_over_paged_bytes".into(), Json::Num(bytes_ratio)),
            ("paged_tps_over_flat".into(), Json::Num(tps_ratio)),
        ]));
    }
    let mut doc = shape.doc("kv_paged", records);
    doc.push(("reps".into(), Json::Int(reps as u64)));
    write_bench("BENCH_kv.json", doc);
}
