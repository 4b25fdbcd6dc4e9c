//! Edge-case coverage for the KV cache and the batched decode engine.

use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, ExactGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel,
};

fn tiny() -> TransformerModel {
    TransformerModel::random(TransformerConfig::tiny(), 4, 11)
}

fn tokens_for(model: &TransformerModel, rows: usize, seed: u64) -> Mat {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, model.config().hidden, |_, _| {
        rng.gen_range_f64(-1.0, 1.0)
    })
}

/// A multi-slot cache with the default page layout.
fn slots_cache(model: &TransformerModel, slots: usize) -> PagedKvCache {
    PagedKvCache::new(model, slots, PagedConfig::default())
}

#[test]
fn decode_runs_past_configured_seq_len() {
    // The KV cache is unbounded: decoding beyond `config.seq_len` keeps
    // appending rows (serving traces routinely outrun the training
    // context in this synthetic setup).
    let m = tiny();
    let seq_len = m.config().seq_len;
    let mut cache = m.new_cache();
    for t in 0..seq_len + 3 {
        let tok = tokens_for(&m, 1, 100 + t as u64);
        let h = m.decode_step(&tok.row(0), &mut cache, &ExactGemm);
        assert!(h.iter().all(|v| v.is_finite()), "step {t} non-finite");
    }
    assert_eq!(cache.seq_len(0), seq_len + 3);
}

#[test]
fn empty_prompt_first_token_attends_to_itself() {
    // Step 0 against an empty cache: the token attends only to itself,
    // so the result equals the one-row causal forward.
    let m = tiny();
    let tok = tokens_for(&m, 1, 5);
    let mut cache = m.new_cache();
    assert_eq!(cache.seq_len(0), 0);
    let h = m.decode_step(&tok.row(0), &mut cache, &ExactGemm);
    let full = m.forward_causal(&tok, &ExactGemm);
    for (c, v) in h.iter().enumerate() {
        assert!((v - full[(0, c)]).abs() < 1e-9, "dim {c}");
    }
    assert_eq!(cache.seq_len(0), 1);
}

#[test]
fn batched_empty_start_matches_sequential() {
    let m = tiny();
    let mut batch = slots_cache(&m, 4);
    let toks = tokens_for(&m, 4, 9);
    let got = m.decode_batch(&toks, &mut batch, &ExactGemm);
    for s in 0..4 {
        let mut cache = m.new_cache();
        let want = m.decode_step(&toks.row(s), &mut cache, &ExactGemm);
        assert_eq!(got.row(s), want, "seq {s}");
    }
}

#[test]
fn ragged_batch_positions_stay_independent() {
    // Three sequences at positions 0, 2 and 5 advanced together match
    // their isolated counterparts bit-for-bit, and only their own
    // slots grow.
    let m = tiny();
    let backend = ExactGemm;
    let depths = [0usize, 2, 5];
    let mut cache = slots_cache(&m, depths.len());
    let mut refs_caches: Vec<_> = depths.iter().map(|_| m.new_cache()).collect();
    let mut out = Mat::zeros(1, 1);
    for (i, &depth) in depths.iter().enumerate() {
        for t in 0..depth {
            let tok = tokens_for(&m, 1, (i * 37 + t) as u64);
            m.decode_slots(&tok, &mut cache, &[i], &backend, &mut out);
            let _ = m.decode_step(&tok.row(0), &mut refs_caches[i], &backend);
        }
    }
    let toks = tokens_for(&m, 3, 77);
    let out = m.decode_batch(&toks, &mut cache, &backend);
    for (i, &depth) in depths.iter().enumerate() {
        let want = m.decode_step(&toks.row(i), &mut refs_caches[i], &backend);
        assert_eq!(out.row(i), want, "seq {i}");
        assert_eq!(cache.seq_len(i), depth + 1);
    }
}

#[test]
fn scratch_survives_batch_size_changes() {
    // Shrinking then regrowing the live batch (continuous batching
    // admission/retirement) keeps results correct with one scratch.
    let m = tiny();
    let backend = ExactGemm;
    let mut cache = slots_cache(&m, 3);
    let mut out = Mat::zeros(1, 1);
    let t3 = tokens_for(&m, 3, 1);
    m.decode_slots(&t3, &mut cache, &[0, 1, 2], &backend, &mut out);
    let t1 = tokens_for(&m, 1, 2);
    m.decode_slots(&t1, &mut cache, &[1], &backend, &mut out);
    let t2 = tokens_for(&m, 2, 3);
    m.decode_slots(&t2, &mut cache, &[0, 2], &backend, &mut out);
    assert_eq!(out.shape(), (2, m.config().hidden));
    let lens: Vec<usize> = (0..3).map(|i| cache.seq_len(i)).collect();
    assert_eq!(lens, [2, 2, 2]);
    // Steps 2 and 3 fit inside step 1's buffers.
    assert_eq!(cache.scratch().reuses(), 2);
}

/// Warms slot `i` of `cache` (and a solo mirror in `solos[i]`) by
/// `depths[i]` steps so a subsequent batch starts at exactly those
/// cache lengths.
fn warm_ragged(
    m: &TransformerModel,
    depths: &[usize],
    cache: &mut PagedKvCache,
    solos: &mut [PagedKvCache],
) {
    let mut out = Mat::zeros(1, 1);
    for (i, &depth) in depths.iter().enumerate() {
        for t in 0..depth {
            let tok = tokens_for(m, 1, (i * 53 + t) as u64);
            m.decode_slots(&tok, cache, &[i], &ExactGemm, &mut out);
            let _ = m.decode_step(&tok.row(0), &mut solos[i], &ExactGemm);
        }
    }
}

/// One batched step over the live `slots`, asserted row-by-row against
/// solo `decode_step` on the matching `solos`.
fn step_and_compare(
    m: &TransformerModel,
    cache: &mut PagedKvCache,
    slots: &[usize],
    solos: &mut [PagedKvCache],
    seed: u64,
) {
    let toks = tokens_for(m, slots.len(), seed);
    let mut out = Mat::zeros(1, 1);
    m.decode_slots(&toks, cache, slots, &ExactGemm, &mut out);
    for (i, &slot) in slots.iter().enumerate() {
        let want = m.decode_step(&toks.row(i), &mut solos[slot], &ExactGemm);
        assert_eq!(out.row(i), want, "slot {slot}");
    }
}

#[test]
fn all_equal_lengths_decode_as_one_slot_group() {
    // Every cache at the same depth: the attention phase collapses to a
    // single slot-group spanning the whole batch.
    let m = tiny();
    let depths = [3usize; 4];
    let mut cache = slots_cache(&m, depths.len());
    let mut solos: Vec<_> = depths.iter().map(|_| m.new_cache()).collect();
    warm_ragged(&m, &depths, &mut cache, &mut solos);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 21);
    assert!((0..4).all(|i| cache.seq_len(i) == 4));
}

#[test]
fn all_distinct_lengths_decode_as_s_slot_groups() {
    // Every cache at a different depth: S sequences, S slot-groups of
    // one — the degenerate grouping where nothing is shared.
    let m = tiny();
    let depths = [0usize, 1, 2, 3];
    let mut cache = slots_cache(&m, depths.len());
    let mut solos: Vec<_> = depths.iter().map(|_| m.new_cache()).collect();
    warm_ragged(&m, &depths, &mut cache, &mut solos);
    // Two steps: depths stay pairwise distinct, so the grouping stays
    // fully fragmented both times.
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 22);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 23);
    for (i, &depth) in depths.iter().enumerate() {
        assert_eq!(cache.seq_len(i), depth + 2);
    }
}

#[test]
fn group_membership_tracks_retiring_sequences() {
    // Continuous batching: sequences leave the batch mid-run, so the
    // same slot lands in differently shaped slot-groups step to step.
    let m = tiny();
    let depths = [2usize, 2, 1, 2];
    let mut cache = slots_cache(&m, depths.len());
    let mut solos: Vec<_> = depths.iter().map(|_| m.new_cache()).collect();
    warm_ragged(&m, &depths, &mut cache, &mut solos);
    // Step 1, full batch: groups {2} and {0, 1, 3}.
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 31);
    // Sequences 1 and 3 retire. Step 2: groups {2} and {0} — the
    // survivor of the big group now shares with nobody.
    step_and_compare(&m, &mut cache, &[2, 0], &mut solos, 32);
    // Sequence 2 catches up to sequence 0's depth. Step 3: one group.
    let tok = tokens_for(&m, 1, 33);
    let mut out = Mat::zeros(1, 1);
    m.decode_slots(&tok, &mut cache, &[2], &ExactGemm, &mut out);
    let _ = m.decode_step(&tok.row(0), &mut solos[2], &ExactGemm);
    assert_eq!(cache.seq_len(2), cache.seq_len(0));
    step_and_compare(&m, &mut cache, &[2, 0], &mut solos, 34);
}

#[test]
fn prime_head_dim_grouped_attention_matches_sequential() {
    // hidden 28 / 4 heads gives head dim 7 — a prime that defeats any
    // accidental power-of-two assumptions in the gather strides or the
    // grouped-GEMM chunking.
    let m = TransformerModel::random(
        TransformerConfig {
            name: "prime-dh".into(),
            layers: 2,
            hidden: 28,
            heads: 4,
            ff_mult: 4,
            seq_len: 8,
        },
        4,
        19,
    );
    let depths = [0usize, 2, 2, 5];
    let mut cache = slots_cache(&m, depths.len());
    let mut solos: Vec<_> = depths.iter().map(|_| m.new_cache()).collect();
    warm_ragged(&m, &depths, &mut cache, &mut solos);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 41);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, 42);
}

#[test]
#[should_panic(expected = "cache layer mismatch")]
fn mismatched_cache_layer_count_rejected() {
    let m = tiny();
    let other = TransformerModel::random(
        TransformerConfig {
            layers: m.config().layers + 1,
            ..m.config().clone()
        },
        4,
        3,
    );
    let mut wrong = other.new_cache();
    let tok = tokens_for(&m, 1, 1);
    m.decode_step(&tok.row(0), &mut wrong, &ExactGemm);
}

#[test]
#[should_panic(expected = "batch size mismatch")]
fn batch_width_mismatch_rejected() {
    let m = tiny();
    let mut batch = slots_cache(&m, 3);
    let toks = tokens_for(&m, 2, 4);
    m.decode_batch(&toks, &mut batch, &ExactGemm);
}

#[test]
#[should_panic(expected = "batch must be nonzero")]
fn zero_batch_rejected() {
    let m = tiny();
    let _ = slots_cache(&m, 0);
}

// ---- paged KV cache edges ------------------------------------------------

fn prompt_list(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..model.config().hidden)
                .map(|_| rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect()
}

/// Feeds `prompt[cache.seq_len(slot)..]` one token at a time through the
/// paged engine; returns the last hidden row.
fn decode_prompt_paged(
    model: &TransformerModel,
    cache: &mut PagedKvCache,
    slot: usize,
    prompt: &[Vec<f64>],
) -> Vec<f64> {
    let mut out = Mat::zeros(1, 1);
    for tok in &prompt[cache.seq_len(slot)..] {
        let tokens = Mat::from_rows(1, tok.len(), tok.clone()).expect("token row");
        model.decode_slots(&tokens, cache, &[slot], &ExactGemm, &mut out);
    }
    out.row(0)
}

/// The same prompt through a solo one-slot cache with the default
/// layout and no sharing (the bit-identity oracle).
fn decode_prompt_solo(
    model: &TransformerModel,
    cache: &mut PagedKvCache,
    prompt: &[Vec<f64>],
) -> Vec<f64> {
    let mut last = Vec::new();
    for tok in &prompt[cache.seq_len(0)..] {
        last = model.decode_step(tok, cache, &ExactGemm);
    }
    last
}

#[test]
fn paged_prompt_shorter_than_one_block() {
    // Block 8, prompt 3: no block boundary is ever reached, so nothing
    // publishes and nothing shares — and decode still matches solo.
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 1, PagedConfig::new(8));
    let prompt = prompt_list(&m, 3, 61);
    let got = decode_prompt_paged(&m, &mut cache, 0, &prompt);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &prompt);
    assert_eq!(got, want);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 8);
    assert!(hashes.is_empty(), "no full block to hash");
    cache.publish_prefix(0, &hashes);
    assert_eq!(cache.stats().prefix_entries, 0);
    // One (partial) page per layer.
    assert_eq!(cache.stats().live_pages, m.config().layers);
}

#[test]
fn paged_prompt_exactly_block_aligned_shares_fully() {
    // Block 2, prompt 4: the whole prompt is shareable; a second slot
    // maps it and continues bit-identically to a solo decode.
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 2, PagedConfig::new(2));
    let prompt = prompt_list(&m, 4, 62);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt);
    cache.publish_prefix(0, &hashes);
    let shared = cache.lookup_prefix(1, &hashes);
    assert_eq!(shared, 4, "block-aligned prompt shares fully");
    // Slot 1 skips the whole prompt and decodes one fresh token.
    let next = prompt_list(&m, 1, 63);
    let got = decode_prompt_paged(&m, &mut cache, 1, &[prompt.clone(), next.clone()].concat());
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &[prompt, next].concat());
    assert_eq!(got, want, "shared-prefix continuation diverged from solo");
    assert!(cache.stats().shared_tokens >= 4);
}

#[test]
fn paged_retirement_mid_prefix_share() {
    // The publisher retires while another slot still shares its prefix:
    // the sharer keeps decoding bit-identically, and only the
    // publisher's exclusive tail page is freed.
    let m = tiny();
    let layers = m.config().layers;
    let mut cache = PagedKvCache::new(&m, 2, PagedConfig::new(2));
    // 5 tokens at block 2: boundaries at 2 and 4, partial tail page.
    let prompt = prompt_list(&m, 5, 64);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt);
    cache.publish_prefix(0, &hashes);
    let shared = cache.lookup_prefix(1, &hashes);
    assert_eq!(shared, 4);
    let free_before = cache.allocator().free_pages();
    cache.reset_slot(0); // publisher retires mid-share
                         // Shared full pages survive (prefix + slot 1 mappings); only the
                         // partial tail page per layer returns to the free list.
    assert_eq!(cache.allocator().free_pages(), free_before + layers);
    assert_eq!(cache.seq_len(1), 4);
    let tail = prompt_list(&m, 2, 65);
    let full: Vec<Vec<f64>> = prompt[..4].iter().cloned().chain(tail).collect();
    let got = decode_prompt_paged(&m, &mut cache, 1, &full);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &full);
    assert_eq!(got, want, "sharer diverged after publisher retirement");
}

#[test]
fn paged_eviction_under_one_block_budget() {
    // Block 1, budget = one token's pages (`layers`): caching a second
    // distinct token forces the published prefix out, and decode stays
    // bit-identical through eviction — then through the over-budget
    // fallback once nothing evictable remains.
    let m = tiny();
    let layers = m.config().layers;
    let page_bytes = 2 * m.config().hidden * 8;
    let mut cache = PagedKvCache::new(
        &m,
        1,
        PagedConfig::new(1).with_budget_bytes(layers * page_bytes),
    );
    let a = prompt_list(&m, 1, 66);
    let hashes_a = prefix_block_hashes(a.iter().map(Vec::as_slice), 1);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &a);
    cache.publish_prefix(0, &hashes_a);
    cache.reset_slot(0);
    assert_eq!(cache.allocator().free_pages(), 0, "prefix pins the budget");

    let b = prompt_list(&m, 1, 67);
    let got = decode_prompt_paged(&m, &mut cache, 0, &b);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &b);
    assert_eq!(got, want, "decode diverged across eviction");
    assert_eq!(cache.stats().evicted_pages, layers as u64);
    assert_eq!(
        cache.probe_prefix(&hashes_a),
        0,
        "entry gone after eviction"
    );
    assert_eq!(cache.stats().over_budget_pages, 0);

    // Second token for the same slot: budget exhausted, nothing left to
    // evict → counted over-budget growth, decode still bit-identical.
    let b2: Vec<Vec<f64>> = b.iter().cloned().chain(prompt_list(&m, 1, 68)).collect();
    let got2 = decode_prompt_paged(&m, &mut cache, 0, &b2);
    let want2 = decode_prompt_solo(&m, &mut solo, &b2);
    assert_eq!(got2, want2, "decode diverged across over-budget growth");
    assert_eq!(cache.stats().over_budget_pages, layers as u64);
}

#[test]
fn paged_reset_slot_returns_pages_to_free_list() {
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 1, PagedConfig::new(2));
    let prompt = prompt_list(&m, 5, 69);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt);
    let total = cache.allocator().total_pages();
    assert!(total > 0);
    assert_eq!(cache.stats().live_pages, total);
    cache.reset_slot(0);
    assert_eq!(cache.stats().live_pages, 0);
    assert_eq!(cache.allocator().free_pages(), total, "all pages recycled");
    // The recycled pages are reused, not re-grown.
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt);
    assert_eq!(cache.allocator().total_pages(), total);
}

// ---- mutating a slot between steps ---------------------------------------

#[test]
fn seq_mut_fresh_cache_reset_is_supported() {
    // Resetting a slot mid-run keeps every row bit-identical to solo
    // decode: the scratch holds no per-sequence state.
    let m = tiny();
    let mut batch = slots_cache(&m, 2);
    let mut solos: Vec<PagedKvCache> = (0..2).map(|_| m.new_cache()).collect();
    for t in 0..2 {
        let toks = tokens_for(&m, 2, 80 + t);
        let got = m.decode_batch(&toks, &mut batch, &ExactGemm);
        for (i, solo) in solos.iter_mut().enumerate() {
            let want = m.decode_step(&toks.row(i), solo, &ExactGemm);
            assert_eq!(got.row(i), want);
        }
    }
    batch.reset_slot(1);
    solos[1] = m.new_cache();
    let toks = tokens_for(&m, 2, 90);
    let got = m.decode_batch(&toks, &mut batch, &ExactGemm);
    for (i, solo) in solos.iter_mut().enumerate() {
        let want = m.decode_step(&toks.row(i), solo, &ExactGemm);
        assert_eq!(got.row(i), want, "seq {i} after slot reset");
    }
    assert_eq!(batch.seq_len(0), 3);
    assert_eq!(batch.seq_len(1), 1);
}

#[test]
fn seq_mut_warmed_cache_swap_is_supported() {
    // Installing an independently warmed sequence into a live slot (fork
    // its pages in, retire the source): the next step regroups by the
    // new length and stays bit-identical.
    let m = tiny();
    let mut batch = slots_cache(&m, 3);
    let mut out = Mat::zeros(1, 1);
    let toks0 = tokens_for(&m, 2, 91);
    m.decode_slots(&toks0, &mut batch, &[0, 1], &ExactGemm, &mut out);
    // Warm a 3-token sequence off to the side in slot 2 (plus its solo
    // mirror).
    let mut warmed_solo = m.new_cache();
    for t in 0..3 {
        let tok = tokens_for(&m, 1, 92 + t);
        m.decode_slots(&tok, &mut batch, &[2], &ExactGemm, &mut out);
        let _ = m.decode_step(&tok.row(0), &mut warmed_solo, &ExactGemm);
    }
    batch.reset_slot(0);
    batch.fork_slot(0, 2);
    batch.reset_slot(2);
    // Solo mirror of slot 1's original history.
    let mut solo1 = m.new_cache();
    let _ = m.decode_step(&toks0.row(1), &mut solo1, &ExactGemm);
    let toks = tokens_for(&m, 2, 95);
    m.decode_slots(&toks, &mut batch, &[0, 1], &ExactGemm, &mut out);
    let want0 = m.decode_step(&toks.row(0), &mut warmed_solo, &ExactGemm);
    let want1 = m.decode_step(&toks.row(1), &mut solo1, &ExactGemm);
    assert_eq!(out.row(0), want0, "swapped-in sequence diverged");
    assert_eq!(out.row(1), want1, "untouched slot diverged");
    assert_eq!((batch.seq_len(0), batch.seq_len(1)), (4, 2));
}

#[test]
#[should_panic(expected = "k row width mismatch")]
fn seq_mut_foreign_model_cache_rejected() {
    // A cache shaped for a model of another width (same layer count) is
    // rejected on the first push instead of corrupting attention.
    let m = tiny();
    let other = TransformerModel::random(
        TransformerConfig {
            hidden: m.config().hidden + m.config().heads,
            ..m.config().clone()
        },
        4,
        5,
    );
    let mut batch = slots_cache(&other, 2);
    let toks = tokens_for(&m, 2, 96);
    let _ = m.decode_batch(&toks, &mut batch, &ExactGemm);
}
