//! Pluggable GEMM backends.
//!
//! The accelerator's matrix multiplies run in two fidelity regimes:
//!
//! * [`ExactGemm`] — full-precision `f64` reference,
//! * [`AnalogGemm`] — operands quantized and pushed through a converter
//!   drive path before the dot product: one [`MzmDriver`] for the
//!   activation side, one for the weight side (P-DAC, electrical DAC, or
//!   the hybrid pair). The photonic DDot itself computes the dot product
//!   exactly (see `pdac-photonics`), so the analog error is entirely in
//!   the operand modulation — exactly the paper's error model.
//!
//! The [`GemmBackend`] trait lets the same transformer forward pass run in
//! any regime; the fidelity study diffs their outputs.

use crate::prepared::WeightCache;
use crate::quant::{self, GroupQuantizedMat, QuantizedMat, RowQuantizedMat};
use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::{default_threads, PackedB};
use pdac_math::gemm_i8::{self, PackedBi8};
use pdac_math::Mat;
use std::cell::RefCell;

/// A matrix-multiply backend.
pub trait GemmBackend {
    /// Computes `a · b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat;

    /// Computes `a · b` into a caller-owned output matrix (reshaped and
    /// fully overwritten), so hot loops can reuse one allocation across
    /// calls. Must produce exactly [`Self::matmul`]'s result; the
    /// default literally delegates.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        *out = self.matmul(a, b);
    }

    /// Batched decode matmul: the rows of `a` belong to **independent
    /// sequences**, and row `r` of the result must be bit-identical to
    /// `self.matmul(a_row_r, b)` of the 1×k matrix holding row `r`
    /// alone. The default guarantees that by construction (it performs
    /// the per-row products and stacks them); backends override it with
    /// faster paths that preserve the row identity — see
    /// [`AnalogGemm`]'s per-row quantization.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        out.resize(a.rows(), b.cols());
        let mut row = Mat::zeros(1, a.cols());
        for r in 0..a.rows() {
            row.as_mut_slice().copy_from_slice(a.row_slice(r));
            let prod = self.matmul(&row, b);
            out.row_slice_mut(r).copy_from_slice(prod.row_slice(0));
        }
    }

    /// Allocating convenience form of [`Self::matmul_batch_into`].
    fn matmul_batch(&self, a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(1, 1);
        self.matmul_batch_into(a, b, &mut out);
        out
    }

    /// [`Self::matmul_batch_into`] with a caller-supplied prepacked form
    /// of `b` on offer. `packed` must pack exactly `b` (same values,
    /// `PackedB::pack(b)`); callers with long-lived weights memoize the
    /// pack (see `EncoderLayer::packs`) and hand it in as a lazy closure
    /// so backends that cannot use it never force the packing.
    ///
    /// The default ignores the offer and delegates (analog backends
    /// already keep packed *converted* weights in their [`WeightCache`];
    /// a pack of the unconverted values is useless to them).
    /// [`ExactGemm`] overrides it: the pack skips the per-call
    /// `B`-panel-packing pass that otherwise dominates small batched
    /// GEMMs. Same row-identity contract as [`Self::matmul_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        let _ = packed;
        self.matmul_batch_into(a, b, out);
    }

    /// Grouped transient matmul for batched attention: `a` holds one
    /// query-like row per grouped sequence (`G × k`), `b` stacks each
    /// sequence's **own** ephemeral right operand (`G` contiguous
    /// `k × n` blocks, so `b` is `(G·k) × n`), and row `g` of `out`
    /// (`G × n`) must be bit-identical to
    /// [`Self::matmul_transient_into`] of `a`'s row `g` against block
    /// `g` alone. The default guarantees that by construction (per-row
    /// delegation); backends override it to run all `G` products in one
    /// kernel dispatch / conversion pass — see
    /// [`crate::quant::GroupQuantizedMat`] for how analog backends keep
    /// per-block quantization scales identical to the solo path.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != a.rows() · a.cols()`.
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        let (g, k) = a.shape();
        assert_eq!(b.rows(), g * k, "stacked operand row count");
        out.resize(g, b.cols());
        let mut row = Mat::zeros(1, k);
        let mut block = Mat::zeros(k, b.cols());
        let mut prod = Mat::zeros(1, b.cols());
        let block_len = k * b.cols();
        for r in 0..g {
            row.as_mut_slice().copy_from_slice(a.row_slice(r));
            block
                .as_mut_slice()
                .copy_from_slice(&b.as_slice()[r * block_len..(r + 1) * block_len]);
            self.matmul_transient_into(&row, &block, &mut prod);
            out.row_slice_mut(r).copy_from_slice(prod.row_slice(0));
        }
    }

    /// Computes `a · b` where `b` is **ephemeral** — a matrix built for
    /// this call (attention keys/values gathered from a KV cache) that
    /// will never be seen again. Must produce exactly
    /// [`Self::matmul_into`]'s result; the default literally delegates.
    /// Caching backends override it to skip their weight-conversion
    /// cache: memoizing a once-per-step operand cannot hit, and at
    /// decode batch sizes the flood of dead entries evicts the *actual*
    /// weights, forcing a full re-convert + re-pack of every layer each
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.matmul_into(a, b, out);
    }

    /// Human-readable backend name for reports.
    fn name(&self) -> &str;
}

/// The exact `f64` reference backend.
///
/// # Examples
///
/// ```
/// use pdac_nn::gemm::{ExactGemm, GemmBackend};
/// use pdac_math::Mat;
///
/// let a = Mat::identity(2);
/// let b = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(ExactGemm.matmul(&a, &b), b);
/// # Ok::<(), pdac_math::matrix::MatError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactGemm;

impl GemmBackend for ExactGemm {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        a.matmul(b).expect("inner dimensions must agree")
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_into(b, out).expect("inner dimensions must agree");
    }

    /// Exact batched form: one GEMM over the whole stack. Row-identical
    /// to per-row products because every tuned kernel computes each
    /// output cell as the same ascending-`k` reduction regardless of the
    /// operand's row count (see `pdac_math::gemm`).
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_into(b, out).expect("inner dimensions must agree");
    }

    /// Exact packed batched form: with more than one row the prepacked
    /// kernel skips the per-call `B`-packing pass (bit-identical — the
    /// pack only changes memory layout). Single rows keep the plain
    /// vecmat path so solo-decode callers never pay for building packs
    /// whose memory roughly doubles the weights.
    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        if a.rows() > 1 {
            a.matmul_prepacked_into(packed(), out)
                .expect("inner dimensions must agree");
        } else {
            self.matmul_into(a, b, out);
        }
    }

    /// Exact grouped form: all `G` row products in one pooled kernel
    /// dispatch (`pdac_math::gemm::gemm_grouped`); per cell it is the
    /// same ascending-`k` reduction as `G` separate vecmats.
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_grouped_into(b, out)
            .expect("stacked operand rows must equal G·k");
    }

    fn name(&self) -> &str {
        "exact"
    }
}

/// Reusable scratch for the integer route (operand codes, scales and
/// `i32` accumulators), so the decode hot path allocates nothing after
/// warm-up.
#[derive(Debug, Default, Clone)]
struct IntScratch {
    a_codes: Vec<i16>,
    a_scales: Vec<f64>,
    b_codes: Vec<i16>,
    b_scales: Vec<f64>,
    acc: Vec<i32>,
}

/// What the right operand of an analog call is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A model weight: quantized and converted once, then answered from
    /// the [`WeightCache`].
    Weight,
    /// Built for this call and dead after it (attention keys/values):
    /// quantized and converted fresh, never cached.
    Transient,
}

/// How an analog call assigns quantization scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rows {
    /// One scale per operand — the solo rule.
    Tensor,
    /// One activation scale per row (independent sequences), one scale
    /// for the right operand.
    PerRow,
    /// One activation scale per row and one per stacked `k × n` block of
    /// the right operand: row `g` is its own solo transient product.
    Grouped,
}

/// Analog GEMM through a pair of converter drive paths: quantize both
/// operands, dequantize the activation side (`a`) through one driver and
/// the weight side (`b`) through the other — injecting each converter's
/// error — then multiply exactly (the DDot identity).
///
/// [`Self::new`] drives both sides with one converter (pure P-DAC, pure
/// e-DAC, ideal); [`Self::hybrid`] splits them — the hybrid design where
/// dynamic activations ride the P-DAC and weights keep the electrical
/// path.
///
/// Each driver is tabulated once into a [`ConverterLut`] at
/// construction, so per-call conversion is an array read, and model
/// weights are memoized in a [`WeightCache`] so repeated multiplies
/// against the same weights — every decode step of generative inference
/// — skip quantize+convert entirely. Both shortcuts are bit-identical to
/// the direct path.
///
/// When both drive paths are exactly code-linear
/// ([`ConverterLut::is_code_linear`], i.e. the ideal digital reference
/// `pdac_core::IdealDac`) at ≤ 8 bits, the dequantized product factors
/// into `scale_a·scale_b/m² · Σ ca·cb` and every multiply runs in the
/// exact byte-size integer engine (`pdac_math::gemm_i8`) with one
/// dequantize at the end (DESIGN.md §16). Physical drivers never
/// qualify, so their modeled conversion error is untouched.
#[derive(Debug, Clone)]
pub struct AnalogGemm {
    lut_a: ConverterLut,
    lut_b: ConverterLut,
    cache: WeightCache,
    name: String,
    int8: bool,
    scratch: RefCell<IntScratch>,
}

impl AnalogGemm {
    /// Drives both operands through `driver`.
    pub fn new(driver: impl MzmDriver, name: impl Into<String>) -> Self {
        let lut = ConverterLut::new(&driver);
        Self::from_luts(lut.clone(), lut, name.into())
    }

    /// Drives activations through `driver_a` and weight-like right
    /// operands through `driver_b`.
    ///
    /// # Panics
    ///
    /// Panics if the drivers' bit widths differ.
    pub fn hybrid(
        driver_a: impl MzmDriver,
        driver_b: impl MzmDriver,
        name: impl Into<String>,
    ) -> Self {
        assert_eq!(
            driver_a.bits(),
            driver_b.bits(),
            "both operand paths must share a bit width"
        );
        Self::from_luts(
            ConverterLut::new(&driver_a),
            ConverterLut::new(&driver_b),
            name.into(),
        )
    }

    fn from_luts(lut_a: ConverterLut, lut_b: ConverterLut, name: String) -> Self {
        let int8 = lut_a.bits() <= 8 && lut_a.is_code_linear() && lut_b.is_code_linear();
        Self {
            lut_a,
            lut_b,
            cache: WeightCache::default(),
            name,
            int8,
            scratch: RefCell::new(IntScratch::default()),
        }
    }

    /// The weight-conversion cache (for hit/miss inspection).
    pub fn cache(&self) -> &WeightCache {
        &self.cache
    }

    /// The one analog routine behind every [`GemmBackend`] method: it
    /// owns the span, the MAC counter, the route choice and the tap.
    ///
    /// The route (integer or f64) depends on the drivers and `k` alone,
    /// never on operand values, so batched and grouped calls route
    /// exactly like their solo twins and keep their row identities.
    ///
    /// A quantization block (the tensor, a row, or a grouped block)
    /// holding a non-finite value gets a NaN scale (see
    /// [`crate::quant`]), so every output row that block feeds is
    /// all-NaN and every other row is bit-identical to a clean call.
    fn run(&self, a: &Mat, b: &Mat, operand: Operand, rows: Rows, out: &mut Mat) {
        let (span, op) = match (rows, operand) {
            (Rows::Tensor, Operand::Weight) => ("nn.gemm.analog", "matmul"),
            (Rows::Tensor, Operand::Transient) => ("nn.gemm.analog", "transient"),
            (Rows::PerRow, _) => ("nn.gemm.analog_batch", "batch"),
            (Rows::Grouped, _) => ("nn.gemm.analog_grouped", "grouped"),
        };
        let _span = pdac_telemetry::span(span);
        let (m, k) = a.shape();
        pdac_telemetry::counter_add("nn.gemm.macs", (m * k * b.cols()) as u64);
        if rows == Rows::Grouped {
            assert_eq!(b.rows(), m * k, "stacked operand rows must equal G·k");
        } else {
            assert_eq!(b.rows(), k, "inner dimensions must agree");
        }
        if self.int8 && k <= gemm_i8::MAX_K_I8 {
            pdac_telemetry::counter_add("nn.gemm.int8", 1);
            self.int8_route(a, b, operand, rows, out);
        } else {
            self.f64_route(a, b, operand, rows, out);
        }
        crate::tap::observe(&self.name, op, a, b, out);
    }

    /// Quantize → LUT-dequantize both operands, then one exact f64 GEMM
    /// (plain, prepacked against the cached weight, or grouped).
    fn f64_route(&self, a: &Mat, b: &Mat, operand: Operand, rows: Rows, out: &mut Mat) {
        let bits = self.lut_a.bits();
        let aq = match rows {
            Rows::Tensor => QuantizedMat::quantize(a, bits).dequantize_with(&self.lut_a),
            _ => RowQuantizedMat::quantize(a, bits).dequantize_with(&self.lut_a),
        };
        let lut_b = &self.lut_b;
        match (operand, rows) {
            (Operand::Weight, Rows::PerRow) => {
                aq.matmul_prepacked_into(self.cache.get_or_prepare(b, lut_b).packed(), out)
            }
            (Operand::Weight, _) => {
                aq.matmul_into(self.cache.get_or_prepare(b, lut_b).converted(), out)
            }
            (Operand::Transient, Rows::Grouped) => aq.matmul_grouped_into(
                &GroupQuantizedMat::quantize(b, a.cols(), bits).dequantize_with(lut_b),
                out,
            ),
            (Operand::Transient, _) => {
                aq.matmul_into(&QuantizedMat::quantize(b, bits).dequantize_with(lut_b), out)
            }
        }
        .expect("operand shapes checked by the caller");
    }

    /// Quantize both operands to codes, contract them exactly in `i32`,
    /// dequantize once at the end: row `r` of the output is
    /// `fl(f_r · acc)` with `f_r = fl(fl(s_a/m) · fl(s_b/m))`, `m` the max
    /// code and `s_a`, `s_b` the scales feeding row `r` (DESIGN.md §16).
    fn int8_route(&self, a: &Mat, b: &Mat, operand: Operand, rows: Rows, out: &mut Mat) {
        let (m, k) = a.shape();
        let n = b.cols();
        let bits = self.lut_a.bits();
        let threads = default_threads();
        let sc = &mut *self.scratch.borrow_mut();
        if rows == Rows::Tensor {
            let s = quant::quantize_tensor_i16(a.as_slice(), bits, &mut sc.a_codes);
            sc.a_scales.clear();
            sc.a_scales.push(s);
        } else {
            quant::quantize_blocks_i16(a, 1, bits, &mut sc.a_codes, &mut sc.a_scales);
        }
        sc.acc.clear();
        sc.acc.resize(m * n, 0);
        match (operand, rows) {
            (Operand::Weight, _) => {
                let bq = self.cache.get_or_prepare(b, &self.lut_b);
                sc.b_scales.clear();
                sc.b_scales.push(bq.code_scale());
                gemm_i8::gemm_i8_prepacked(&sc.a_codes, bq.packed_codes(), m, &mut sc.acc, threads);
            }
            (Operand::Transient, Rows::Grouped) => {
                quant::quantize_blocks_i16(b, k, bits, &mut sc.b_codes, &mut sc.b_scales);
                gemm_i8::gemm_i8_grouped(&sc.a_codes, &sc.b_codes, m, k, n, &mut sc.acc, threads);
            }
            (Operand::Transient, _) => {
                // Packing per call is a `k·n` i16 write pass, cheaper
                // than the `k·n` f64 convert pass it replaces.
                let s = quant::quantize_tensor_i16(b.as_slice(), bits, &mut sc.b_codes);
                sc.b_scales.clear();
                sc.b_scales.push(s);
                let packed = PackedBi8::pack(&sc.b_codes, k, n);
                gemm_i8::gemm_i8_prepacked(&sc.a_codes, &packed, m, &mut sc.acc, threads);
            }
        }
        let mc = ((1i32 << (bits - 1)) - 1) as f64;
        // One scale per tensor or one per row/block: row `r` reads its own.
        let step = |scales: &[f64], r: usize| scales[r.min(scales.len() - 1)] / mc;
        out.resize(m, n);
        for (r, (out_row, acc_row)) in out
            .as_mut_slice()
            .chunks_exact_mut(n)
            .zip(sc.acc.chunks_exact(n))
            .enumerate()
        {
            let f = step(&sc.a_scales, r) * step(&sc.b_scales, r);
            for (o, &v) in out_row.iter_mut().zip(acc_row) {
                *o = f * v as f64;
            }
        }
    }
}

impl GemmBackend for AnalogGemm {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(1, 1);
        self.matmul_into(a, b, &mut out);
        out
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(a, b, Operand::Weight, Rows::Tensor, out);
    }

    /// Cache-free form: `WeightCache::get_or_prepare` applies exactly
    /// this quantize→convert transform before memoizing, so skipping the
    /// cache cannot change a bit — it only avoids fingerprinting and
    /// inserting an operand that is dead after this call.
    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(a, b, Operand::Transient, Rows::Tensor, out);
    }

    /// Per-row activation scales ([`RowQuantizedMat`]) — the per-tensor
    /// rule the solo path applies to its 1×k activation — against the
    /// cached, prepacked weight: row-identical to per-row
    /// [`Self::matmul`] calls, with the weight converted once per
    /// distinct matrix instead of once per sequence.
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(a, b, Operand::Weight, Rows::PerRow, out);
    }

    /// Per-row activation scales and per-block operand scales
    /// ([`GroupQuantizedMat`]) reproduce the solo transient quantization
    /// of each 1×k query and k×n gathered operand; all `G` products run
    /// in one grouped kernel. Cache-free.
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(a, b, Operand::Transient, Rows::Grouped, out);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::ideal::IdealDac;
    use pdac_core::pdac::PDac;
    use pdac_math::rng::SplitMix64;
    use pdac_math::stats::cosine_similarity;

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    fn pdac8() -> PDac {
        PDac::with_optimal_approx(8).unwrap()
    }

    fn edac8() -> ElectricalDac {
        ElectricalDac::new(8).unwrap()
    }

    fn ideal8() -> IdealDac {
        IdealDac::new(8).unwrap()
    }

    /// Scales block `blk` (rows `blk·block_rows ..`) of `m` by `f` for
    /// each `(blk, f)`; `block_rows = 1` scales single rows.
    fn scale_blocks(m: &mut Mat, block_rows: usize, factors: &[(usize, f64)]) {
        for &(blk, f) in factors {
            for r in blk * block_rows..(blk + 1) * block_rows {
                for v in m.row_slice_mut(r) {
                    *v *= f;
                }
            }
        }
    }

    fn row_of(m: &Mat, r: usize) -> Mat {
        Mat::from_rows(1, m.cols(), m.row_slice(r).to_vec()).unwrap()
    }

    fn block_of(b: &Mat, g: usize, k: usize) -> Mat {
        let n = b.cols();
        Mat::from_rows(k, n, b.as_slice()[g * k * n..(g + 1) * k * n].to_vec()).unwrap()
    }

    /// Every output row of the batched form must match the 1×k matmul of
    /// that row alone — the invariant `decode_batch` is built on.
    fn assert_batch_rows_match(backend: &dyn GemmBackend, a: &Mat, b: &Mat) {
        let batched = backend.matmul_batch(a, b);
        assert_eq!(batched.shape(), (a.rows(), b.cols()));
        for r in 0..a.rows() {
            let single = backend.matmul(&row_of(a, r), b);
            assert_eq!(
                batched.row_slice(r),
                single.row_slice(0),
                "{} row {r}",
                backend.name()
            );
        }
    }

    /// Every output row of the grouped transient form must match the
    /// solo transient matmul of that row against its own stacked block —
    /// the invariant the grouped attention path is built on.
    fn assert_grouped_rows_match(backend: &dyn GemmBackend, a: &Mat, b: &Mat) {
        let (g, k) = a.shape();
        let mut grouped = Mat::zeros(1, 1);
        backend.matmul_grouped_transient_into(a, b, &mut grouped);
        assert_eq!(grouped.shape(), (g, b.cols()));
        let mut solo = Mat::zeros(1, 1);
        for r in 0..g {
            backend.matmul_transient_into(&row_of(a, r), &block_of(b, r, k), &mut solo);
            assert_eq!(
                grouped.row_slice(r),
                solo.row_slice(0),
                "{} group {r}",
                backend.name()
            );
        }
    }

    /// Every analog configuration, with whether it takes the integer
    /// route: P-DAC, e-DAC, ideal, hybrid P-DAC/e-DAC, hybrid ideal/ideal.
    fn analog_configs() -> Vec<(AnalogGemm, bool)> {
        vec![
            (AnalogGemm::new(pdac8(), "pdac8"), false),
            (AnalogGemm::new(edac8(), "edac8"), false),
            (AnalogGemm::new(ideal8(), "ideal8"), true),
            (AnalogGemm::hybrid(pdac8(), edac8(), "hybrid"), false),
            (AnalogGemm::hybrid(ideal8(), ideal8(), "ideal-hybrid"), true),
        ]
    }

    /// The backend identities, checked once for every analog
    /// configuration (and so for both routes): `matmul` ≡ `matmul_into` ≡
    /// `matmul_transient_into`, batch rows ≡ solo rows, grouped rows ≡
    /// solo transients, the raw-value pack is ignored, and the weight
    /// cache sees exactly the weight traffic.
    #[test]
    fn every_analog_config_keeps_the_backend_identities() {
        // Rows and blocks with very different magnitudes: any scale
        // shared across rows or blocks would fail the row identities.
        let mut a = random_mat(5, 16, 63);
        scale_blocks(&mut a, 1, &[(0, 10.0), (1, 0.01)]);
        let b = random_mat(16, 8, 64);
        let (g, k, n) = (5, 8, 6);
        let ga = random_mat(g, k, 101);
        let mut gb = random_mat(g * k, n, 102);
        scale_blocks(&mut gb, k, &[(0, 12.0), (3, 0.02)]);
        for (backend, int8) in analog_configs() {
            let name = backend.name().to_string();
            assert_eq!(backend.int8, int8, "{name} route");
            let traffic = || (backend.cache().misses(), backend.cache().hits());
            let mut out = Mat::zeros(1, 1);

            // Transient and grouped calls never touch the cache.
            assert_grouped_rows_match(&backend, &ga, &gb);
            assert_grouped_rows_match(&backend, &row_of(&ga, 2), &block_of(&gb, 2, k));
            backend.matmul_transient_into(&a, &b, &mut out);
            let transient = out.clone();
            assert_eq!(traffic(), (0, 0), "{name}: transients hit the cache");

            // matmul ≡ matmul_into ≡ matmul_transient_into; one miss,
            // then hits.
            let solo = backend.matmul(&a, &b);
            backend.matmul_into(&a, &b, &mut out);
            assert_eq!(out, solo, "{name}: matmul_into");
            assert_eq!(transient, solo, "{name}: matmul_transient_into");
            assert_eq!(traffic(), (1, 1), "{name}");

            // Batch rows ≡ solo rows: one lookup per call, all hits.
            assert_batch_rows_match(&backend, &a, &b);
            assert_eq!(traffic(), (1, 2 + a.rows() as u64), "{name}");

            // The packed batch form ignores the raw-value pack (analog
            // backends keep packed *converted* weights in their cache).
            let mut via_pack = Mat::zeros(1, 1);
            backend.matmul_batch_packed_into(
                &a,
                &b,
                &|| -> &'static PackedB { unreachable!("analog backends never use the pack") },
                &mut via_pack,
            );
            backend.matmul_batch_into(&a, &b, &mut out);
            assert_eq!(via_pack, out, "{name}: batch_packed");

            // A fresh weight converts once, then answers from the cache
            // for every activation and batch size.
            let before = traffic();
            let w = random_mat(12, 4, 33);
            for step in 0..5 {
                backend.matmul_batch_into(
                    &random_mat(1 + step, 12, 70 + step as u64),
                    &w,
                    &mut out,
                );
            }
            let after = traffic();
            assert_eq!((after.0 - before.0, after.1 - before.1), (1, 4), "{name}");
        }
    }

    /// One `Inf` or `NaN` in one sequence's operands fails that
    /// sequence's row only — on the f64 and integer routes, in the batch
    /// and grouped modes: no panic, an all-NaN row 1, and rows 0 and 2
    /// bit-identical to their solo calls.
    #[test]
    fn non_finite_operand_fails_only_its_own_rows() {
        let (k, n) = (16, 8);
        let w = random_mat(k, n, 301);
        let clean_a = random_mat(3, k, 302);
        let clean_gb = random_mat(3 * k, n, 303);
        let backends = [
            AnalogGemm::new(pdac8(), "pdac8"),
            AnalogGemm::new(ideal8(), "ideal8"),
        ];
        for backend in &backends {
            for bad in [f64::INFINITY, f64::NAN] {
                let label = format!("{} with {bad}", backend.name());
                let mut a = clean_a.clone();
                a.row_slice_mut(1)[5] = bad;
                let mut gb = clean_gb.clone();
                gb.row_slice_mut(k + 3)[2] = bad;
                let mut out = Mat::zeros(1, 1);
                let mut solo = Mat::zeros(1, 1);
                let cases: [(&str, &Mat, &Mat); 3] = [
                    ("batch", &a, &w),
                    ("grouped activation", &a, &clean_gb),
                    ("grouped operand", &clean_a, &gb),
                ];
                for (mode, lhs, rhs) in cases {
                    if rhs.rows() == k {
                        backend.matmul_batch_into(lhs, rhs, &mut out);
                    } else {
                        backend.matmul_grouped_transient_into(lhs, rhs, &mut out);
                    }
                    assert!(
                        out.row_slice(1).iter().all(|v| v.is_nan()),
                        "{label} {mode}: row 1 {:?}",
                        out.row_slice(1)
                    );
                    for r in [0, 2] {
                        if rhs.rows() == k {
                            solo = backend.matmul(&row_of(lhs, r), rhs);
                        } else {
                            backend.matmul_transient_into(
                                &row_of(lhs, r),
                                &block_of(rhs, r, k),
                                &mut solo,
                            );
                        }
                        assert_eq!(
                            out.row_slice(r),
                            solo.row_slice(0),
                            "{label} {mode} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_matches_reference() {
        let a = random_mat(5, 7, 1);
        let b = random_mat(7, 3, 2);
        assert_eq!(ExactGemm.matmul(&a, &b), a.matmul(&b).unwrap());
        assert_eq!(ExactGemm.name(), "exact");
    }

    #[test]
    fn exact_keeps_the_backend_identities() {
        let a = random_mat(6, 16, 61);
        let b = random_mat(16, 8, 62);
        assert_batch_rows_match(&ExactGemm, &a, &b);
        let mut out = Mat::zeros(1, 1);
        ExactGemm.matmul_into(&a, &b, &mut out);
        assert_eq!(out, ExactGemm.matmul(&a, &b));
        ExactGemm.matmul_transient_into(&a, &b, &mut out);
        assert_eq!(out, ExactGemm.matmul(&a, &b));
        let ga = random_mat(5, 8, 101);
        let gb = random_mat(40, 6, 102);
        assert_grouped_rows_match(&ExactGemm, &ga, &gb);
        assert_grouped_rows_match(&ExactGemm, &row_of(&ga, 0), &block_of(&gb, 0, 8));
    }

    #[test]
    fn batch_packed_matches_batch_for_exact() {
        let b = random_mat(16, 8, 105);
        let packed = PackedB::pack(b.as_slice(), 16, 8);
        let mut plain = Mat::zeros(1, 1);
        let mut via_pack = Mat::zeros(1, 1);
        for rows in [1, 2, 6] {
            let a = random_mat(rows, 16, 106 + rows as u64);
            ExactGemm.matmul_batch_into(&a, &b, &mut plain);
            ExactGemm.matmul_batch_packed_into(&a, &b, &|| &packed, &mut via_pack);
            assert_eq!(via_pack, plain, "rows={rows}");
        }
    }

    #[test]
    fn batch_packed_single_row_never_forces_the_pack() {
        let a = random_mat(1, 12, 107);
        let b = random_mat(12, 5, 108);
        let mut out = Mat::zeros(1, 1);
        ExactGemm.matmul_batch_packed_into(
            &a,
            &b,
            &|| -> &'static PackedB { unreachable!("m == 1 must not pack") },
            &mut out,
        );
        assert_eq!(out, ExactGemm.matmul(&a, &b));
    }

    #[test]
    fn analog_pdac_is_close_but_not_exact() {
        let a = random_mat(8, 16, 3);
        let b = random_mat(16, 8, 4);
        let exact = ExactGemm.matmul(&a, &b);
        let got = AnalogGemm::new(pdac8(), "pdac8").matmul(&a, &b);
        assert_ne!(got, exact);
        let cs = cosine_similarity(got.as_slice(), exact.as_slice()).unwrap();
        assert!(cs > 0.99, "cosine similarity {cs}");
    }

    #[test]
    fn higher_precision_improves_analog_gemm() {
        let a = random_mat(8, 16, 7);
        let b = random_mat(16, 8, 8);
        let exact = ExactGemm.matmul(&a, &b);
        let d4 = AnalogGemm::new(PDac::with_optimal_approx(4).unwrap(), "p4")
            .matmul(&a, &b)
            .distance(&exact);
        let d8 = AnalogGemm::new(pdac8(), "p8")
            .matmul(&a, &b)
            .distance(&exact);
        assert!(d8 < d4, "8-bit {d8} vs 4-bit {d4}");
    }

    /// e-DAC beats the hybrid, which beats the P-DAC: each converter's
    /// error lands only on the operand side it drives.
    #[test]
    fn hybrid_accuracy_between_pure_paths() {
        let a = random_mat(8, 16, 21);
        let b = random_mat(16, 8, 22);
        let exact = ExactGemm.matmul(&a, &b);
        let dist = |g: AnalogGemm| g.matmul(&a, &b).distance(&exact);
        let dp = dist(AnalogGemm::new(pdac8(), "pp"));
        let de = dist(AnalogGemm::new(edac8(), "ee"));
        let dh = dist(AnalogGemm::hybrid(pdac8(), edac8(), "hybrid"));
        assert!(de < dh && dh < dp, "{de} < {dh} < {dp} violated");
    }

    #[test]
    #[should_panic(expected = "share a bit width")]
    fn hybrid_rejects_mismatched_bits() {
        AnalogGemm::hybrid(pdac8(), ElectricalDac::new(4).unwrap(), "bad");
    }

    /// The LUT + weight-cache path must reproduce the naive
    /// quantize→scalar-convert→reference-matmul pipeline exactly, on a
    /// miss and on a hit, for every physical driver pair.
    #[test]
    fn cached_path_is_bit_identical_to_direct() {
        let a = random_mat(9, 13, 31);
        let b = random_mat(13, 6, 32);
        let pairs: [(&dyn MzmDriver, &dyn MzmDriver, AnalogGemm); 3] = [
            (&pdac8(), &pdac8(), AnalogGemm::new(pdac8(), "p8")),
            (&edac8(), &edac8(), AnalogGemm::new(edac8(), "e8")),
            (
                &pdac8(),
                &edac8(),
                AnalogGemm::hybrid(pdac8(), edac8(), "hy"),
            ),
        ];
        for (driver_a, driver_b, backend) in pairs {
            let direct_a = QuantizedMat::quantize(&a, 8).dequantize_with(driver_a);
            let direct_b = QuantizedMat::quantize(&b, 8).dequantize_with(driver_b);
            let direct = direct_a.matmul_reference(&direct_b).unwrap();
            assert_eq!(backend.matmul(&a, &b), direct, "{} miss", backend.name());
            assert_eq!(backend.matmul(&a, &b), direct, "{} hit", backend.name());
        }
    }

    #[test]
    fn analog_gemm_zero_operand() {
        let a = Mat::zeros(3, 3);
        let b = random_mat(3, 3, 9);
        let got = AnalogGemm::new(pdac8(), "p8").matmul(&a, &b);
        assert!(got.max_abs() < 1e-12);
    }

    /// The ideal (code-linear) driver must take the integer route, and
    /// its output must be **exactly** `fl(f · Σ ca·cb)` with
    /// `f = fl(fl(s_a/m)·fl(s_b/m))` — the dequantize-at-the-end
    /// contract, checked bit for bit against hand-rolled i32 loops.
    #[test]
    fn ideal_integer_route_matches_integer_reference_bitwise() {
        let a = random_mat(7, 33, 201);
        let b = random_mat(33, 11, 202);
        let ideal = AnalogGemm::new(IdealDac::new(8).unwrap(), "ideal8");
        assert!(ideal.int8);
        let got = ideal.matmul(&a, &b);
        let qa = QuantizedMat::quantize(&a, 8);
        let qb = QuantizedMat::quantize(&b, 8);
        let f = (qa.scale() / 127.0) * (qb.scale() / 127.0);
        for r in 0..7 {
            for c in 0..11 {
                let mut acc = 0i32;
                for kk in 0..33 {
                    acc += qa.codes()[r * 33 + kk] * qb.codes()[kk * 11 + c];
                }
                let want = f * acc as f64;
                assert!(
                    got.row_slice(r)[c].to_bits() == want.to_bits(),
                    "({r},{c}): {} vs {want}",
                    got.row_slice(r)[c]
                );
            }
        }
    }

    /// The integer route reorders only rounding (per-term f64 rounding
    /// becomes exact i32 accumulation + one final multiply), so against
    /// the f64 pipeline it must agree to ~1e-12 relative — not bitwise,
    /// which is impossible across the two rounding orders.
    #[test]
    fn ideal_integer_route_tracks_f64_pipeline_tightly() {
        let a = random_mat(6, 40, 203);
        let b = random_mat(40, 9, 204);
        let driver = IdealDac::new(8).unwrap();
        let got = AnalogGemm::new(driver, "ideal8").matmul(&a, &b);
        let direct_a = QuantizedMat::quantize(&a, 8).dequantize_with(&driver);
        let direct_b = QuantizedMat::quantize(&b, 8).dequantize_with(&driver);
        let direct = direct_a.matmul_reference(&direct_b).unwrap();
        for (g, d) in got.as_slice().iter().zip(direct.as_slice()) {
            let tol = 1e-12 * d.abs().max(1.0);
            assert!((g - d).abs() <= tol, "{g} vs {d}");
        }
    }
}
