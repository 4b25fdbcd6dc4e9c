//! Tensor quantization onto the converter code grid.
//!
//! Before modulation, activations and weights are quantized per-tensor
//! with a symmetric scale (the largest magnitude maps to the full-scale
//! code). Dequantization happens physically: the MZM emits
//! `scale · driver.convert(code)` — so replacing the ideal driver with a
//! P-DAC injects exactly the approximation error of paper Sec. III-C into
//! every operand.
//!
//! A block (tensor, row or row block) holding an `Inf` or `NaN` gets a
//! NaN scale: it quantizes without failing and dequantizes to all-NaN,
//! so bad input poisons exactly the GEMM outputs it feeds.

use pdac_core::converter::MzmDriver;
use pdac_math::quant::abs_max;
use pdac_math::{Mat, Quantizer};

/// The shared scale rule: symmetric `max|x|`, unit scale for all-zero
/// data so the quantizer stays valid, and NaN for data holding an `Inf`
/// or `NaN` — the block then dequantizes to all-NaN, so every output a
/// non-finite block feeds is NaN and nothing else changes.
#[inline]
fn scale_of(xs: &[f64]) -> f64 {
    let m = abs_max(xs);
    // A branch-free OR over every element vectorizes; an early-exit
    // `any` does not, and this scan runs on every quantized block.
    if !m.is_finite() || xs.iter().fold(false, |nan, x| nan | x.is_nan()) {
        f64::NAN
    } else if m == 0.0 {
        1.0
    } else {
        m
    }
}

/// The quantizer for a [`scale_of`] scale. A non-finite block's codes
/// are never seen (its NaN scale poisons them on dequantization), so it
/// quantizes at unit scale instead of failing.
#[inline]
fn quantizer(bits: u8, scale: f64) -> Quantizer {
    let scale = if scale.is_nan() { 1.0 } else { scale };
    Quantizer::new(bits, scale).expect("validated bit width and positive scale")
}

/// A tensor quantized to signed codes with one per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMat {
    codes: Vec<i32>,
    rows: usize,
    cols: usize,
    scale: f64,
    bits: u8,
}

impl QuantizedMat {
    /// Quantizes `x` at `bits` precision with the symmetric per-tensor
    /// scale `max|x|` (scale 1 for an all-zero tensor).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn quantize(x: &Mat, bits: u8) -> Self {
        Self::quantize_with_scale(x, bits, scale_of(x.as_slice()))
    }

    /// Quantizes with a percentile-clipped scale: the scale is the
    /// `percentile`-th largest magnitude instead of the absolute max, and
    /// outliers saturate. For heavy-tailed activations this pushes the
    /// bulk of values toward full scale — where both the quantizer grid
    /// is denser relative to the signal and the P-DAC is most accurate
    /// (it is exact at ±1) — at the cost of clipping rare outliers.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` or `percentile` outside
    /// `(0, 1]`.
    pub fn quantize_clipped(x: &Mat, bits: u8, percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile <= 1.0,
            "percentile must lie in (0, 1]"
        );
        let mut mags: Vec<f64> = x.as_slice().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite magnitudes"));
        let idx = ((mags.len() as f64 * percentile).ceil() as usize).clamp(1, mags.len()) - 1;
        let scale = if mags[idx] == 0.0 { 1.0 } else { mags[idx] };
        Self::quantize_with_scale(x, bits, scale)
    }

    fn quantize_with_scale(x: &Mat, bits: u8, scale: f64) -> Self {
        let q = quantizer(bits, scale);
        let mut codes = Vec::new();
        q.quantize_slice(x.as_slice(), &mut codes);
        Self {
            codes,
            rows: x.rows(),
            cols: x.cols(),
            scale,
            bits,
        }
    }

    /// Per-tensor scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Bit precision.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Ideal dequantization (no converter error).
    pub fn dequantize_ideal(&self) -> Mat {
        let unit = quantizer(self.bits, 1.0);
        let data = self
            .codes
            .iter()
            .map(|&c| unit.dequantize(c) * self.scale)
            .collect();
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }

    /// Physical dequantization through an MZM drive path: every element
    /// becomes `scale · driver.convert(code)`.
    ///
    /// Converts the whole code slice with one [`MzmDriver::convert_all`]
    /// call — a single virtual dispatch instead of one per element, so
    /// table-backed drivers ([`pdac_core::ConverterLut`]) run their tight
    /// lookup loop. Bit-identical to per-element `convert`.
    ///
    /// # Panics
    ///
    /// Panics if the driver's bit width differs from the tensor's.
    pub fn dequantize_with(&self, driver: &dyn MzmDriver) -> Mat {
        assert_eq!(driver.bits(), self.bits, "driver/tensor bit width mismatch");
        let mut data = driver.convert_all(&self.codes);
        for v in &mut data {
            *v *= self.scale;
        }
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }
}

/// A tensor quantized to signed codes with one symmetric scale **per
/// row**.
///
/// The batched decode engine stacks the current-token activations of S
/// independent sequences into one S×hidden matrix. Quantizing that stack
/// per-tensor would couple the sequences (one outlier row rescales all
/// of them) and break the bit-identity between `decode_batch` and S
/// separate `decode_step` calls. Per-row scales restore independence:
/// row `r` of [`Self::quantize`] + [`Self::dequantize_with`] is
/// bit-identical to [`QuantizedMat::quantize`] of the 1×cols matrix
/// holding row `r` alone (same scale rule, same codes, same conversion).
#[derive(Debug, Clone, PartialEq)]
pub struct RowQuantizedMat {
    codes: Vec<i32>,
    rows: usize,
    cols: usize,
    scales: Vec<f64>,
    bits: u8,
}

impl RowQuantizedMat {
    /// Quantizes each row of `x` at `bits` precision with that row's
    /// symmetric scale `max|row|` (scale 1 for an all-zero row) — the
    /// exact per-tensor rule of [`QuantizedMat::quantize`] applied row
    /// by row.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn quantize(x: &Mat, bits: u8) -> Self {
        let mut codes = Vec::with_capacity(x.rows() * x.cols());
        let mut scales = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row_slice(r);
            let scale = scale_of(row);
            let q = quantizer(bits, scale);
            q.quantize_slice(row, &mut codes);
            scales.push(scale);
        }
        Self {
            codes,
            rows: x.rows(),
            cols: x.cols(),
            scales,
            bits,
        }
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Bit precision.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Physical dequantization through an MZM drive path: element
    /// `(r, c)` becomes `scales[r] · driver.convert(code)`, matching
    /// [`QuantizedMat::dequantize_with`] row for row.
    ///
    /// # Panics
    ///
    /// Panics if the driver's bit width differs from the tensor's.
    pub fn dequantize_with(&self, driver: &dyn MzmDriver) -> Mat {
        assert_eq!(driver.bits(), self.bits, "driver/tensor bit width mismatch");
        let mut data = driver.convert_all(&self.codes);
        for (row, &scale) in data.chunks_exact_mut(self.cols).zip(&self.scales) {
            for v in row {
                *v *= scale;
            }
        }
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }
}

/// A tensor quantized to signed codes with one symmetric scale **per
/// block of rows**.
///
/// The grouped attention path stacks the transient right operands of G
/// independent sequences (each `block_rows × cols`: a gathered Kᵀ or V
/// matrix) into one `(G·block_rows) × cols` matrix. The solo decode path
/// quantizes each of those operands per-tensor
/// ([`QuantizedMat::quantize`]); per-block scales reproduce that exactly:
/// block `g` of [`Self::quantize`] + [`Self::dequantize_with`] is
/// bit-identical to [`QuantizedMat::quantize`] of block `g` alone (same
/// scale rule, same codes, same conversion).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupQuantizedMat {
    codes: Vec<i32>,
    rows: usize,
    cols: usize,
    block_rows: usize,
    scales: Vec<f64>,
    bits: u8,
}

impl GroupQuantizedMat {
    /// Quantizes each `block_rows`-row block of `x` at `bits` precision
    /// with that block's symmetric scale `max|block|` (scale 1 for an
    /// all-zero block) — the per-tensor rule of
    /// [`QuantizedMat::quantize`] applied block by block.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`, `block_rows` is zero, or
    /// `x.rows()` is not a multiple of `block_rows`.
    pub fn quantize(x: &Mat, block_rows: usize, bits: u8) -> Self {
        assert!(block_rows > 0, "block_rows must be nonzero");
        assert_eq!(
            x.rows() % block_rows,
            0,
            "row count must be a whole number of blocks"
        );
        let cols = x.cols();
        let block_len = block_rows * cols;
        let mut codes = Vec::with_capacity(x.rows() * cols);
        let mut scales = Vec::with_capacity(x.rows() / block_rows);
        for block in x.as_slice().chunks_exact(block_len) {
            let scale = scale_of(block);
            let q = quantizer(bits, scale);
            q.quantize_slice(block, &mut codes);
            scales.push(scale);
        }
        Self {
            codes,
            rows: x.rows(),
            cols,
            block_rows,
            scales,
            bits,
        }
    }

    /// Per-block scales.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Bit precision.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Rows per quantization block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Raw codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Physical dequantization through an MZM drive path: every element
    /// of block `g` becomes `scales[g] · driver.convert(code)`, matching
    /// [`QuantizedMat::dequantize_with`] block for block.
    ///
    /// # Panics
    ///
    /// Panics if the driver's bit width differs from the tensor's.
    pub fn dequantize_with(&self, driver: &dyn MzmDriver) -> Mat {
        assert_eq!(driver.bits(), self.bits, "driver/tensor bit width mismatch");
        let mut data = driver.convert_all(&self.codes);
        let block_len = self.block_rows * self.cols;
        for (block, &scale) in data.chunks_exact_mut(block_len).zip(&self.scales) {
            for v in block {
                *v *= scale;
            }
        }
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }
}

/// Quantizes `x` per-tensor into `i16` codes (the integer-GEMM operand
/// form), returning the scale. Exactly [`QuantizedMat::quantize`]'s scale
/// rule and code arithmetic — same codes, narrower storage. `codes` is
/// clear-and-reused scratch.
pub(crate) fn quantize_tensor_i16(xs: &[f64], bits: u8, codes: &mut Vec<i16>) -> f64 {
    let scale = scale_of(xs);
    let q = quantizer(bits, scale);
    codes.clear();
    codes.resize(xs.len(), 0);
    q.quantize_slice_i16(xs, codes);
    scale
}

/// Quantizes each `block_rows`-row block of `x` into `i16` codes with
/// per-block scales — [`GroupQuantizedMat::quantize`]'s arithmetic
/// (`block_rows == 1` gives [`RowQuantizedMat::quantize`]'s). `codes`
/// and `scales` are clear-and-reused scratch.
///
/// # Panics
///
/// Panics if `x.rows()` is not a multiple of `block_rows`.
pub(crate) fn quantize_blocks_i16(
    x: &Mat,
    block_rows: usize,
    bits: u8,
    codes: &mut Vec<i16>,
    scales: &mut Vec<f64>,
) {
    assert!(block_rows > 0, "block_rows must be nonzero");
    assert_eq!(
        x.rows() % block_rows,
        0,
        "row count must be a whole number of blocks"
    );
    let block_len = block_rows * x.cols();
    codes.clear();
    codes.resize(x.rows() * x.cols(), 0);
    scales.clear();
    for (block, out) in x
        .as_slice()
        .chunks_exact(block_len)
        .zip(codes.chunks_exact_mut(block_len))
    {
        let scale = scale_of(block);
        let q = quantizer(bits, scale);
        q.quantize_slice_i16(block, out);
        scales.push(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;

    fn ramp() -> Mat {
        Mat::from_fn(4, 4, |r, c| (r as f64 - 1.5) * 0.4 + (c as f64 - 1.5) * 0.1)
    }

    #[test]
    fn quantize_preserves_shape_and_scale() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        assert_eq!(q.shape(), (4, 4));
        assert_eq!(q.bits(), 8);
        assert!((q.scale() - x.max_abs()).abs() < 1e-12);
    }

    #[test]
    fn ideal_round_trip_error_bounded() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let back = q.dequantize_ideal();
        let step = q.scale() / 127.0;
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let x = Mat::zeros(2, 2);
        let q = QuantizedMat::quantize(&x, 8);
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.dequantize_ideal().as_slice(), &[0.0; 4]);
    }

    #[test]
    fn pdac_dequantization_respects_error_bound() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let ideal = q.dequantize_ideal();
        let analog = q.dequantize_with(&pdac);
        for (i, (a, b)) in ideal.as_slice().iter().zip(analog.as_slice()).enumerate() {
            if a.abs() > 1e-9 {
                assert!(((a - b) / a).abs() < 0.086, "elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn edac_dequantization_is_tighter_than_pdac() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let edac = ElectricalDac::new(8).unwrap();
        let ideal = q.dequantize_ideal();
        let ep = q.dequantize_with(&pdac).distance(&ideal);
        let ee = q.dequantize_with(&edac).distance(&ideal);
        assert!(ee < ep);
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn mismatched_driver_bits_rejected() {
        let q = QuantizedMat::quantize(&ramp(), 8);
        let pdac = PDac::with_optimal_approx(4).unwrap();
        q.dequantize_with(&pdac);
    }

    fn heavy_tailed() -> Mat {
        // Mostly small values with one large outlier.
        let mut data = vec![0.1; 63];
        data.push(10.0);
        Mat::from_rows(8, 8, data).unwrap()
    }

    #[test]
    fn clipped_scale_ignores_outliers() {
        let x = heavy_tailed();
        let full = QuantizedMat::quantize(&x, 8);
        let clipped = QuantizedMat::quantize_clipped(&x, 8, 0.95);
        assert_eq!(full.scale(), 10.0);
        assert!(clipped.scale() < 0.2, "clipped scale {}", clipped.scale());
    }

    #[test]
    fn clipping_improves_bulk_reconstruction() {
        // With a 10.0 outlier, the full-scale grid step is 10/127 ≈ 0.08
        // — comparable to the 0.1 bulk values themselves. Clipping the
        // scale to the bulk restores them nearly exactly.
        let x = heavy_tailed();
        let bulk_err = |q: &QuantizedMat| {
            let back = q.dequantize_ideal();
            x.as_slice()
                .iter()
                .zip(back.as_slice())
                .filter(|(v, _)| v.abs() < 1.0)
                .map(|(v, b)| (v - b).abs())
                .fold(0.0f64, f64::max)
        };
        let full = QuantizedMat::quantize(&x, 8);
        let clipped = QuantizedMat::quantize_clipped(&x, 8, 0.95);
        assert!(bulk_err(&clipped) < bulk_err(&full) / 10.0);
    }

    #[test]
    fn full_percentile_matches_plain_quantize() {
        let x = ramp();
        let a = QuantizedMat::quantize(&x, 8);
        let b = QuantizedMat::quantize_clipped(&x, 8, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn zero_percentile_rejected() {
        QuantizedMat::quantize_clipped(&ramp(), 8, 0.0);
    }

    #[test]
    fn row_quantize_rows_match_per_tensor_single_rows() {
        // The batching invariant: each row of the row-quantized stack is
        // bit-identical to per-tensor quantization of that row alone.
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(77);
        let x = Mat::from_fn(5, 12, |_, _| rng.gen_range_f64(-3.0, 3.0));
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let batched = RowQuantizedMat::quantize(&x, 8);
        assert_eq!(batched.shape(), (5, 12));
        let deq = batched.dequantize_with(&pdac);
        for r in 0..x.rows() {
            let row = Mat::from_rows(1, 12, x.row_slice(r).to_vec()).unwrap();
            let single = QuantizedMat::quantize(&row, 8);
            assert_eq!(batched.scales()[r], single.scale(), "row {r}");
            let single_deq = single.dequantize_with(&pdac);
            assert_eq!(deq.row_slice(r), single_deq.row_slice(0), "row {r}");
        }
    }

    #[test]
    fn row_quantize_zero_row_uses_unit_scale() {
        let mut x = Mat::from_fn(2, 4, |_, c| c as f64 + 1.0);
        x.row_slice_mut(1).fill(0.0);
        let q = RowQuantizedMat::quantize(&x, 8);
        assert_eq!(q.scales()[1], 1.0);
        assert_eq!(q.bits(), 8);
        assert!(q.codes()[4..].iter().all(|&c| c == 0));
        // The zero row dequantizes exactly as a per-tensor zero row would
        // (the driver's code-0 level, whatever it is, times unit scale).
        let edac = ElectricalDac::new(8).unwrap();
        let zero_row = Mat::zeros(1, 4);
        let single = QuantizedMat::quantize(&zero_row, 8);
        assert_eq!(
            q.dequantize_with(&edac).row_slice(1),
            single.dequantize_with(&edac).row_slice(0)
        );
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn row_quantize_rejects_mismatched_driver_bits() {
        let q = RowQuantizedMat::quantize(&ramp(), 8);
        q.dequantize_with(&PDac::with_optimal_approx(4).unwrap());
    }

    #[test]
    fn group_quantize_blocks_match_per_tensor_single_blocks() {
        // The grouped-attention invariant: each block of the stacked
        // quantization is bit-identical to per-tensor quantization of
        // that block alone.
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(91);
        let (groups, block_rows, cols) = (4, 3, 6);
        let mut x = Mat::from_fn(groups * block_rows, cols, |_, _| {
            rng.gen_range_f64(-2.0, 2.0)
        });
        // Give blocks very different magnitudes so a shared per-tensor
        // scale would fail the comparison.
        for (g, f) in [(0usize, 8.0), (2, 0.05)] {
            for r in 0..block_rows {
                for v in x.row_slice_mut(g * block_rows + r) {
                    *v *= f;
                }
            }
        }
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let stacked = GroupQuantizedMat::quantize(&x, block_rows, 8);
        assert_eq!(stacked.shape(), (groups * block_rows, cols));
        assert_eq!(stacked.block_rows(), block_rows);
        let deq = stacked.dequantize_with(&pdac);
        for g in 0..groups {
            let mut data = Vec::new();
            for r in 0..block_rows {
                data.extend_from_slice(x.row_slice(g * block_rows + r));
            }
            let block = Mat::from_rows(block_rows, cols, data).unwrap();
            let single = QuantizedMat::quantize(&block, 8);
            assert_eq!(stacked.scales()[g], single.scale(), "block {g}");
            let single_deq = single.dequantize_with(&pdac);
            for r in 0..block_rows {
                assert_eq!(
                    deq.row_slice(g * block_rows + r),
                    single_deq.row_slice(r),
                    "block {g} row {r}"
                );
            }
        }
    }

    #[test]
    fn group_quantize_zero_block_uses_unit_scale() {
        let mut x = Mat::from_fn(4, 3, |_, c| c as f64 + 1.0);
        x.row_slice_mut(2).fill(0.0);
        x.row_slice_mut(3).fill(0.0);
        let q = GroupQuantizedMat::quantize(&x, 2, 8);
        assert_eq!(q.scales()[1], 1.0);
        assert!(q.codes()[6..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "whole number of blocks")]
    fn group_quantize_rejects_ragged_blocks() {
        GroupQuantizedMat::quantize(&ramp(), 3, 8);
    }

    #[test]
    fn i16_helpers_emit_the_same_codes_as_the_public_types() {
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(123);
        let x = Mat::from_fn(6, 10, |_, _| rng.gen_range_f64(-4.0, 4.0));
        let mut codes = vec![7i16; 3]; // stale scratch must be overwritten
        let mut scales = vec![0.5f64];

        let scale = quantize_tensor_i16(x.as_slice(), 8, &mut codes);
        let tensor = QuantizedMat::quantize(&x, 8);
        assert_eq!(scale, tensor.scale());
        let as32: Vec<i32> = codes.iter().map(|&c| c as i32).collect();
        assert_eq!(as32, tensor.codes());

        quantize_blocks_i16(&x, 1, 8, &mut codes, &mut scales);
        let rows = RowQuantizedMat::quantize(&x, 8);
        assert_eq!(scales, rows.scales());
        let as32: Vec<i32> = codes.iter().map(|&c| c as i32).collect();
        assert_eq!(as32, rows.codes());

        quantize_blocks_i16(&x, 3, 8, &mut codes, &mut scales);
        let blocks = GroupQuantizedMat::quantize(&x, 3, 8);
        assert_eq!(scales, blocks.scales());
        let as32: Vec<i32> = codes.iter().map(|&c| c as i32).collect();
        assert_eq!(as32, blocks.codes());
    }
}
