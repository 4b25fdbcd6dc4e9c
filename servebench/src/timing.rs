//! A `GemmBackend` that times and counts every call into the backend it
//! wraps. Used only by the traced run: the end-to-end run calls the bare
//! backend.
//!
//! Every trait method is delegated explicitly to the same method of the
//! inner backend, so routing (packed, grouped, transient) and therefore
//! the bits are those of the bare backend. Calls the inner backend makes
//! to itself stay inside it and are not counted twice.

use std::cell::RefCell;
use std::time::Instant;

use pdac_math::gemm::PackedB;
use pdac_math::Mat;
use pdac_nn::GemmBackend;

/// The two GEMM families the trait distinguishes: weight-like right
/// operands (may be cached or prepacked) and transient ones built for a
/// single call (attention keys and values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `matmul`, `matmul_into`, `matmul_batch*`: model weights.
    Weight,
    /// `matmul_transient_into`, `matmul_grouped_transient_into`:
    /// attention operands gathered from the KV cache.
    Attn,
}

/// Totals for one [`Kind`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    /// Calls made.
    pub calls: u64,
    /// Left-operand rows summed over calls.
    pub rows: u64,
    /// Multiply-accumulates, `m·k·n` per call (`G·k·n` for grouped).
    pub macs: u64,
    /// Bytes of the f64 operands and output, computed from their shapes
    /// (`8·(|a| + |b| + |out|)`); not a measured memory traffic.
    pub bytes: u64,
    /// Wall time inside the inner backend.
    pub ns: u64,
}

/// Timing and counting wrapper over a backend.
pub struct TimedGemm<'a> {
    inner: &'a dyn GemmBackend,
    stats: RefCell<[KindStats; 2]>,
}

impl<'a> TimedGemm<'a> {
    /// Wraps `inner` with zeroed totals.
    pub fn new(inner: &'a dyn GemmBackend) -> Self {
        Self {
            inner,
            stats: RefCell::new([KindStats::default(); 2]),
        }
    }

    /// Totals for one kind so far.
    pub fn stats(&self, kind: Kind) -> KindStats {
        self.stats.borrow()[kind as usize]
    }

    fn timed<R>(&self, kind: Kind, a: &Mat, b: &Mat, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let (m, k) = a.shape();
        // Grouped calls stack G blocks of k×n in `b`; m·k·n is their
        // MAC count either way, since `b.cols()` is n in both layouts.
        let n = b.cols();
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[kind as usize];
        s.calls += 1;
        s.rows += m as u64;
        s.macs += (m * k * n) as u64;
        s.bytes += 8 * (m * k + b.as_slice().len() + m * n) as u64;
        s.ns += ns;
        out
    }
}

impl GemmBackend for TimedGemm<'_> {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        self.timed(Kind::Weight, a, b, || self.inner.matmul(a, b))
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.timed(Kind::Weight, a, b, || self.inner.matmul_into(a, b, out))
    }

    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.timed(Kind::Weight, a, b, || {
            self.inner.matmul_batch_into(a, b, out)
        })
    }

    fn matmul_batch(&self, a: &Mat, b: &Mat) -> Mat {
        self.timed(Kind::Weight, a, b, || self.inner.matmul_batch(a, b))
    }

    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        self.timed(Kind::Weight, a, b, || {
            self.inner.matmul_batch_packed_into(a, b, packed, out)
        })
    }

    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.timed(Kind::Attn, a, b, || {
            self.inner.matmul_grouped_transient_into(a, b, out)
        })
    }

    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.timed(Kind::Attn, a, b, || {
            self.inner.matmul_transient_into(a, b, out)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Backend};
    use pdac_math::SplitMix64;
    use pdac_nn::{PagedConfig, TransformerConfig, TransformerModel};
    use pdac_serve::{Completion, Request, TokenServer};

    fn decode(model: &TransformerModel, backend: &dyn GemmBackend, paged: bool) -> Vec<Completion> {
        let hidden = model.config().hidden;
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut server = if paged {
            TokenServer::new_paged(model, 3, PagedConfig::new(4))
        } else {
            TokenServer::new(model, 3)
        };
        for id in 0..5 {
            let prompt = (0..2 + id as usize)
                .map(|_| (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect())
                .collect();
            server.admit(Request {
                id,
                prompt,
                max_new_tokens: 3 + id as usize % 2,
            });
        }
        server.run(backend);
        let mut done = server.take_completions();
        done.sort_by_key(|c| c.id);
        done
    }

    fn bits(done: &[Completion]) -> Vec<u64> {
        done.iter()
            .flat_map(|c| c.hidden.iter().flatten().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn wrapped_decode_is_bit_identical_to_bare_for_every_backend() {
        let config = TransformerConfig {
            name: "timing-test".into(),
            layers: 2,
            hidden: 64,
            heads: 4,
            ff_mult: 4,
            seq_len: 16,
        };
        let model = TransformerModel::random(config, 4, 42);
        for kind in [Backend::Pdac, Backend::Exact, Backend::Ideal] {
            let backend = workload::backend(kind);
            for paged in [false, true] {
                let bare = decode(&model, &*backend, paged);
                let timed = TimedGemm::new(&*backend);
                let wrapped = decode(&model, &timed, paged);
                assert_eq!(bits(&bare), bits(&wrapped), "{kind:?} paged={paged}");
                assert!(!bits(&bare).is_empty());
                for k in [Kind::Weight, Kind::Attn] {
                    let s = timed.stats(k);
                    assert!(s.calls > 0 && s.macs > 0 && s.bytes > 0, "{kind:?} {k:?}");
                }
            }
        }
    }

    #[test]
    fn counts_macs_rows_and_bytes_from_shapes() {
        let a = Mat::zeros(3, 4);
        let b = Mat::zeros(4, 5);
        let timed = TimedGemm::new(&pdac_nn::ExactGemm);
        let mut out = Mat::zeros(1, 1);
        timed.matmul_batch_into(&a, &b, &mut out);
        // Grouped: 3 rows, each against its own 4×5 block.
        let stacked = Mat::zeros(12, 5);
        timed.matmul_grouped_transient_into(&a, &stacked, &mut out);
        let w = timed.stats(Kind::Weight);
        assert_eq!(
            (w.calls, w.rows, w.macs, w.bytes),
            (1, 3, 60, 8 * (12 + 20 + 15))
        );
        let g = timed.stats(Kind::Attn);
        assert_eq!(
            (g.calls, g.rows, g.macs, g.bytes),
            (1, 3, 60, 8 * (12 + 60 + 15))
        );
    }
}
