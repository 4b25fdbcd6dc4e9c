//! Cross-crate integration tests for the extensions beyond the paper:
//! the minimax-trimmed converter, the MZI-mesh baseline, KV-cache
//! decoding, device-variation trimming and the physical DPTC tile engine
//! all composing through the facade.

use pdac::accel::dptc::DptcCore;
use pdac::core::minimax::{minimax_three_segment, ThreeSegmentParams};
use pdac::core::pdac::PDac;
use pdac::core::spec::PDacSpec;
use pdac::core::MzmDriver;
use pdac::math::Mat;
use pdac::nn::generative::decode_trace;
use pdac::nn::inference::TransformerModel;
use pdac::nn::workload::op_trace;
use pdac::nn::{AnalogGemm, ExactGemm, TransformerConfig};
use pdac::photonics::mzi_mesh::MziMeshPtc;
use pdac::power::energy::savings;
use pdac::power::model::{DriverKind, PowerModel};
use pdac::power::{ArchConfig, EnergyModel, TechParams};

#[test]
fn minimax_pdac_halves_worst_case_error() {
    let paper = PDac::with_optimal_approx(8).unwrap();
    let trimmed = PDac::with_minimax_approx(8).unwrap();
    let worst = |d: &PDac| {
        (1..=127)
            .map(|c| {
                let ideal = d.ideal_value(c);
                ((d.convert(c) - ideal) / ideal).abs()
            })
            .fold(0.0f64, f64::max)
    };
    let wp = worst(&paper);
    let wt = worst(&trimmed);
    assert!(wp > 0.08, "paper worst {wp}");
    assert!(wt < 0.05, "minimax worst {wt}");
}

#[test]
fn minimax_design_reports_same_hardware_as_paper_design() {
    let paper = PDacSpec::from_pdac(&PDac::with_optimal_approx(8).unwrap(), 1e-3);
    let trimmed = PDacSpec::from_pdac(&PDac::with_minimax_approx(8).unwrap(), 1e-3);
    assert_eq!(paper.component_counts, trimmed.component_counts);
    assert_eq!(
        paper.comparator_thresholds.len(),
        trimmed.comparator_thresholds.len()
    );
}

#[test]
fn minimax_params_equioscillate_better_than_paper() {
    let paper = ThreeSegmentParams::paper().objective(10_001);
    let trimmed = minimax_three_segment(3).objective(10_001);
    assert!(trimmed < paper * 0.6, "trimmed {trimmed} vs paper {paper}");
}

#[test]
fn mesh_ptc_and_ddot_agree_numerically() {
    // The two PTC styles must compute the same product; only their
    // (re)programming economics differ.
    let n = 8;
    let w = Mat::from_fn(n, n, |r, c| (((r * 5 + c * 3) % 13) as f64 / 13.0) - 0.45);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) - 0.3).collect();
    let mesh = MziMeshPtc::program(&w).unwrap();
    let mesh_out = mesh.matvec(&x);
    let ddot = pdac::photonics::DDotUnit::ideal(n);
    let ddot_out: Vec<f64> = (0..n).map(|r| ddot.dot(&w.row(r), &x).unwrap()).collect();
    for (a, b) in mesh_out.iter().zip(&ddot_out) {
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }
}

#[test]
fn decode_energy_saving_is_far_below_prefill() {
    let arch = ArchConfig::lt_b();
    let tech = TechParams::calibrated();
    let be = EnergyModel::new(PowerModel::new(
        arch.clone(),
        tech.clone(),
        DriverKind::ElectricalDac,
    ));
    let pe = EnergyModel::new(PowerModel::new(arch, tech, DriverKind::PhotonicDac));
    let config = TransformerConfig::bert_base();
    let prefill = op_trace(&config);
    let decode = decode_trace(&config, 512, 16);
    let sp = savings(&be.energy(&prefill, 8), &pe.energy(&prefill, 8)).total;
    let sd = savings(&be.energy(&decode, 8), &pe.energy(&decode, 8)).total;
    assert!(sp > 0.30, "prefill {sp}");
    assert!(sd < 0.05, "decode {sd}");
}

#[test]
fn kv_cache_decode_runs_under_analog_backend() {
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, 17);
    let backend = AnalogGemm::new(PDac::with_minimax_approx(8).unwrap(), "minimax");
    let mut cache = model.new_cache();
    let mut last = Vec::new();
    for t in 0..4 {
        last = model.decode_step(&model.random_input(t).row(0), &mut cache, &backend);
    }
    assert_eq!(cache.seq_len(0), 4);
    assert_eq!(last.len(), 32);
    // Compare against the exact decode of the same stream.
    let mut exact_cache = model.new_cache();
    let mut exact_last = Vec::new();
    for t in 0..4 {
        exact_last = model.decode_step(&model.random_input(t).row(0), &mut exact_cache, &ExactGemm);
    }
    let cs = pdac::math::stats::cosine_similarity(&last, &exact_last).unwrap();
    assert!(cs > 0.9, "cosine {cs}");
}

#[test]
fn dptc_tile_engine_accepts_any_driver() {
    let x = Mat::from_fn(4, 8, |r, c| ((r + c) as f64 / 12.0) - 0.4);
    let y = Mat::from_fn(8, 4, |r, c| ((r * c % 5) as f64 / 5.0) - 0.3);
    let exact = x.matmul(&y).unwrap();
    for driver in [
        Box::new(PDac::with_optimal_approx(8).unwrap()) as Box<dyn MzmDriver>,
        Box::new(PDac::with_minimax_approx(8).unwrap()),
        Box::new(pdac::core::ElectricalDac::new(8).unwrap()),
    ] {
        let core = DptcCore::new(4, 4, 8, driver);
        let run = core.run_tile(&x, &y).unwrap();
        let rel = run.output.distance(&exact) / exact.max_abs();
        assert!(rel < 0.2, "relative distance {rel}");
        assert_eq!(run.conversions, 64);
    }
}

#[test]
fn datasheet_round_trips_through_tia_bank() {
    // The spec's resistances drive a real photonics TiaBank and land on
    // the same analog value the converter produces.
    let pdac = PDac::with_optimal_approx(8).unwrap();
    let spec = PDacSpec::from_pdac(&pdac, 2e-3);
    let region = &spec.regions[1];
    let bank = pdac::photonics::devices::tia::TiaBank::new(region.tia_feedback_ohms.clone());
    let code = 100; // in region 1 (codes 92..=127)
    let currents: Vec<f64> = (0..7)
        .map(|i| {
            if (code >> (6 - i)) & 1 != 0 {
                2e-3
            } else {
                0.0
            }
        })
        .collect();
    let v = region.bias_volts + bank.sum_voltage(&currents);
    assert!((v.cos() - pdac.convert(code)).abs() < 1e-12);
}
