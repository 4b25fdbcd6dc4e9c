#![warn(missing_docs)]

//! Figure-regeneration harness.
//!
//! One function per paper figure, each returning the formatted report its
//! `bin/` wrapper prints. Keeping the logic in the library makes every
//! figure testable: the test suite asserts the regenerated numbers match
//! the paper's within documented tolerances (see EXPERIMENTS.md).
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Fig. 5 (a,b) | [`fig5::report`] | `fig5_power_breakdown` |
//! | Fig. 8 | [`fig8::report`] | `fig8_approx_error` |
//! | Fig. 9 (a,b) | [`fig9_10::report_bert`] | `fig9_bert_energy` |
//! | Fig. 10 (a,b) | [`fig9_10::report_deit`] | `fig10_deit_energy` |
//! | Fig. 11 (a–d) | [`fig11::report`] | `fig11_compute_bound` |
//! | k-sweep ablation | [`ablations::k_sweep`] | `ablation_k_sweep` |
//! | bit-sweep ablation | [`ablations::bit_sweep`] | `ablation_bit_sweep` |
//! | fidelity study | [`fidelity::report`] | `fidelity_study` |

pub mod ablations;
pub mod artifacts;
pub mod bit_error;
pub mod crosstalk;
pub mod decode;
pub mod fidelity;
pub mod fig11;
pub mod fig5;
pub mod fig8;
pub mod fig9_10;
pub mod gate;
pub mod generative;
pub mod hybrid;
pub mod microbench;
pub mod mzi_baseline;
pub mod scaling;

use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, TechParams};

/// The calibrated LT-B power models `(baseline, pdac)` used by every
/// figure.
pub fn lt_b_models() -> (PowerModel, PowerModel) {
    let arch = ArchConfig::lt_b();
    let tech = TechParams::calibrated();
    (
        PowerModel::new(arch.clone(), tech.clone(), DriverKind::ElectricalDac),
        PowerModel::new(arch, tech, DriverKind::PhotonicDac),
    )
}

/// Renders a labelled percentage row for report tables.
pub fn pct_row(label: &str, measured: f64, paper: f64) -> String {
    format!(
        "  {label:<42} measured {measured:>6.1}%   paper {paper:>6.1}%   Δ {delta:>+5.1} pp",
        measured = 100.0 * measured,
        paper = 100.0 * paper,
        delta = 100.0 * (measured - paper),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_construct() {
        let (base, pdac) = lt_b_models();
        assert!(base.breakdown(8).total_watts() > pdac.breakdown(8).total_watts());
    }

    #[test]
    fn pct_row_formats() {
        let row = pct_row("test", 0.123, 0.120);
        assert!(row.contains("12.3%"));
        assert!(row.contains("12.0%"));
        assert!(row.contains("+0.3"));
    }
}
