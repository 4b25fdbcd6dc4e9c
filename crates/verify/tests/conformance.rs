//! The full conformance matrix as integration tests: every differential
//! backend-pair check and every fault sweep must hold on every build.

use pdac_verify::conformance::{run_conformance, run_fault_sweeps, ConformanceConfig};
use pdac_verify::report::ConformanceReport;
use pdac_verify::CheckKind;

fn failing(report: &ConformanceReport) -> String {
    report
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| {
            format!(
                "{} ({}): worst {:.3e} budget {:.3e} — {}",
                c.name,
                c.kind.label(),
                c.worst,
                c.budget,
                c.detail
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn backend_pair_matrix_is_green() {
    let report = run_conformance(&ConformanceConfig::default());
    assert!(
        report.passed(),
        "conformance failures:\n{}",
        failing(&report)
    );
    // The matrix must actually exercise every guarantee class.
    for kind in [
        CheckKind::BitIdentity,
        CheckKind::Tolerance,
        CheckKind::Invariant,
    ] {
        assert!(
            report.checks.iter().any(|c| c.kind == kind),
            "no {} checks ran",
            kind.label()
        );
    }
    assert!(
        report.checks.len() >= 42,
        "matrix shrank: {}",
        report.checks.len()
    );
}

#[test]
fn fault_sweeps_degrade_gracefully() {
    pdac_telemetry::enable();
    pdac_telemetry::reset();
    let checks = run_fault_sweeps(&ConformanceConfig::default());
    let report = ConformanceReport { checks };
    assert!(
        report.passed(),
        "fault-sweep failures:\n{}",
        failing(&report)
    );
    assert!(report.checks.iter().any(|c| c.kind == CheckKind::Monotone));

    // Degradation evidence must be quarantined into the telemetry
    // histograms, not silently discarded.
    let snapshot = pdac_telemetry::snapshot();
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "verify.fault.mean_abs_error")
        .expect("fault sweep histogram recorded");
    assert!(hist.count >= 12, "expected one observation per sweep point");
}

#[test]
fn seed_changes_operands_but_not_verdicts() {
    let mut cfg = ConformanceConfig::default();
    cfg.gemm_shapes.truncate(2);
    cfg.seed = 0xDEADBEEF;
    let report = run_conformance(&cfg);
    assert!(report.passed(), "reseeded failures:\n{}", failing(&report));
}
