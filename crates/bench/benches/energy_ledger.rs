//! Joules per generated token under the three drive paths: one metered
//! decode per batch records the executed activity in an
//! [`pdac_power::meter::EnergyMeter`], priced under the e-DAC, P-DAC and
//! hybrid [`EnergyModel`]s (three views of the same activity, so the
//! ratios carry no timing noise). The shape is fixed at hidden 3072 (below
//! ~2K the driver-independent terms dominate), 1 layer, 16 heads, 2
//! prompt + 4 generated tokens, 2 trials. Emits `BENCH_energy.json` with
//! the gated `edac_over_{pdac,hybrid}_j_per_tok` per batch and, at batch
//! 8, the gated `meter_overhead` (best meter-off vs best meter-on over 4
//! alternating pairs). Batch 8 asserts P-DAC joules/token ≤ 0.55× e-DAC
//! (weight-resident accounting, DESIGN.md §13) and metering under 2%.

use pdac_bench::decode::{
    best, best_overhead, decode_secs, interleave, per, prompt_tokens, spread_fields, write_bench,
    DecodeShape,
};
use pdac_nn::ExactGemm;
use pdac_power::meter::{self, EnergyMeter};
use pdac_power::model::DriverKind::{ElectricalDac, Hybrid, PhotonicDac};
use pdac_power::model::PowerModel;
use pdac_power::{ArchConfig, EnergyModel, TechParams};
use pdac_telemetry::Json;

const SHAPE: DecodeShape = DecodeShape::of([3072, 1, 16, 2, 4]);
const TRIALS: usize = 2;
/// Meter-off / meter-on pairs at batch 8.
const OVERHEAD_TRIALS: usize = 4;
/// Budget for P-DAC joules/token over e-DAC at batch 8.
const MAX_RATIO: f64 = 0.55;
/// Budget for the metering overhead fraction.
const MAX_OVERHEAD: f64 = 0.02;

fn main() {
    let model = SHAPE.model("energy-bench");
    let (arch, tech) = (ArchConfig::lt_b(), TechParams::calibrated());
    let priced = |d| EnergyModel::new(PowerModel::new(arch.clone(), tech.clone(), d));
    let [pdac, edac, hybrid] = [PhotonicDac, ElectricalDac, Hybrid].map(priced);
    let (mut records, mut ratio, mut overhead) = (Vec::new(), f64::INFINITY, 0.0);
    for s in [1usize, 4, 8] {
        let prompt = prompt_tokens(SHAPE.hidden, s, SHAPE.prompt, 0, 11 + s as u64);
        let tokens = (s * (SHAPE.prompt + SHAPE.gen)) as f64;
        let run = || decode_secs(&model, &ExactGemm, &prompt, SHAPE.gen);
        decode_secs(&model, &ExactGemm, &prompt, 1); // untimed warm pass
        let live = meter::install(EnergyMeter::new(pdac.clone(), 8));
        // Batch 8 pairs meter-off (side 0) with meter-on runs.
        let sides = if s == 8 { 2 } else { 1 };
        let reps = if s == 8 { OVERHEAD_TRIALS } else { TRIALS };
        let times = interleave(reps, sides, |side| {
            if side + 1 == sides {
                live.reset();
                return run();
            }
            meter::uninstall();
            let elapsed = run();
            meter::install_shared(live.clone());
            elapsed
        });
        let trace = live.counts();
        meter::uninstall();

        let on = &times[sides - 1];
        let [pdac_j, edac_j, hybrid_j] =
            [&pdac, &edac, &hybrid].map(|m| m.energy(&trace, 8).total_j() / tokens);
        let (over_pdac, over_hybrid, tps) =
            (edac_j / pdac_j, edac_j / hybrid_j, per(tokens, best(on)));
        let mut fields = vec![
            ("batch".into(), Json::Int(s as u64)),
            ("elapsed_s".into(), Json::Num(best(on))),
            ("tokens_per_s".into(), Json::Num(tps)),
            ("pdac_j_per_tok".into(), Json::Num(pdac_j)),
            ("edac_j_per_tok".into(), Json::Num(edac_j)),
            ("hybrid_j_per_tok".into(), Json::Num(hybrid_j)),
            ("edac_over_pdac_j_per_tok".into(), Json::Num(over_pdac)),
            ("edac_over_hybrid_j_per_tok".into(), Json::Num(over_hybrid)),
        ];
        print!(
            "energy_ledger/batch{s}: {tps:>9.1} tok/s  pdac {pdac_j:.3e} J/tok  \
             edac {edac_j:.3e} J/tok (pdac/edac {:.4})",
            pdac_j / edac_j
        );
        if s == 8 {
            (ratio, overhead) = (pdac_j / edac_j, best_overhead(on, &times[0]));
            fields.push(("meter_overhead".into(), Json::Num(overhead)));
            fields.extend(spread_fields(on, &times[0]));
            print!("  meter_overhead {:.2}%", overhead * 100.0);
        }
        println!();
        records.push(Json::Obj(fields));
    }
    let doc = SHAPE.doc("energy_ledger", records);
    write_bench("BENCH_energy.json", doc);

    let pct = overhead * 100.0;
    assert!(ratio <= MAX_RATIO, "P-DAC/e-DAC J/token {ratio:.4}");
    assert!(overhead < MAX_OVERHEAD, "metering costs {pct:.2}%");
    println!("energy_ledger: pdac/edac {ratio:.4} <= {MAX_RATIO}, metering {pct:.2}% < 2% OK");
}
