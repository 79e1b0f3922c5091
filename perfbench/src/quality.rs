//! Design-quality metrics and the per-study output checks.

use pe_hw::{CostModel, CostScenario, ExactCostModel};
use pe_mlp::ax_to_hardware;
use printed_axc::{fingerprint_json, Selected};

/// Width of the GA's feasibility bound above the baseline test error:
/// the hypervolume reference point's error coordinate.
const FEASIBILITY_PP: f64 = 0.10;

/// What one study's selected design achieved against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyQuality {
    pub area_x: f64,
    pub power_x: f64,
    pub acc_loss_pp: f64,
    pub front_hv: f64,
}

/// Hypervolume dominated by `points` (both coordinates minimised) inside
/// the box bounded by `reference`. Points outside the box add nothing.
pub fn hypervolume_2d(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut inside: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < reference.0 && y < reference.1)
        .collect();
    inside.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut hv = 0.0;
    let mut floor = reference.1;
    for (x, y) in inside {
        if y < floor {
            hv += (reference.0 - x) * (floor - y);
            floor = y;
        }
    }
    hv
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quality of one study; `None` when it selected no design.
pub fn study_quality(selected: &Selected) -> Option<StudyQuality> {
    let design = selected.selected.as_ref()?;
    let costed = &selected.searched.costed;
    let base = &costed.baseline_report;
    let base_acc = costed.baseline_test_accuracy;
    let front: Vec<(f64, f64)> = selected
        .searched
        .outcome
        .front
        .iter()
        .map(|p| (p.report.area_cm2 / base.area_cm2, 1.0 - p.test_accuracy))
        .collect();
    Some(StudyQuality {
        area_x: base.area_cm2 / design.report.area_cm2,
        power_x: base.power_mw / design.report.power_mw,
        acc_loss_pp: 100.0 * (base_acc - design.test_accuracy),
        front_hv: hypervolume_2d(&front, (1.0, 1.0 - base_acc + FEASIBILITY_PP)),
    })
}

/// Why a study's output is wrong, or `None` when it passes: the selected
/// design must stay within the study's own loss budget and re-cost to
/// its reported area and power under a fresh exact model. Selecting
/// nothing is a real outcome of a small budget, not a wrong output.
pub fn check_study(selected: &Selected, scenario: &CostScenario) -> Option<String> {
    let design = selected.selected.as_ref()?;
    let loss = selected.searched.costed.baseline_test_accuracy - design.test_accuracy;
    if loss > selected.loss_budget + 1e-12 {
        return Some(format!(
            "accuracy loss {loss} exceeds the budget {}",
            selected.loss_budget
        ));
    }
    let Some(mlp) = design.network.ax() else {
        return Some("selected design is not an approximate MLP".into());
    };
    let report = ExactCostModel::new(scenario.clone()).report(&ax_to_hardware(mlp, "recost"));
    if report.area_cm2 != design.report.area_cm2 || report.power_mw != design.report.power_mw {
        return Some(format!(
            "re-costing gives {} cm2 / {} mW, the study reported {} cm2 / {} mW",
            report.area_cm2, report.power_mw, design.report.area_cm2, design.report.power_mw
        ));
    }
    None
}

/// Digest of a `Selected` artifact. The search's wall-clock field is
/// zeroed first: it is a timing, not part of the design.
pub fn digest(selected: &Selected) -> u64 {
    let mut normalized = selected.clone();
    normalized.searched.outcome.ga_wall = std::time::Duration::ZERO;
    fingerprint_json(&normalized)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn hypervolume_of_a_staircase() {
        // Slabs of the staircase: 0.8 wide * 0.5 high, 0.5 wide * 0.3 high.
        let hv = hypervolume_2d(&[(0.5, 0.2), (0.2, 0.5)], (1.0, 1.0));
        assert!(close(hv, 0.4 + 0.15), "{hv}");
    }

    #[test]
    fn hypervolume_ignores_dominated_and_outside_points() {
        let base = hypervolume_2d(&[(0.25, 0.25)], (1.0, 0.5));
        assert!(close(base, 0.75 * 0.25));
        let noisy = hypervolume_2d(
            &[
                (0.25, 0.25),
                (0.5, 0.3),
                (1.2, 0.0),
                (0.1, 0.6),
                (0.25, 0.25),
            ],
            (1.0, 0.5),
        );
        assert!(close(noisy, base), "{noisy}");
        assert_eq!(hypervolume_2d(&[], (1.0, 1.0)), 0.0);
    }

    #[test]
    fn hypervolume_does_not_depend_on_point_order() {
        let pts = [(0.1, 0.4), (0.3, 0.2), (0.6, 0.1), (0.2, 0.3)];
        let mut rev = pts;
        rev.reverse();
        let hv = hypervolume_2d(&pts, (1.0, 0.5));
        assert!(close(hv, hypervolume_2d(&rev, (1.0, 0.5))));
        // One 0.1-high slab per point, reaching from its area to 1.
        assert!(close(hv, 0.09 + 0.08 + 0.07 + 0.04), "{hv}");
    }

    #[test]
    fn geometric_mean_of_reductions() {
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[5.0]), 5.0));
        assert!(close(geomean(&[1.0, 10.0, 100.0]), 10.0));
        assert!(close(mean(&[1.0, 2.0, 6.0]), 3.0));
    }
}
