//! Automated verification of the paper's qualitative claims against
//! the regenerated results: reads the CSVs a prior `sqs-exp` run wrote
//! into the output directory and prints one PASS/FAIL verdict per
//! claim. This is EXPERIMENTS.md's machine-checkable core.
//!
//! Shape claims, not absolute numbers: who wins, by roughly what
//! factor, and in which direction the curves move (the substrate is a
//! laptop and the real data sets are surrogates, so absolute values
//! differ from the paper by design).

#![expect(
    clippy::indexing_slicing,
    reason = "indices are bounded by the result rows this module builds or has just checked the length of"
)]

use std::collections::HashMap;
use std::path::Path;

use super::ExpConfig;
use crate::report::Table;

/// One parsed CSV: header → column index, plus rows.
struct Csv {
    cols: HashMap<String, usize>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    fn load(dir: &Path, id: &str) -> Option<Csv> {
        let text = std::fs::read_to_string(dir.join(format!("{id}.csv"))).ok()?;
        let mut lines = text.lines();
        let cols = lines
            .next()?
            .split(',')
            .enumerate()
            .map(|(i, h)| (h.to_string(), i))
            .collect();
        let rows = lines
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        Some(Csv { cols, rows })
    }

    fn f(&self, row: &[String], col: &str) -> f64 {
        row[self.cols[col]].parse().unwrap_or(f64::NAN)
    }

    fn s<'a>(&self, row: &'a [String], col: &str) -> &'a str {
        &row[self.cols[col]]
    }

    /// All (x, y) pairs for rows whose `key` column equals `val`.
    fn series(&self, key: &str, val: &str, x: &str, y: &str) -> Vec<(f64, f64)> {
        self.rows
            .iter()
            .filter(|r| self.s(r, key) == val)
            .map(|r| (self.f(r, x), self.f(r, y)))
            .collect()
    }
}

struct Verdicts {
    table: Table,
}

impl Verdicts {
    fn new() -> Self {
        Self {
            table: Table::new(
                "claims",
                "paper-claim verdicts against regenerated results",
                &["claim", "expectation", "measured", "verdict"],
            ),
        }
    }

    fn check(&mut self, claim: &str, expectation: &str, measured: String, pass: Option<bool>) {
        let verdict = match pass {
            Some(true) => "PASS",
            Some(false) => "FAIL",
            None => "SKIP (results missing)",
        };
        self.table.push_row(vec![
            claim.into(),
            expectation.into(),
            measured,
            verdict.into(),
        ]);
    }
}

/// Runs the checker over `cfg.out_dir`.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let dir = &cfg.out_dir;
    let mut v = Verdicts::new();

    // ---- C1: deterministic algorithms never exceed ε (Fig. 5a).
    if let Some(csv) = Csv::load(dir, "fig5a") {
        let mut worst: f64 = 0.0;
        let mut checked = 0;
        for algo in ["GKTheory", "GKAdaptive", "GKArray", "FastQDigest"] {
            for (eps, err) in csv.series("algo", algo, "eps", "max_err") {
                worst = worst.max(err / eps);
                checked += 1;
            }
        }
        v.check(
            "C1 det ≤ eps (Fig5a)",
            "max_err/eps ≤ 1 for all deterministic cells",
            format!("worst ratio {worst:.3} over {checked} cells"),
            Some(worst <= 1.0 + 1e-9 && checked > 0),
        );
    } else {
        v.check(
            "C1 det ≤ eps (Fig5a)",
            "—",
            "fig5a.csv missing".into(),
            None,
        );
    }

    // ---- C2: deterministic average error lands between ~¼ε and ~⅔ε
    // (§4.2.1; we allow a wide band).
    if let Some(csv) = Csv::load(dir, "fig5b") {
        let mut ratios = Vec::new();
        for algo in ["GKAdaptive", "GKArray"] {
            for (eps, err) in csv.series("algo", algo, "eps", "avg_err") {
                ratios.push(err / eps);
            }
        }
        let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().copied().fold(0.0, f64::max);
        v.check(
            "C2 det avg err band (Fig5b)",
            "avg_err/eps within [0.1, 0.8]",
            format!("range [{lo:.2}, {hi:.2}]"),
            Some(lo >= 0.1 && hi <= 0.8),
        );
    }

    // ---- C3: randomized observed errors are well below ε (§4.2.1).
    if let Some(csv) = Csv::load(dir, "fig5a") {
        let mut hi: f64 = 0.0;
        for algo in ["Random", "MRL99"] {
            for (eps, err) in csv.series("algo", algo, "eps", "max_err") {
                hi = hi.max(err / eps);
            }
        }
        v.check(
            "C3 randomized ≪ eps (Fig5a)",
            "max_err/eps < 1 everywhere (typically ≪)",
            format!("worst ratio {hi:.3}"),
            Some(hi < 1.0),
        );
    }

    // ---- C4: FastQDigest uses the most space of the headline algos
    // (§4.2.2) — compare at the tightest common ε.
    if let Some(csv) = Csv::load(dir, "fig5c") {
        let space_at = |algo: &str| -> Option<f64> {
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "algo") == algo)
                .map(|r| csv.f(r, "space_kb"))
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                })
        };
        let qd = space_at("FastQDigest");
        let others: Vec<f64> = ["GKAdaptive", "GKArray", "Random", "MRL99"]
            .iter()
            .filter_map(|a| space_at(a))
            .collect();
        match (
            qd,
            others
                .iter()
                .copied()
                .fold(None::<f64>, |a, s| Some(a.map_or(s, |x| x.max(s)))),
        ) {
            (Some(qd), Some(max_other)) => v.check(
                "C4 q-digest largest (Fig5c)",
                "q-digest max space > every comparison algo's",
                format!("{qd:.0} KB vs max other {max_other:.0} KB"),
                Some(qd > max_other),
            ),
            _ => v.check(
                "C4 q-digest largest (Fig5c)",
                "—",
                "series missing".into(),
                None,
            ),
        }
    }

    // ---- C5: GKAdaptive pays a pointer-chasing penalty that
    // GKArray avoids (Fig. 5e/5f) — compare update time at tight ε.
    if let Some(csv) = Csv::load(dir, "fig5e") {
        let tight = |algo: &str| -> Option<f64> {
            // update_ns of the row with the largest update time (the
            // tight-ε end of the curve).
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "algo") == algo)
                .map(|r| csv.f(r, "update_ns"))
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.max(t)))
                })
        };
        if let (Some(adaptive), Some(array)) = (tight("GKAdaptive"), tight("GKArray")) {
            v.check(
                "C5 GKArray ≫ faster than GKAdaptive (Fig5e)",
                "GKAdaptive worst-case update ≥ 3× GKArray's",
                format!("{adaptive:.0} ns vs {array:.0} ns"),
                Some(adaptive >= 3.0 * array),
            );
        }
    }

    // ---- C6: q-digest gets cheaper with smaller universes (Fig. 6).
    if let Some(csv) = Csv::load(dir, "fig6a") {
        let avg_space = |name: &str| -> Option<f64> {
            let s: Vec<f64> = csv
                .rows
                .iter()
                .filter(|r| csv.s(r, "algo") == name)
                .map(|r| csv.f(r, "space_kb"))
                .collect();
            (!s.is_empty()).then(|| s.iter().sum::<f64>() / s.len() as f64)
        };
        if let (Some(small), Some(big)) = (
            avg_space("FastQDigest(u=2^16)"),
            avg_space("FastQDigest(u=2^32)"),
        ) {
            v.check(
                "C6 q-digest universe scaling (Fig6a)",
                "mean space at u=2^16 < at u=2^32",
                format!("{small:.0} KB vs {big:.0} KB"),
                Some(small < big),
            );
        }
    }

    // ---- C7: update time and space are flat in stream length
    // (Fig. 7) — over the n ≥ 10⁶ points where amortization has
    // settled, max/min ≤ 3 per algorithm.
    for (id, col, claim) in [
        ("fig7a", "update_ns", "C7a time flat in n (Fig7a)"),
        ("fig7b", "space_kb", "C7b space flat in n (Fig7b)"),
    ] {
        if let Some(csv) = Csv::load(dir, id) {
            let mut worst: f64 = 0.0;
            let mut worst_algo = String::new();
            let algos: std::collections::BTreeSet<String> = csv
                .rows
                .iter()
                .map(|r| csv.s(r, "algo").to_string())
                .collect();
            for algo in algos {
                let ys: Vec<f64> = csv
                    .rows
                    .iter()
                    .filter(|r| csv.s(r, "algo") == algo && csv.f(r, "n") >= 1e6)
                    .map(|r| csv.f(r, col))
                    .collect();
                if ys.len() >= 2 {
                    let ratio = ys.iter().copied().fold(0.0, f64::max)
                        / ys.iter().copied().fold(f64::INFINITY, f64::min).max(1e-9);
                    if ratio > worst {
                        worst = ratio;
                        worst_algo = algo;
                    }
                }
            }
            v.check(
                claim,
                "per-algo max/min over n ≥ 1e6 ≤ 3",
                format!("worst ratio {worst:.2} ({worst_algo})"),
                Some(worst <= 3.0 && worst > 0.0),
            );
        }
    }

    // ---- C8: DCS error halves as the sketch doubles (Table 3).
    if let Some(csv) = Csv::load(dir, "tab3") {
        // Row with d = 7 (the paper's tuned depth).
        if let Some(row) = csv.rows.iter().find(|r| csv.s(r, "d") == "7") {
            let small = csv.f(row, "64KB");
            let large = csv.f(row, "4096KB");
            v.check(
                "C8 DCS size scaling (Tab3, d=7)",
                "err(64KB)/err(4096KB) ≥ 8 (6 doublings)",
                format!("{small:.3} → {large:.3} (ratio {:.1})", small / large),
                Some(small / large >= 8.0),
            );
        }
    }

    // ---- C9: Post reduces DCS error, improving as η shrinks (Fig. 9).
    if let Some(csv) = Csv::load(dir, "fig9") {
        let rel_at = |eps: &str, eta: &str| -> Option<f64> {
            csv.rows
                .iter()
                .find(|r| csv.s(r, "eps") == eps && csv.s(r, "eta") == eta)
                .map(|r| csv.f(r, "rel_err"))
        };
        if let (Some(sweet), Some(coarse)) =
            (rel_at("0.0100", "0.1000"), rel_at("0.0100", "1.0000"))
        {
            v.check(
                "C9 Post reduces error (Fig9)",
                "rel_err(η=0.1) < 0.9 and < rel_err(η=1.0)",
                format!("η=0.1: {sweet:.2}, η=1.0: {coarse:.2}"),
                Some(sweet < 0.9 && sweet < coarse + 1e-9),
            );
        }
    }

    // ---- C10: DCS beats DCM on space at equal error, and Post beats
    // DCS at equal space (Fig. 10c).
    if let Some(csv) = Csv::load(dir, "fig10b") {
        let per_eps = |algo: &str| -> HashMap<String, f64> {
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "algo") == algo)
                .map(|r| (csv.s(r, "eps").to_string(), csv.f(r, "avg_err")))
                .collect()
        };
        let dcs = per_eps("DCS");
        let post = per_eps("Post");
        let mut post_wins = 0;
        let mut total = 0;
        for (eps, dcs_err) in &dcs {
            if let Some(post_err) = post.get(eps) {
                total += 1;
                if post_err < dcs_err {
                    post_wins += 1;
                }
            }
        }
        v.check(
            "C10a Post < DCS error (Fig10b)",
            "Post avg error below DCS at (almost) every eps",
            format!("{post_wins}/{total} cells improved"),
            Some(total > 0 && post_wins * 5 >= total * 4),
        );
    }
    if let Some(csv) = Csv::load(dir, "fig10c") {
        // Equal-error space comparison: the space at which each curve
        // reaches the largest error both cover, interpolated log-log
        // between the adjacent sweep points that bracket it (taking the
        // next sweep point instead would charge a curve for error it
        // does not have).
        let series = |algo: &str| csv.series("algo", algo, "space_kb", "avg_err");
        let dcm = series("DCM");
        let dcs = series("DCS");
        if !dcm.is_empty() && !dcs.is_empty() {
            let worst = |s: &[(f64, f64)]| s.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
            let target = worst(&dcs).min(worst(&dcm));
            let space_for = |s: &[(f64, f64)]| {
                s.windows(2)
                    .find(|w| w[0].1 >= target && target >= w[1].1)
                    .map_or(f64::NAN, |w| {
                        let ((s0, e0), (s1, e1)) = (w[0], w[1]);
                        let t = if e0 > e1 {
                            (e0 / target).ln() / (e0 / e1).ln()
                        } else {
                            0.0
                        };
                        s0 * (s1 / s0).powf(t)
                    })
            };
            let (dcm_sp, dcs_sp) = (space_for(&dcm), space_for(&dcs));
            // The paper reports ~10× at n = 87.7M; the factor grows
            // with n (Count-Min's bias compounds), so at the default
            // n = 10⁶ we require ≥ 1.5× and record the measured value
            // (EXPERIMENTS.md tracks the n-scaling).
            v.check(
                "C10b DCS smaller than DCM (Fig10c)",
                "space(DCM) ≥ 1.5× space(DCS) at equal error (paper: ~10× at n=87.7M)",
                format!("{dcm_sp:.0} KB vs {dcs_sp:.0} KB at err = {target:.1e}"),
                Some(dcm_sp >= 1.5 * dcs_sp),
            );
        }
    }

    // ---- C11: smaller universes make the structures smaller at
    // equal accuracy (Fig. 11 — the paper's "more accurate, or
    // equivalently speaking, smaller": the ε-parameterized width
    // already normalizes the error, so the win shows up as space).
    if let Some(csv) = Csv::load(dir, "fig11a") {
        let rows = |name: &str| -> Vec<(String, f64, f64)> {
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "algo") == name)
                .map(|r| {
                    (
                        csv.s(r, "eps").to_string(),
                        csv.f(r, "space_kb"),
                        csv.f(r, "avg_err"),
                    )
                })
                .collect()
        };
        let small: HashMap<String, (f64, f64)> = rows("DCS(u=2^16)")
            .into_iter()
            .map(|(e, s, a)| (e, (s, a)))
            .collect();
        let mut wins = 0;
        let mut total = 0;
        for (eps, sp32, err32) in rows("DCS(u=2^32)") {
            if let Some(&(sp16, err16)) = small.get(&eps) {
                total += 1;
                // Smaller space at comparable (≤ 2×) error.
                if sp16 < sp32 && err16 <= 2.0 * err32.max(1e-9) {
                    wins += 1;
                }
            }
        }
        v.check(
            "C11 universe size (Fig11a)",
            "DCS at u=2^16 smaller than at u=2^32 at comparable error, per eps",
            format!("{wins}/{total} eps cells"),
            Some(total > 0 && wins == total),
        );
    }

    // ---- C12: less skew improves DCS more than DCM (Fig. 12).
    if let Some(csv) = Csv::load(dir, "fig12b") {
        let err_sum = |name: &str| -> f64 {
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "algo") == name)
                .map(|r| csv.f(r, "avg_err"))
                .sum()
        };
        let dcs_gain = err_sum("DCS(s=0.05)") / err_sum("DCS(s=0.25)").max(1e-12);
        let dcm_gain = err_sum("DCM(s=0.05)") / err_sum("DCM(s=0.25)").max(1e-12);
        v.check(
            "C12 skew sensitivity (Fig12b)",
            "spread data helps both; DCS improves ≥ DCM (F₂ effect)",
            format!("DCS gain {dcs_gain:.2}×, DCM gain {dcm_gain:.2}×"),
            Some(dcs_gain >= 1.0 && dcs_gain >= 0.8 * dcm_gain),
        );
    }

    // ---- C13: the turnstile model costs ~an order of magnitude
    // (§4.3.4) against the best cash-register algorithm.
    if let Some(csv) = Csv::load(dir, "xcompare") {
        let best = |model: &str, col: &str| -> f64 {
            csv.rows
                .iter()
                .filter(|r| csv.s(r, "model") == model)
                .map(|r| csv.f(r, col))
                .fold(f64::INFINITY, f64::min)
        };
        let space_ratio = best("turnstile", "space_kb") / best("cash", "space_kb").max(1e-9);
        let time_ratio = best("turnstile", "update_ns") / best("cash", "update_ns").max(1e-9);
        v.check(
            "C13 turnstile premium (xcompare)",
            "≥ 3× space and ≥ 3× time vs cash register",
            format!("space {space_ratio:.1}×, time {time_ratio:.1}×"),
            Some(space_ratio >= 3.0 && time_ratio >= 3.0),
        );
    }

    // ---- C14: RSS is why the paper dropped it (ablation).
    if let Some(csv) = Csv::load(dir, "ablation_rss") {
        let space = |algo: &str| -> f64 {
            csv.rows
                .iter()
                .find(|r| csv.s(r, "algo") == algo)
                .map(|r| csv.f(r, "space_kb"))
                .unwrap_or(f64::NAN)
        };
        let ratio = space("RSS") / space("DCS");
        v.check(
            "C14 RSS impractical (ablation)",
            "space(RSS) ≥ 10× space(DCS) at eps=0.05",
            format!("{ratio:.0}×"),
            Some(ratio >= 10.0),
        );
    }

    vec![v.table]
}
