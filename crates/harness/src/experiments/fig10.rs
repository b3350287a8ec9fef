//! Figure 10: the headline turnstile comparison on MPCAT-OBS —
//! ε vs observed errors (10a/10b), error–space (10c), error–time
//! (10d), space–time (10e) for DCM, DCS and DCS+Post (§4.3.2–4.3.4).
//!
//! Paper findings: observed max error ≈ ε/10 (loose analysis); DCS
//! needs ~1/10 of DCM's space at equal error; Post cuts DCS error by
//! a further 60–80% at no streaming cost; update times are similar.

use super::ExpConfig;
use crate::report::{fkb, fnum, Table};
use crate::runner::{run_turnstile_cell, TurnstileAlgo, TurnstileCell};
use sqs_data::mpcat::{Mpcat, MPCAT_LOG_U};

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let data: Vec<u64> = Mpcat::new(cfg.seed).take(cfg.n).collect();
    let mut cells: Vec<TurnstileCell> = Vec::new();
    for algo in [
        TurnstileAlgo::Dcm,
        TurnstileAlgo::Dcs,
        TurnstileAlgo::Post(0.1),
    ] {
        for &eps in &cfg.eps_sweep_turnstile() {
            cells.push(run_turnstile_cell(
                algo,
                &data,
                eps,
                MPCAT_LOG_U,
                cfg.trials,
                cfg.seed ^ 0x000F_1610,
            ));
        }
    }
    panels(&cells, "fig10", "MPCAT-OBS surrogate")
}

/// The five turnstile panels (shared with Figures 11/12 variants).
pub fn panels(cells: &[TurnstileCell], prefix: &str, dataset: &str) -> Vec<Table> {
    let mk = |suffix: &str, title: &str, headers: &[&str]| {
        Table::new(
            &format!("{prefix}{suffix}"),
            &format!("{title} ({dataset})"),
            headers,
        )
    };
    let mut a = mk(
        "a",
        "eps vs observed max error",
        &["algo", "eps", "max_err"],
    );
    let mut b = mk(
        "b",
        "eps vs observed avg error",
        &["algo", "eps", "avg_err"],
    );
    let mut c = mk("c", "space vs avg error", &["algo", "space_kb", "avg_err"]);
    let mut d = mk(
        "d",
        "update time vs avg error",
        &["algo", "update_ns", "avg_err"],
    );
    let mut e = mk(
        "e",
        "space vs update time",
        &["algo", "space_kb", "update_ns"],
    );
    for cell in cells {
        let algo = cell.algo.to_string();
        a.push_row(vec![algo.clone(), fnum(cell.eps), fnum(cell.max_err)]);
        b.push_row(vec![algo.clone(), fnum(cell.eps), fnum(cell.avg_err)]);
        c.push_row(vec![
            algo.clone(),
            fkb(cell.space_bytes),
            fnum(cell.avg_err),
        ]);
        d.push_row(vec![algo.clone(), fnum(cell.update_ns), fnum(cell.avg_err)]);
        e.push_row(vec![algo, fkb(cell.space_bytes), fnum(cell.update_ns)]);
    }
    vec![a, b, c, d, e]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_turnstile::{new_dcm, new_dcs};
    use sqs_util::SpaceUsage;

    fn committed(name: &str) -> String {
        let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("results/{name}: {e}"))
    }

    /// The space column a DCM / DCS / Post row must carry.
    fn want_kb(algo: &str, eps: f64, log_u: u32) -> Option<String> {
        let bytes = match algo {
            "DCM" => new_dcm(eps, log_u, 0).space_bytes(),
            "DCS" | "Post" => new_dcs(eps, log_u, 0).space_bytes(),
            _ => return None,
        };
        Some(fkb(bytes))
    }

    /// Space is data-independent, so every committed DCM / DCS space
    /// column — Fig. 10c at both stream lengths, Fig. 11a and xcompare —
    /// must agree with the same structures built empty from this tree:
    /// a sizing or layout change (a level cutoff, a row's coefficient
    /// count, which levels keep a sketch) that did not regenerate
    /// `results/` trips here in milliseconds.
    #[test]
    fn committed_fig10c_space_is_this_trees() {
        // Fig. 10c rows carry no ε column: they follow the sweep.
        for name in ["fig10c.csv", "fig10c_n10m.csv"] {
            let csv = committed(name);
            let mut rows = csv.lines().skip(1);
            for algo in ["DCM", "DCS", "Post"] {
                for eps in ExpConfig::default().eps_sweep_turnstile() {
                    let row = rows.next().unwrap_or_default();
                    let want = format!(
                        "{algo},{},",
                        want_kb(algo, eps, MPCAT_LOG_U).unwrap_or_default()
                    );
                    assert!(
                        row.starts_with(&want),
                        "{name} row {row:?} should start {want:?} (eps = {eps}): \
                         regenerate results/ with `sqs-exp fig10`"
                    );
                }
            }
            assert_eq!(rows.next(), None, "{name} has rows past the sweep");
        }
        // Fig. 11a: algo,log_u,eps,space_kb,… with algo `DCS(u=2^16)`;
        // xcompare: model,algo,eps,avg_err,space_kb,… at MPCAT's u.
        let mut checked = 0;
        for (name, algo, log_u, eps, kb) in [
            ("fig11a.csv", 0, Some(1), 2, 3),
            ("xcompare.csv", 1, None, 2, 4),
        ] {
            for row in committed(name).lines().skip(1) {
                let f: Vec<&str> = row.split(',').collect();
                let algo = f[algo].split('(').next().unwrap_or_default();
                let log_u = log_u.map_or(Ok(MPCAT_LOG_U), |i: usize| f[i].parse());
                let (Ok(log_u), Ok(eps)) = (log_u, f[eps].parse::<f64>()) else {
                    continue; // Fig. 11a's exact-counting row
                };
                if let Some(want) = want_kb(algo, eps, log_u) {
                    assert_eq!(
                        f[kb],
                        want,
                        "{name} row {row:?}: regenerate results/ with `sqs-exp {}`",
                        name.trim_end_matches(".csv").trim_end_matches('a')
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 36 + 4, "Fig. 11a and xcompare turnstile rows");
    }
}
