//! Terminal plots of the result CSVs: `sqs-exp plot <figure>` renders
//! the same series the paper's figures draw, as an ASCII scatter with
//! optional log axes — enough to eyeball the crossovers and slopes the
//! study is about without leaving the terminal.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and casts are bounded by the grids and rows this module builds itself"
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (non-positive points are dropped).
    Log,
}

/// One renderable figure: series of (x, y) points keyed by label.
#[derive(Debug, Clone)]
pub struct Plot {
    /// Plot title.
    pub title: String,
    /// X-axis label and scale.
    pub x: (String, Scale),
    /// Y-axis label and scale.
    pub y: (String, Scale),
    /// Labeled series.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

/// Marker glyphs assigned to series in insertion order.
const MARKS: &[char] = &['o', '+', 'x', '*', '#', '@', '%', '&', '$', '~'];

impl Plot {
    /// Loads a plot from a results CSV: groups rows by `label_col` and
    /// takes (`x_col`, `y_col`) points.
    pub fn from_csv(
        dir: &Path,
        id: &str,
        label_col: &str,
        x_col: &str,
        y_col: &str,
        x_scale: Scale,
        y_scale: Scale,
    ) -> Result<Plot, String> {
        let path = dir.join(format!("{id}.csv"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let headers: Vec<&str> = lines.next().ok_or("empty csv")?.split(',').collect();
        let col = |name: &str| -> Result<usize, String> {
            headers
                .iter()
                .position(|h| *h == name)
                .ok_or_else(|| format!("{id}.csv has no column {name}"))
        };
        let (li, xi, yi) = (col(label_col)?, col(x_col)?, col(y_col)?);
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() <= li.max(xi).max(yi) {
                continue;
            }
            if let (Ok(x), Ok(y)) = (cells[xi].parse::<f64>(), cells[yi].parse::<f64>()) {
                series
                    .entry(cells[li].to_string())
                    .or_default()
                    .push((x, y));
            }
        }
        if series.is_empty() {
            return Err(format!("{id}.csv produced no plottable points"));
        }
        Ok(Plot {
            title: id.to_string(),
            x: (x_col.to_string(), x_scale),
            y: (y_col.to_string(), y_scale),
            series,
        })
    }

    /// Renders the plot as `width × height` ASCII (plus legend/axes).
    pub fn render(&self, width: usize, height: usize) -> String {
        let width = width.clamp(20, 200);
        let height = height.clamp(8, 60);
        let tx = |v: f64, s: Scale| match s {
            Scale::Linear => Some(v),
            Scale::Log => (v > 0.0).then(|| v.log10()),
        };
        // Collect transformed points per series.
        let pts: Vec<(usize, Vec<(f64, f64)>)> = self
            .series
            .values()
            .enumerate()
            .map(|(i, ps)| {
                let tps = ps
                    .iter()
                    .filter_map(|&(x, y)| Some((tx(x, self.x.1)?, tx(y, self.y.1)?)))
                    .collect();
                (i, tps)
            })
            .collect();
        let all: Vec<(f64, f64)> = pts.iter().flat_map(|(_, ps)| ps.iter().copied()).collect();
        if all.is_empty() {
            return format!("== {} — no plottable points\n", self.title);
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if x1 - x0 < 1e-12 {
            x1 = x0 + 1.0;
        }
        if y1 - y0 < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, ps) in &pts {
            let mark = MARKS[si % MARKS.len()];
            for &(x, y) in ps {
                let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
                let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
                let row = height - 1 - cy.min(height - 1);
                let col = cx.min(width - 1);
                // Later series overwrite; collisions show the last mark.
                grid[row][col] = mark;
            }
        }
        let unscale = |v: f64, s: Scale| match s {
            Scale::Linear => v,
            Scale::Log => 10f64.powf(v),
        };
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} vs {}", self.title, self.y.0, self.x.0);
        let _ = writeln!(
            out,
            "{:>11} +{}",
            fmt_tick(unscale(y1, self.y.1)),
            "-".repeat(width)
        );
        for (i, row) in grid.iter().enumerate() {
            let label = if i == height - 1 {
                format!("{:>11} |", fmt_tick(unscale(y0, self.y.1)))
            } else {
                format!("{:>11} |", "")
            };
            let _ = writeln!(out, "{label}{}", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "{:>13}{:>width$}",
            fmt_tick(unscale(x0, self.x.1)),
            fmt_tick(unscale(x1, self.x.1)),
            width = width - 6
        );
        let _ = writeln!(out, "  scales: x={:?} y={:?}", self.x.1, self.y.1);
        for (i, name) in self.series.keys().enumerate() {
            let _ = writeln!(out, "  {} {}", MARKS[i % MARKS.len()], name);
        }
        out
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 10_000.0 || v.abs() < 0.01 {
        format!("{v:.1e}")
    } else {
        format!("{v:.3}")
    }
}

/// The plottable figures: id → (csv, label col, x col, y col, scales).
pub const PLOTS: &[(&str, &str, &str, &str, &str, Scale, Scale)] = &[
    (
        "fig5a",
        "fig5a",
        "algo",
        "eps",
        "max_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig5b",
        "fig5b",
        "algo",
        "eps",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig5c",
        "fig5c",
        "algo",
        "space_kb",
        "max_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig5d",
        "fig5d",
        "algo",
        "space_kb",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig5e",
        "fig5e",
        "algo",
        "update_ns",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig5f",
        "fig5f",
        "algo",
        "space_kb",
        "update_ns",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig6a",
        "fig6a",
        "algo",
        "space_kb",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig6b",
        "fig6b",
        "algo",
        "update_ns",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig7a",
        "fig7a",
        "algo",
        "n",
        "update_ns",
        Scale::Log,
        Scale::Linear,
    ),
    (
        "fig7b",
        "fig7b",
        "algo",
        "n",
        "space_kb",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig9",
        "fig9",
        "eps",
        "eta",
        "rel_err",
        Scale::Log,
        Scale::Linear,
    ),
    (
        "fig10a",
        "fig10a",
        "algo",
        "eps",
        "max_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig10b",
        "fig10b",
        "algo",
        "eps",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig10c",
        "fig10c",
        "algo",
        "space_kb",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig10d",
        "fig10d",
        "algo",
        "update_ns",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig10e",
        "fig10e",
        "algo",
        "space_kb",
        "update_ns",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig11a",
        "fig11a",
        "algo",
        "space_kb",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig11b",
        "fig11b",
        "algo",
        "update_ns",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig12a",
        "fig12a",
        "algo",
        "eps",
        "max_err",
        Scale::Log,
        Scale::Log,
    ),
    (
        "fig12b",
        "fig12b",
        "algo",
        "eps",
        "avg_err",
        Scale::Log,
        Scale::Log,
    ),
];

/// Renders a figure by id from `dir`, or explains what's available.
pub fn plot_by_id(dir: &Path, id: &str, width: usize, height: usize) -> Result<String, String> {
    let spec = PLOTS.iter().find(|(pid, ..)| *pid == id).ok_or_else(|| {
        format!(
            "no plot spec for {id}; available: {}",
            PLOTS.iter().map(|p| p.0).collect::<Vec<_>>().join(" ")
        )
    })?;
    let (_, csv, label, x, y, xs, ys) = *spec;
    Ok(Plot::from_csv(dir, csv, label, x, y, xs, ys)?.render(width, height))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_csv(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(
            dir.join("fig5a.csv"),
            "algo,eps,max_err\nA,0.1,0.05\nA,0.01,0.005\nB,0.1,0.02\nB,0.01,0.002\n",
        )
        .unwrap();
    }

    #[test]
    fn renders_points_and_legend() {
        let dir = std::env::temp_dir().join("sqs_plot_test");
        write_csv(&dir);
        let out = plot_by_id(&dir, "fig5a", 60, 16).unwrap();
        assert!(out.contains("fig5a"));
        assert!(out.contains("o A"));
        assert!(out.contains("+ B"));
        assert!(out.contains('o'), "marks plotted");
        assert!(out.lines().count() > 16);
    }

    #[test]
    fn unknown_plot_lists_options() {
        let dir = std::env::temp_dir().join("sqs_plot_test2");
        let err = plot_by_id(&dir, "nope", 40, 10).unwrap_err();
        assert!(err.contains("available"));
        assert!(err.contains("fig10c"));
    }

    #[test]
    fn missing_csv_is_a_clean_error() {
        let dir = std::env::temp_dir().join("sqs_plot_test3");
        let err = plot_by_id(&dir, "fig7a", 40, 10).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn log_scale_drops_nonpositive() {
        let dir = std::env::temp_dir().join("sqs_plot_test4");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("fig5a.csv"),
            "algo,eps,max_err\nA,0.1,0\nA,0.01,0.005\n",
        )
        .unwrap();
        let out = plot_by_id(&dir, "fig5a", 40, 10).unwrap();
        assert!(out.contains("fig5a")); // renders the surviving point
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let p = Plot {
            title: "t".into(),
            x: ("x".into(), Scale::Linear),
            y: ("y".into(), Scale::Linear),
            series: [("s".to_string(), vec![(1.0, 2.0), (1.0, 2.0)])]
                .into_iter()
                .collect(),
        };
        let out = p.render(30, 10);
        assert!(out.contains("o s"));
    }
}
