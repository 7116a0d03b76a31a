//! Table and figure renderers for the Chapter-5 reproductions.

use std::fmt::Write as _;

use crate::experiment::{AreaComparison, TimingSweep, VariabilityStudy};

/// Renders Table 5.1 / 5.2 (area results, synchronous vs desynchronized).
pub fn render_area_table(cmp: &AreaComparison) -> String {
    let mut out = String::new();
    let pct = AreaComparison::pct;
    let _ = writeln!(
        out,
        "Area results for synchronous and desynchronized {} (Table 5.1/5.2 shape)",
        cmp.name
    );
    let _ = writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>10}",
        "phase / property", "sync", "desync", "% overhead"
    );
    let s = &cmp.sync_synth;
    let d = &cmp.desync_synth;
    let rows = [
        ("post-synth  # nets", s.nets as f64, d.nets as f64),
        ("post-synth  # cells", s.cells as f64, d.cells as f64),
        ("post-synth  cell area", s.cell_area, d.cell_area),
        (
            "post-synth  combinational",
            s.combinational,
            d.combinational,
        ),
        ("post-synth  sequential", s.sequential, d.sequential),
    ];
    for (name, a, b) in rows {
        let _ = writeln!(out, "{name:<34} {a:>14.2} {b:>14.2} {:>9.2}%", pct(a, b));
    }
    let sl = &cmp.sync_layout;
    let dl = &cmp.desync_layout;
    let rows = [
        ("post-layout # nets", sl.nets as f64, dl.nets as f64),
        ("post-layout # cells", sl.cells as f64, dl.cells as f64),
        (
            "post-layout std cell area",
            sl.std_cell_area,
            dl.std_cell_area,
        ),
        ("post-layout core size", sl.core_size, dl.core_size),
    ];
    for (name, a, b) in rows {
        let _ = writeln!(out, "{name:<34} {a:>14.2} {b:>14.2} {:>9.2}%", pct(a, b));
    }
    let _ = writeln!(
        out,
        "{:<34} {:>13.2}% {:>13.2}% {:>9.2}%",
        "post-layout core utilization",
        sl.utilization,
        dl.utilization,
        pct(sl.utilization, dl.utilization),
    );
    out
}

/// Renders Fig. 5.3 (operational period vs delay selection).
pub fn render_timing_figure(sweep: &TimingSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Operational period vs delay selection for {} (Fig. 5.3 shape)",
        sweep.name
    );
    let _ = writeln!(
        out,
        "{:>9} {:>16} {:>16}   (× = too-short delay elements)",
        "selection", "best case (ns)", "worst case (ns)"
    );
    for (b, w) in sweep.best.iter().zip(sweep.worst.iter()) {
        let mark = |ok: bool| if ok { " " } else { "×" };
        let _ = writeln!(
            out,
            "{:>9} {:>15.3}{} {:>15.3}{}",
            b.selection,
            b.period_ns,
            mark(b.flow_equivalent),
            w.period_ns,
            mark(w.flow_equivalent),
        );
    }
    let _ = writeln!(
        out,
        "synchronous reference: best {:.3} ns, worst {:.3} ns",
        sweep.sync_best_period, sweep.sync_worst_period
    );
    out
}

/// Renders Fig. 5.5 (total power vs delay selection).
pub fn render_power_figure(sweep: &TimingSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Total power vs delay selection for {} (Fig. 5.5 shape)",
        sweep.name
    );
    let _ = writeln!(
        out,
        "{:>9} {:>16} {:>16}",
        "selection", "best case (mW)", "worst case (mW)"
    );
    for (b, w) in sweep.best.iter().zip(sweep.worst.iter()) {
        let _ = writeln!(
            out,
            "{:>9} {:>16.3} {:>16.3}",
            b.selection, b.power_total, w.power_total
        );
    }
    let _ = writeln!(
        out,
        "synchronous reference: best {:.3} mW, worst {:.3} mW",
        sweep.sync_best_power, sweep.sync_worst_power
    );
    out
}

/// Renders Fig. 5.4 (real operation delay distribution) as a histogram.
pub fn render_variability_figure(study: &VariabilityStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Real operation delay for {} over {} chips (Fig. 5.4 shape)",
        study.name,
        study.desync_periods.len()
    );
    let min = study
        .desync_periods
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let max = study.desync_periods.iter().copied().fold(0.0f64, f64::max);
    const BINS: usize = 24;
    let mut bins = [0usize; BINS];
    for &p in &study.desync_periods {
        let i = (((p - min) / (max - min + 1e-12)) * BINS as f64) as usize;
        bins[i.min(BINS - 1)] += 1;
    }
    let peak = bins.iter().copied().max().unwrap_or(1).max(1);
    for (i, &count) in bins.iter().enumerate() {
        let lo = min + (max - min) * i as f64 / BINS as f64;
        let bar = "#".repeat(count * 40 / peak);
        let marker = if lo <= study.sync_worst_period
            && study.sync_worst_period < lo + (max - min) / BINS as f64
        {
            "  <-- sync worst-case clock"
        } else {
            ""
        };
        let _ = writeln!(out, "{lo:>7.3} ns |{bar}{marker}");
    }
    let _ = writeln!(
        out,
        "desynchronized chips faster than the synchronous worst case: {:.1}%",
        study.fraction_faster * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{AreaRow, SweepRow};
    use crate::LayoutResult;

    fn row(x: f64) -> AreaRow {
        AreaRow {
            nets: (x as usize) * 10,
            cells: (x as usize) * 9,
            cell_area: x * 100.0,
            combinational: x * 60.0,
            sequential: x * 40.0,
        }
    }

    fn layout(x: f64) -> LayoutResult {
        LayoutResult {
            nets: (x as usize) * 11,
            cells: (x as usize) * 10,
            std_cell_area: x * 110.0,
            core_size: x * 120.0,
            utilization: 95.0 - x,
            fanout_buffers: 1,
            tree_buffers: 2,
        }
    }

    #[test]
    fn area_table_renders_all_rows() {
        let cmp = AreaComparison {
            name: "DLX".into(),
            sync_synth: row(10.0),
            desync_synth: row(12.0),
            sync_layout: layout(10.0),
            desync_layout: layout(12.0),
        };
        let text = render_area_table(&cmp);
        assert!(text.contains("post-synth  sequential"));
        assert!(text.contains("core utilization"));
        assert!(text.contains("20.00%"));
    }

    #[test]
    fn figures_render() {
        let mk = |sel: u8, ok: bool| SweepRow {
            selection: sel,
            period_ns: 2.0 + sel as f64 * 0.3,
            flow_equivalent: ok,
            power_total: 100.0 - sel as f64,
            power_dynamic: 90.0,
        };
        let sweep = TimingSweep {
            name: "DLX".into(),
            best: (0..=7).rev().map(|s| mk(s, s >= 2)).collect(),
            worst: (0..=7).rev().map(|s| mk(s, s >= 2)).collect(),
            sync_best_period: 1.14,
            sync_worst_period: 2.44,
            sync_best_power: 120.0,
            sync_worst_power: 60.0,
        };
        let t = render_timing_figure(&sweep);
        assert!(t.contains("selection"));
        assert!(t.contains("×"), "{t}");
        let p = render_power_figure(&sweep);
        assert!(p.contains("mW"));
        let study = VariabilityStudy {
            name: "DLX".into(),
            sync_worst_period: 2.44,
            sync_best_period: 1.14,
            desync_periods: (0..100).map(|i| 1.4 + i as f64 * 0.015).collect(),
            fraction_faster: 0.9,
        };
        let v = render_variability_figure(&study);
        assert!(v.contains("90.0%"));
    }
}
