//! How the flow's cost grows with design size.
//!
//! Generates stepped synthetic pipelines via `drd_check::netgen` (one
//! region per stage, STA-dominated clouds) and runs the full flow on
//! each, writing the curve to `BENCH_scale.json`.
//!
//! The flow runs traced, three times per step; each pass keeps its
//! minimum wall time, and its growth exponent is the least-squares slope
//! of log wall time against log cells over the steps. Any pass that takes
//! at least [`GATED_PASS_NS`] on the largest step and grows faster than
//! [`MAX_EXPONENT`] fails the run, and so does any pass of the standard
//! pipeline left without an exponent.
//!
//! Also guards `Regions::region_of`, probed with cell ids: per-lookup
//! cost must stay roughly flat as the design grows (a linear scan would
//! scale with the region sizes, making the DDG loop quadratic). Any
//! violation exits non-zero after the report is written.

use std::time::Instant;

use drd_check::netgen::NetRecipe;
use drd_check::Rng;
use drd_core::region::{clean_for_grouping, group, GroupingOptions};
use drd_core::{DesyncOptions, Desynchronizer, Pipeline};
use drd_liberty::vlib90;
use drd_netlist::CellId;

/// (stages, cloud gates per stage, register lanes per stage) steps.
const STEPS: [(usize, usize, usize); 5] = [
    (4, 60, 4),
    (4, 120, 6),
    (6, 200, 8),
    (8, 320, 8),
    (12, 600, 16),
];

/// Traced runs per step; each pass keeps its minimum.
const TRACED_RUNS: usize = 3;

/// Largest growth exponent a gated pass may show.
const MAX_EXPONENT: f64 = 1.2;

/// Passes faster than this on the largest step are reported, not gated:
/// their exponents fit timer noise.
const GATED_PASS_NS: u128 = 1_000_000;

/// Largest growth of per-lookup `region_of` cost from the smallest to the
/// largest step. The largest step is ~29x the smallest; a linear scan
/// would scale proportionally, the dense id index stays flat. Generous
/// for timer noise.
const MAX_LOOKUP_RATIO: f64 = 8.0;

struct Point {
    label: String,
    cells: usize,
    regions: usize,
    serial_ns: u128,
    /// `(pass, minimum wall ns)` in pipeline order.
    pass_ns: Vec<(&'static str, u128)>,
}

/// Least-squares slope of `ln y` against `ln x`: the growth exponent of a
/// cost `y` in a size `x`. `None` with fewer than two distinct sizes.
fn growth_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if pts.len() < 2 || sxx < 1e-12 {
        return None;
    }
    Some(pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / sxx)
}

fn main() {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("library prepares");
    let opts = DesyncOptions::default();
    let mut rng = Rng::new(0x5CA1_E0DD);

    let mut points: Vec<Point> = Vec::new();
    let mut lookup_ns: Vec<f64> = Vec::new();
    for (stages, cloud, width) in STEPS {
        let module = NetRecipe::stepped(&mut rng, stages, cloud, width)
            .build()
            .expect("recipe builds");
        let cells = module.cells().count();

        let run = || {
            let input = module.clone();
            let start = Instant::now();
            let (result, trace) = tool.run(input, &opts);
            let result = result.expect("flow runs");
            (
                start.elapsed().as_nanos(),
                trace,
                result.report.regions.len(),
            )
        };
        let (mut serial_ns, trace, regions) = run();
        let mut pass_ns: Vec<(&'static str, u128)> =
            trace.passes.iter().map(|p| (p.name, p.wall_ns)).collect();
        for _ in 1..TRACED_RUNS {
            let (wall, trace, _) = run();
            serial_ns = serial_ns.min(wall);
            for (slot, p) in pass_ns.iter_mut().zip(&trace.passes) {
                slot.1 = slot.1.min(p.wall_ns);
            }
        }

        // Per-lookup cost of region lookup at this size (the S2 guard).
        let mut probe = module.clone();
        let (_, conn) = clean_for_grouping(&mut probe, &lib);
        let grouped = group(&probe, &lib, &GroupingOptions::recommended(), &conn).expect("groups");
        let ids: Vec<CellId> = grouped
            .regions
            .iter()
            .flat_map(|r| r.cells.clone())
            .collect();
        const LOOKUPS: usize = 20_000;
        let start = Instant::now();
        let mut hits = 0usize;
        for i in 0..LOOKUPS {
            hits += usize::from(grouped.region_of(ids[i % ids.len()]).is_some());
        }
        assert_eq!(hits, LOOKUPS);
        lookup_ns.push(start.elapsed().as_nanos() as f64 / LOOKUPS as f64);

        let label = format!("{stages}x{cloud}+{width}");
        eprintln!(
            "{label:>10}: {cells} cells, {regions} regions, flow {:.1} ms, lookup {:.0} ns",
            serial_ns as f64 / 1e6,
            lookup_ns.last().unwrap(),
        );
        points.push(Point {
            label,
            cells,
            regions,
            serial_ns,
            pass_ns,
        });
    }

    // Growth exponent of every pass over the steps; super-linear passes
    // that cost something at the largest step fail the run.
    let mut failed = Vec::new();
    let largest = points.last().expect("at least one step");
    let mut exponents: Vec<(&'static str, f64)> = Vec::new();
    for (k, &(pass, largest_ns)) in largest.pass_ns.iter().enumerate() {
        let samples: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.cells as f64, p.pass_ns[k].1 as f64))
            .collect();
        let Some(exp) = growth_exponent(&samples) else {
            continue;
        };
        let gated = largest_ns >= GATED_PASS_NS;
        eprintln!(
            "{pass:>16}: exponent {exp:.2}, {:.2} ms at the largest step{}",
            largest_ns as f64 / 1e6,
            if gated { "" } else { " (not gated)" }
        );
        if gated && exp > MAX_EXPONENT {
            failed.push(format!(
                "growth: pass `{pass}` grows as cells^{exp:.2} > cells^{MAX_EXPONENT}"
            ));
        }
        exponents.push((pass, exp));
    }
    for pass in Pipeline::standard().pass_names() {
        if !exponents.iter().any(|&(p, _)| p == pass) {
            failed.push(format!("exponents: no fitted exponent for pass `{pass}`"));
        }
    }

    let (first, last) = (lookup_ns[0].max(1.0), lookup_ns[lookup_ns.len() - 1]);
    let lookup_ratio = last / first;
    if lookup_ratio > MAX_LOOKUP_RATIO {
        failed.push(format!(
            "lookup: region_of per-lookup cost grew {lookup_ratio:.1}x from the smallest to \
             the largest design — lookup is no longer O(1)"
        ));
    }

    let mut out = String::from("{\n  \"name\": \"scale\",\n");
    out.push_str(&format!("  \"lookup_ratio\": {lookup_ratio:.3},\n"));
    let fields: Vec<String> = exponents
        .iter()
        .map(|(pass, exp)| format!("\"{pass}\": {exp:.3}"))
        .collect();
    out.push_str(&format!("  \"exponents\": {{{}}},\n", fields.join(", ")));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let passes: Vec<String> = p
            .pass_ns
            .iter()
            .map(|(pass, ns)| format!("\"{pass}\": {ns}"))
            .collect();
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"cells\": {}, \"regions\": {}, \"serial_ns\": {}, \
             \"pass_ns\": {{{}}}}}{}\n",
            p.label,
            p.cells,
            p.regions,
            p.serial_ns,
            passes.join(", "),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    drd_bench::finish("scale", &out, &failed);
}
