//! Fig. 5.4: real operation delay distribution — desynchronized chips run
//! at their own silicon speed; synchronous chips at the worst corner.

use drd_flow::experiment::{variability_study, CaseStudy};
use drd_flow::report::render_variability_figure;

fn main() {
    let case = CaseStudy::dlx(&drd_designs::dlx::DlxParams::full()).unwrap();
    let study = variability_study(&case, 2000, 0.15, 0xF1605).unwrap();
    print!("{}", render_variability_figure(&study));
    println!();
    println!(
        "paper: DDLX faster than the synchronous worst case in ~90% of chips \
         (1.14/1.41/2.44/2.98 ns markers); measured here: {:.0}% — same shape \
         (see EXPERIMENTS.md).",
        study.fraction_faster * 100.0
    );
}
