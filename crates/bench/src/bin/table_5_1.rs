//! Table 5.1: area results for the synchronous and desynchronized DLX.

use drd_flow::experiment::{area_comparison, CaseStudy};
use drd_flow::report::render_area_table;

fn main() {
    let case = CaseStudy::dlx(&drd_designs::dlx::DlxParams::full()).unwrap();
    let cmp = area_comparison(&case).unwrap();
    print!("{}", render_area_table(&cmp));
    println!();
    println!("paper: +13.44% core size, +17.66% sequential, +2.05% combinational");
    println!(
        "here : {:+.2}% core size, {:+.2}% sequential, {:+.2}% combinational",
        cmp.core_overhead(),
        cmp.sequential_overhead(),
        cmp.combinational_overhead()
    );
}
