//! E5 — Fig. 8a: load balance for the three Lp schemes. Writes the
//! Lorenz-style curves to `results/fig8a.csv`.

use bench::report::print_table;
use bench::{fig8, Scale};

fn main() {
    let scale = Scale::from_env();
    let points = fig8::fig8a(scale);

    fig8::fig8a_csv(&points).write();

    print_table(
        &format!("Fig. 8a — load balance per scheme ({scale:?})"),
        &fig8::BALANCE_SUMMARY_HEADER,
        &fig8::balance_summary(&points),
    );
    println!("\nwrote results/fig8a.csv (full curves)");
}
