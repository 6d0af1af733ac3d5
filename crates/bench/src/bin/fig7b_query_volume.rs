//! E4 — Fig. 7b: query processing time vs data volume, P2P vs
//! centralized. Writes `results/fig7b.csv`.

use bench::report::print_table;
use bench::{fig7, Scale};

fn main() {
    let scale = Scale::from_env();
    let csv = fig7::fig7b_csv(&fig7::fig7b(scale));
    csv.write();
    print_table(&format!("Fig. 7b — trace-query time vs data volume ({scale:?})"), csv.header, &csv.rows);
    println!("\nwrote results/{}", csv.file);
}
