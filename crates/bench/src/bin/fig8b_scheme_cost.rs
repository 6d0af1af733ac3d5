//! E6 — Fig. 8b: indexing cost (log2 of messages) per Lp scheme across
//! network sizes. Writes `results/fig8b.csv`.

use bench::report::print_table;
use bench::{fig8, Scale};

fn main() {
    let scale = Scale::from_env();
    let csv = fig8::fig8b_csv(&fig8::fig8b(scale));
    csv.write();
    print_table(&format!("Fig. 8b — indexing cost per scheme ({scale:?})"), csv.header, &csv.rows);
    println!("\nwrote results/{}", csv.file);
}
