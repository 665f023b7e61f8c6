//! Experiment E1: regenerate the paper's **Table 1** (§6) — sample
//! sortition parameters with a corruption gap.
//!
//! ```text
//! cargo run --release -p yoso-bench --bin table1
//! ```

#![forbid(unsafe_code)]

fn main() {
    println!("Table 1 — sample parameters (k1 = 64, k2 = k3 = 128)");
    for line in yoso_bench::table1_lines() {
        println!("{line}");
    }
    println!(
        "\nLegend: t = corruption bound (w.h.p.), c = committee lower bound with gap,\n\
         c' = 2t (gap-free bound), eps = gap, k = packing factor.\n\
         Paper reference values: (1000, 0.05) → t=446, c=949, k=28;\n\
         (20000, 0.20) → t=9107, c≈20401, k=1093; (40000, 0.25) → t=20408, k=47."
    );
}
