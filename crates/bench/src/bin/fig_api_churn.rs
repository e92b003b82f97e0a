//! Regenerates Figure 10: growth and per-release churn of kernel APIs,
//! 2.6.21 through 2.6.39 (synthetic series calibrated to the paper's
//! anchors, listed in `lxfi_bench::api_churn`).

use lxfi_bench::{api_churn, render_table};

fn main() {
    println!("Figure 10: rate of change of Linux kernel APIs (modelled)\n");
    let rows: Vec<Vec<String>> = api_churn::series(2011)
        .into_iter()
        .map(|r| {
            vec![
                r.version,
                r.exported_total.to_string(),
                r.exported_changed.to_string(),
                r.fptr_total.to_string(),
                r.fptr_changed.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Version",
                "# exported funcs",
                "changed",
                "# fn ptrs in structs",
                "changed",
            ],
            &rows
        )
    );
    println!(
        "\nPaper anchors: 2.6.21 had 5,583 exported functions (272 changed)\n\
         and 3,725 struct function pointers (183 changed); totals roughly\n\
         double by 2.6.39 while churn stays at a few hundred per release."
    );
}
