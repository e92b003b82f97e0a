//! Benchmark and table harnesses: one generator per table/figure of the
//! paper's evaluation (§8).
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run -p lxfi-bench --bin table_components`  | Figure 7 (component LoC) |
//! | `cargo run -p lxfi-bench --bin table_security`    | Figure 8 (exploits prevented) |
//! | `cargo run -p lxfi-bench --bin table_annotations` | Figure 9 (annotation census) |
//! | `cargo run -p lxfi-bench --bin fig_api_churn`     | Figure 10 (API growth/churn) |
//! | `cargo run -p lxfi-bench --bin table_sfi`         | Figure 11 (SFI microbenchmarks) |
//! | `cargo run -p lxfi-bench --bin table_netperf`     | Figure 12 (netperf) |
//! | `cargo run -p lxfi-bench --bin table_guard_costs` | Figure 13 (guard cost breakdown) |
//! | `cargo bench -p lxfi-bench`                       | wall-clock companions |

pub mod ablations;
pub mod api_churn;
pub mod baselines;
pub mod census;
pub mod chaos;
pub mod dm;
pub mod guards;
pub mod kernel_mt;
pub mod loc;
pub mod netperf;
pub mod netperf_mt;
pub mod server;
pub mod sfi;
pub mod sound;
pub mod soundness_audit;
pub mod writer_index;

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["hotlist".into(), "0%".into()],
                vec!["lld".into(), "11%".into()],
            ],
        );
        assert!(t.contains("hotlist"));
        assert!(t.lines().count() == 4);
    }
}
