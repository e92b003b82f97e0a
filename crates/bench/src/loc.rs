//! The Figure 7 component inventory: lines of code per LXFI component.
//!
//! The paper reports its gcc plugin (150 lines), clang plugin (1,452)
//! and runtime checker (4,704); this reproduction maps those components
//! onto workspace crates and counts non-blank, non-comment-only lines,
//! leaving out `#[cfg(test)] mod tests` blocks. A "Trusted base" row
//! tracks the code a guard decision depends on.

use std::path::{Path, PathBuf};

/// The kernel's wrappers: every kernel/module crossing and the guards
/// module code calls, counted in the "Trusted base" row.
const KERNEL_WRAPPERS: &str = "crates/kernel/src/kernel/wrappers.rs";

/// One component row.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Component name.
    pub component: String,
    /// Files or crates counted.
    pub source: String,
    /// Non-blank, non-comment-only lines of Rust outside unit-test
    /// modules.
    pub lines: usize,
}

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Counts code lines of one Rust source: non-blank lines that are not
/// comment-only (`//`, `///`, `//!`), skipping every `#[cfg(test)]`
/// `mod tests` block (from the attribute through its closing
/// column-0 brace, the rustfmt layout of a top-level module).
pub fn count_code_lines(text: &str) -> usize {
    let mut count = 0;
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" && lines.peek() == Some(&"mod tests {") {
            lines.by_ref().find(|l| *l == "}");
            continue;
        }
        let t = line.trim();
        if !t.is_empty() && !t.starts_with("//") {
            count += 1;
        }
    }
    count
}

/// Counts code lines ([`count_code_lines`]) in every `.rs` file under
/// `dir`.
pub fn count_rs_lines(dir: &Path) -> usize {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if !p.ends_with("target") {
                total += count_rs_lines(&p);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            total += count_file(&p);
        }
    }
    total
}

/// Counts code lines of one file.
fn count_file(p: &Path) -> usize {
    std::fs::read_to_string(p)
        .map(|t| count_code_lines(&t))
        .unwrap_or(0)
}

/// The Figure 7 analogue rows.
pub fn figure7() -> Vec<LocRow> {
    let root = workspace_root();
    vec![
        LocRow {
            component: "Kernel rewriting plugin".into(),
            source: "crates/rewriter/src/kernel_pass.rs".into(),
            lines: count_file(&root.join("crates/rewriter/src/kernel_pass.rs")),
        },
        LocRow {
            component: "Module rewriting plugin".into(),
            source: "crates/rewriter (module_pass, propagate, edit)".into(),
            lines: count_file(&root.join("crates/rewriter/src/module_pass.rs"))
                + count_file(&root.join("crates/rewriter/src/propagate.rs"))
                + count_file(&root.join("crates/rewriter/src/edit.rs")),
        },
        LocRow {
            component: "Runtime checker".into(),
            source: "crates/core + crates/annotations".into(),
            lines: count_rs_lines(&root.join("crates/core/src"))
                + count_rs_lines(&root.join("crates/annotations/src")),
        },
        LocRow {
            component: "Trusted base".into(),
            source: format!(
                "crates/core + crates/annotations + machine soundness.rs + {KERNEL_WRAPPERS}"
            ),
            lines: count_rs_lines(&root.join("crates/core/src"))
                + count_rs_lines(&root.join("crates/annotations/src"))
                + count_file(&root.join("crates/machine/src/soundness.rs"))
                + count_file(&root.join(KERNEL_WRAPPERS)),
        },
    ]
}

/// Full workspace inventory (the reproduction's own system table).
pub fn inventory() -> Vec<LocRow> {
    let root = workspace_root();
    let mut rows = Vec::new();
    for crate_dir in [
        "crates/machine",
        "crates/annotations",
        "crates/core",
        "crates/rewriter",
        "crates/kernel",
        "crates/modules",
        "crates/exploits",
        "crates/bench",
    ] {
        rows.push(LocRow {
            component: crate_dir.to_string(),
            source: format!("{crate_dir}/src + tests"),
            lines: count_rs_lines(&root.join(crate_dir)),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_counts_real_files() {
        let rows = figure7();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.lines > 50, "{r:?} should be non-trivial");
        }
        // The kernel pass is the smallest component, as in the paper
        // (150 vs 1,452 vs 4,704 lines).
        assert!(rows[0].lines < rows[1].lines);
        assert!(rows[1].lines < rows[2].lines);
        // The trusted base is the runtime checker plus the verifier and
        // the kernel's wrappers.
        assert!(rows[2].lines < rows[3].lines);
        assert!(rows[3].source.contains(KERNEL_WRAPPERS), "{:?}", rows[3]);
        let wrappers = count_file(&workspace_root().join(KERNEL_WRAPPERS));
        assert!(
            wrappers > 50,
            "{KERNEL_WRAPPERS} counts {wrappers} code lines"
        );
        let soundness = count_file(&workspace_root().join("crates/machine/src/soundness.rs"));
        assert_eq!(rows[3].lines, rows[2].lines + soundness + wrappers);
        // README's trusted-base figure is the computed row, so it cannot
        // drift silently.
        let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("README");
        let text = readme.split_whitespace().collect::<Vec<_>>().join(" ");
        let (_, rest) = text
            .split_once("puts the row at **")
            .expect("README states the trusted-base row");
        let figure = rest.split("**").next().unwrap_or_default();
        assert_eq!(
            figure.replace(',', "").parse::<usize>(),
            Ok(rows[3].lines),
            "README puts the row at {figure}"
        );
    }

    #[test]
    fn comments_blanks_and_unit_tests_are_not_code() {
        let src = "//! doc\nfn a() {\n    // note\n\n    b();\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn c() {}\n";
        assert_eq!(count_code_lines(src), 4);
    }

    #[test]
    fn inventory_covers_all_crates() {
        let rows = inventory();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.lines > 0));
    }
}
