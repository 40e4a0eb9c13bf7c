//! Shared infrastructure for the experiment-regeneration binaries and
//! `bench_suite`.
//!
//! Every figure and worked example of the reproduced paper has a binary in
//! `src/bin/` (see the experiment index in `DESIGN.md`); the helpers here
//! keep their output format consistent.

use std::path::PathBuf;

pub mod workloads;

/// Prints an aligned text table with a header rule.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        parts.join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The artifact output directory (`out/` beside the workspace root),
/// created on demand.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../out");
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir.canonicalize().unwrap_or(dir)
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(std::time::Duration::from_micros(12)), "12 µs");
        assert_eq!(
            fmt_duration(std::time::Duration::from_micros(2_500)),
            "2.50 ms"
        );
        assert_eq!(
            fmt_duration(std::time::Duration::from_millis(3_200)),
            "3.20 s"
        );
    }

    #[test]
    fn out_dir_exists() {
        let dir = out_dir();
        assert!(dir.is_dir());
    }
}
