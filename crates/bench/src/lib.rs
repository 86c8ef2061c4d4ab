#![warn(missing_docs)]
//! Shared experiment harness: sweep sizes, timing helpers and ASCII
//! table rendering used by the two experiment binaries —
//! `run-experiments` (the performance study P0–P8, each documented
//! where it runs, asserting every decision against ground truth) and
//! `paper-artifacts` (the paper's figures).
//!
//! Sizing: `SOCIALREACH_QUICK=1` shrinks every sweep so the full suite
//! finishes in seconds (CI mode); the default sizes target a laptop
//! minute-scale run.

use socialreach_core::{JoinEngineConfig, JoinIndexConfig, JoinStrategy, PlanConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// True when the environment asks for the quick (CI) sweep.
pub fn quick_mode() -> bool {
    std::env::var("SOCIALREACH_QUICK").is_ok_and(|v| v != "0")
}

/// Graph sizes for the scaling sweeps (P1, P2).
pub fn sweep_sizes() -> Vec<usize> {
    if quick_mode() {
        vec![200, 800]
    } else {
        vec![1_000, 4_000, 16_000]
    }
}

/// Requests per measurement batch.
pub fn batch_size() -> usize {
    if quick_mode() {
        50
    } else {
        200
    }
}

/// A forward-only join-engine configuration (the paper's own setting:
/// §3's figures never traverse against edge orientation). Forward-only
/// keeps the line graph at one vertex per edge.
pub fn forward_join_config(strategy: JoinStrategy) -> JoinEngineConfig {
    JoinEngineConfig {
        plan: PlanConfig::default(),
        strategy,
        index: JoinIndexConfig {
            augment_reverse: false,
            greedy_cover_max_comps: 256,
            virtual_root: None,
        },
        max_tuples: 5_000_000,
    }
}

/// Wall-clock of one invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Mean wall-clock over `n` invocations (after one warm-up call).
pub fn time_avg(n: usize, mut f: impl FnMut()) -> Duration {
    f();
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed() / n.max(1) as u32
}

/// Renders `bytes` with a binary-prefix unit.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Renders a duration compactly (µs / ms / s).
pub fn human_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1} µs")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1_000.0)
    } else {
        format!("{:.2} s", us / 1_000_000.0)
    }
}

/// A minimal right-padded ASCII table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table. Widths are in characters, so multibyte
    /// glyphs in cells stay aligned.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let chars = |s: &str| s.chars().count();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = chars(h);
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(chars(c));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i].saturating_sub(chars(c));
                let _ = write!(out, "| {}{} ", c, " ".repeat(pad));
            }
            out.push_str("|\n");
        };
        fmt_row(&self.headers, &width, &mut out);
        for (i, w) in width.iter().enumerate() {
            let _ = write!(out, "|{}", "-".repeat(w + 2));
            if i == cols - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            fmt_row(row, &width, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["engine", "time"]);
        t.row(vec!["online".into(), "1.2 ms".into()]);
        t.row(vec!["join-index/adjacency".into(), "30 µs".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| engine"));
        assert!(lines[1].starts_with("|---"));
        // all lines equally wide (in characters — `µ` is multibyte)
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn human_bytes_scales_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0 MiB");
    }

    #[test]
    fn human_duration_scales_units() {
        assert_eq!(human_duration(Duration::from_micros(5)), "5.0 µs");
        assert_eq!(human_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(human_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn time_helpers_run_the_closure() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let mut calls = 0;
        let _ = time_avg(3, || calls += 1);
        assert_eq!(calls, 4, "warm-up + 3 measured");
    }

    #[test]
    fn configs_expose_expected_augmentation() {
        use socialreach_core::JoinStrategy;
        assert!(
            !forward_join_config(JoinStrategy::OwnerSeeded)
                .index
                .augment_reverse
        );
    }
}
