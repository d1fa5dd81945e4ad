//! Flat benchmark snapshots (`BENCH_sim.json`, `BENCH_serve.json`) at the
//! repository root.
//!
//! A snapshot is one JSON object mapping metric names to numbers — nothing
//! nested, so it can be parsed and diffed without a JSON dependency.
//! Benches and load binaries *merge* their keys into the file (other
//! harnesses' keys survive), and the `benchdiff` binary compares two
//! snapshots with a regression tolerance. By convention `_per_s` and
//! `_speedup` suffixes mean higher-is-better; those are the keys CI guards.

use std::path::{Path, PathBuf};

/// The workspace root of the checkout being run: the nearest directory at
/// or above the current one whose `Cargo.toml` declares `[workspace]`.
/// `cargo run` starts in the root and `cargo bench` in `crates/bench`, so
/// both find it. Falls back to the current directory.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("current directory");
    workspace_root(&cwd).unwrap_or(cwd)
}

/// The nearest of `start` and its ancestors whose `Cargo.toml` has a
/// `[workspace]` table.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Parses a flat `{"key": number, ...}` object. Unparseable fragments are
/// skipped rather than fatal — a half-written snapshot should degrade to
/// "missing keys", not kill the harness that wants to overwrite it.
pub fn parse(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let body = text.trim().trim_start_matches('{').trim_end_matches('}');
    for pair in body.split(',') {
        let Some((k, v)) = pair.split_once(':') else {
            continue;
        };
        let key = k.trim().trim_matches('"').to_string();
        if key.is_empty() {
            continue;
        }
        if let Ok(value) = v.trim().parse::<f64>() {
            out.push((key, value));
        }
    }
    out
}

/// Renders entries as a stable (sorted, one key per line) JSON object.
pub fn render(entries: &[(String, f64)]) -> String {
    let mut sorted: Vec<&(String, f64)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (k, v)) in sorted.iter().enumerate() {
        // Finite, non-scientific formatting so `parse` round-trips.
        out.push_str(&format!("  \"{k}\": {v:.4}"));
        out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out.push('\n');
    out
}

/// Merges `entries` into `<repo root>/<file_name>` (new keys win over the
/// file's) and returns the path written.
pub fn merge_write(file_name: &str, entries: &[(String, f64)]) -> PathBuf {
    let path = repo_root().join(file_name);
    let mut merged: Vec<(String, f64)> = std::fs::read_to_string(&path)
        .map(|t| parse(&t))
        .unwrap_or_default();
    for (k, v) in entries {
        match merged.iter_mut().find(|(mk, _)| mk == k) {
            Some(slot) => slot.1 = *v,
            None => merged.push((k.clone(), *v)),
        }
    }
    std::fs::write(&path, render(&merged)).expect("write benchmark snapshot");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips() {
        let entries = vec![
            ("b_per_s".to_string(), 123.5),
            ("a_speedup".to_string(), 4.25),
        ];
        let text = render(&entries);
        let back = parse(&text);
        // Render sorts; parse preserves file order.
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a_speedup");
        assert!((back[0].1 - 4.25).abs() < 1e-9);
        assert_eq!(back[1].0, "b_per_s");
        assert!((back[1].1 - 123.5).abs() < 1e-9);
    }

    #[test]
    fn workspace_root_is_the_nearest_workspace_manifest() {
        let root = std::env::temp_dir().join(format!("aid-bench-root-{}", std::process::id()));
        let bench = root.join("crates/bench");
        std::fs::create_dir_all(bench.join("benches")).unwrap();
        std::fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.package]\n",
        )
        .unwrap();
        std::fs::write(bench.join("Cargo.toml"), "[package]\nname = \"bench\"\n").unwrap();
        let found = [&root, &bench, &bench.join("benches")].map(|dir| workspace_root(dir));
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(found, [Some(root.clone()), Some(root.clone()), Some(root)]);
    }

    #[test]
    fn parse_skips_garbage() {
        let back = parse("{\"ok\": 1.0, nonsense, \"bad\": x, \"fine\": 2}");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "ok");
        assert_eq!(back[1].0, "fine");
    }
}
