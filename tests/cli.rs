//! Smoke tests for the `socialreach` CLI binary: every subcommand, the
//! documented exit codes, and error handling.

use std::io::Write as _;
use std::process::{Command, Stdio};

const EDGES: &str = "Alice\tfriend\tBob\nBob\tfriend\tCarol\nCarol\tcolleague\tDave\n";

/// The shared edge-list fixture, written **once** per test process:
/// the tests run on parallel threads, and a rewrite per test let one
/// test's CLI child read the file while another had just truncated it.
fn edges_file() -> &'static std::path::Path {
    static FILE: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("socialreach-cli-test-{}.tsv", std::process::id()));
        std::fs::write(&path, EDGES).expect("write temp edge list");
        path
    })
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_socialreach"))
}

#[test]
fn check_grants_with_exit_code_zero() {
    let file = edges_file();
    let out = cli()
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "friend+[1,2]",
            "Carol",
        ])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "GRANT");
}

#[test]
fn check_denies_with_exit_code_one() {
    let file = edges_file();
    let out = cli()
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "colleague+[1]",
            "Dave",
        ])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "DENY");
}

#[test]
fn audience_lists_the_owner_and_matching_members() {
    let file = edges_file();
    let out = cli()
        .args([
            "audience",
            file.to_str().unwrap(),
            "Alice",
            "friend+[1,2]/colleague+[1]",
        ])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    // Policy semantics: the resource audience always contains the
    // owner, plus every member the rule's path matches.
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "Alice\nDave");
}

#[test]
fn sharded_deployment_serves_identically() {
    // SOCIALREACH_SHARDS swaps the serving backend behind the same
    // AccessService API: outputs and exit codes must not move.
    let file = edges_file();
    for shards in ["1", "3"] {
        let grant = cli()
            .env("SOCIALREACH_SHARDS", shards)
            .args([
                "check",
                file.to_str().unwrap(),
                "Alice",
                "friend+[1,2]",
                "Carol",
            ])
            .output()
            .expect("spawns");
        assert!(grant.status.success(), "shards {shards}");
        assert_eq!(String::from_utf8_lossy(&grant.stdout).trim(), "GRANT");
        let explain = cli()
            .env("SOCIALREACH_SHARDS", shards)
            .args([
                "explain",
                file.to_str().unwrap(),
                "Alice",
                "friend+[2]",
                "Carol",
            ])
            .output()
            .expect("spawns");
        let text = String::from_utf8_lossy(&explain.stdout);
        assert!(
            text.contains("GRANT via Alice -friend-> Bob -friend-> Carol"),
            "shards {shards}: {text}"
        );
        let audience = cli()
            .env("SOCIALREACH_SHARDS", shards)
            .args([
                "audience",
                file.to_str().unwrap(),
                "Alice",
                "friend+[1,2]/colleague+[1]",
            ])
            .output()
            .expect("spawns");
        assert_eq!(
            String::from_utf8_lossy(&audience.stdout).trim(),
            "Alice\nDave",
            "shards {shards}"
        );
    }
    let bogus = cli()
        .env("SOCIALREACH_SHARDS", "zero")
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "friend+[1]",
            "Bob",
        ])
        .output()
        .expect("spawns");
    assert_eq!(bogus.status.code(), Some(2));
}

#[test]
fn owner_requests_are_always_granted() {
    let file = edges_file();
    let out = cli()
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "colleague+[1]",
            "Alice",
        ])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "owners always access their resources");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "GRANT");
}

#[test]
fn explain_prints_the_witness_walk() {
    let file = edges_file();
    let out = cli()
        .args([
            "explain",
            file.to_str().unwrap(),
            "Alice",
            "friend+[2]",
            "Carol",
        ])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("GRANT via Alice -friend-> Bob -friend-> Carol"),
        "{text}"
    );
}

#[test]
fn stats_summarizes_the_graph() {
    let file = edges_file();
    let out = cli()
        .args(["stats", file.to_str().unwrap()])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("|V| = 4"), "{text}");
    assert!(text.contains("friend: 2"), "{text}");
}

#[test]
fn stdin_input_via_dash() {
    let mut child = cli()
        .args(["check", "-", "Alice", "friend+[1]", "Bob"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(EDGES.as_bytes())
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert!(out.status.success());
}

#[test]
fn usage_errors_exit_with_two() {
    for args in [
        vec![],
        vec!["frobnicate"],
        vec!["check", "nope.tsv"],
        vec!["check", "/nonexistent/file.tsv", "A", "friend", "B"],
    ] {
        let out = cli().args(&args).output().expect("spawns");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "args {args:?}: {err}");
    }
}

#[test]
fn bad_path_expression_reports_position() {
    let file = edges_file();
    let out = cli()
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "friend+[0]",
            "Bob",
        ])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("depth levels start at 1"));
}

#[test]
fn over_long_path_expression_is_a_parse_error() {
    // 65 536 one-letter steps: one past the step budget, and exactly
    // the longest single argument Linux passes to a child (128 KiB
    // with its NUL).
    let policy = vec!["f"; 65_536].join("/");
    let file = edges_file();
    let out = match cli()
        .args(["check", file.to_str().unwrap(), "Alice", &policy, "Bob"])
        .output()
    {
        Ok(out) => out,
        // A platform with a tighter argument cap cannot deliver the
        // policy at all; the library-level tests still cover it.
        Err(e) if e.raw_os_error() == Some(7) => return,
        Err(e) => panic!("spawns: {e}"),
    };
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at most 65535 steps"));
}

#[test]
fn unknown_member_is_a_usage_error() {
    let file = edges_file();
    let out = cli()
        .args([
            "check",
            file.to_str().unwrap(),
            "Zelda",
            "friend+[1]",
            "Bob",
        ])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown member"));
}

// ---------------------------------------------------------------------
// Durable mode (SOCIALREACH_DATA_DIR)
// ---------------------------------------------------------------------

#[test]
fn durable_ingestion_survives_a_crash_and_serves_from_recovery() {
    let file = edges_file();
    let dir = std::env::temp_dir().join(format!("socialreach-cli-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ingest the edge list durably and answer a check.
    let out = cli()
        .env("SOCIALREACH_DATA_DIR", &dir)
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "friend+[1,2]",
            "Carol",
        ])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("wal.log").exists(), "mutations were logged");

    // "Crash": the process above already exited. Serve the recovered
    // state with '@' — no edge list, same decision.
    let out = cli()
        .env("SOCIALREACH_DATA_DIR", &dir)
        .args(["check", "@", "Alice", "friend+[1,2]", "Carol"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "recovered state serves: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "GRANT");

    // Recovered stats see the ingested graph.
    let out = cli()
        .env("SOCIALREACH_DATA_DIR", &dir)
        .args(["stats", "@"])
        .output()
        .expect("spawns");
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_after_k_mutations_loses_nothing_already_logged() {
    let file = edges_file();
    let dir = std::env::temp_dir().join(format!("socialreach-cli-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Abort mid-ingestion: 4 members exist, the 3 edges don't yet.
    let out = cli()
        .env("SOCIALREACH_DATA_DIR", &dir)
        .env("SOCIALREACH_CRASH_AFTER", "4")
        .args([
            "check",
            file.to_str().unwrap(),
            "Alice",
            "friend+[1,2]",
            "Carol",
        ])
        .output()
        .expect("spawns");
    assert!(!out.status.success(), "the crash lever aborts the process");
    assert!(String::from_utf8_lossy(&out.stderr).contains("aborting after 4 mutations"));

    // Recovery serves the logged prefix: members resolved, no edges,
    // so the same check now denies (fail closed, never fabricate).
    let out = cli()
        .env("SOCIALREACH_DATA_DIR", &dir)
        .args(["check", "@", "Alice", "friend+[1,2]", "Carol"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1), "prefix state: edge not logged");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "DENY");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn at_file_without_data_dir_is_a_usage_error() {
    let out = cli()
        .env_remove("SOCIALREACH_DATA_DIR")
        .args(["check", "@", "Alice", "friend+[1]", "Bob"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SOCIALREACH_DATA_DIR"));
}
