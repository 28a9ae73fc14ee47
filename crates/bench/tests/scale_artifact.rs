//! `scale` rewrites `BENCH_scale.json` where it runs, keeping every
//! overlay row it finds there: the committed artifact holds one row per
//! node count, the 100k-node row among them. Run where there is no such
//! artifact, it stops before any work and writes nothing, rather than an
//! artifact without those rows.

use std::process::Command;

#[test]
fn a_run_in_an_empty_directory_writes_no_artifact() {
    let dir = std::env::temp_dir().join(format!("teechain-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_scale"))
        .args(["--quick", "--nodes", "60", "--payments", "20"])
        .current_dir(&dir)
        .env_remove("TEECHAIN_BENCH_DIR")
        .output()
        .expect("spawn scale");
    let written = dir.join("BENCH_scale.json").exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(!written, "wrote an artifact without the committed rows");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("n100000"));
}

#[test]
fn the_committed_artifact_keeps_the_100k_node_row() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_scale.json");
    let doc = teechain_bench::report::JsonValue::parse(&text).expect("json");
    let overlays = doc.get("metrics").and_then(|m| m.get("overlays"));
    assert!(overlays.and_then(|o| o.get("n100000")).is_some());
}
