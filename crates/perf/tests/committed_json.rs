//! Every committed JSON document is a fixed point of the one layout:
//! results documents (`results/*.json`, `BENCH_engine.json`, the analyzer
//! goldens) re-render through `Json::pretty` to the same bytes. A
//! hand-edited or stale-layout file fails here instead of in a
//! byte-for-byte CI diff.

use std::path::{Path, PathBuf};

use obs::json::Json;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn parse(path: &Path, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_documents_are_pretty_fixed_points() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![root.join("BENCH_engine.json")];
    for dir in ["results", "crates/analysis/tests/golden"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("committed directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    // Every figure and table target, the analyzer and explorer reports,
    // and the analyzer goldens.
    assert!(files.len() >= 25, "only {} documents found", files.len());
    for path in files {
        let text = read(&path);
        assert!(
            parse(&path, &text).pretty() == text,
            "{} is not in the Json::pretty layout; re-render it through Json::parse",
            path.display()
        );
    }
}
