//! Golden output of `rulelint` and `rulemc` over every shipped scenario
//! and rule program, recorded before the operation table existed. The
//! effect table decides state counts, verdicts, dead rules and which bean
//! a shadowing warning names; this pins all of them byte for byte.
//!
//! Re-record with `BLESS=1 cargo test -p bskel-bench --test rulecheck_golden`.

use bskel_bench::{rulelint, rulemc};
use std::fmt::Write;
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/rulecheck_pre_op_table.txt";

/// `scenarios/*.json` then `crates/rules/rules/*.rules`, sorted within
/// each directory, as repo-relative paths.
fn inputs(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (dir, ext) in [("scenarios", "json"), ("crates/rules/rules", "rules")] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("input directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect();
        paths.sort();
        for p in paths {
            let name = format!("{dir}/{}", p.file_name().unwrap().to_string_lossy());
            out.push((name, std::fs::read_to_string(&p).expect("input file")));
        }
    }
    out
}

fn render(root: &Path) -> String {
    let mut out = String::new();
    for (path, content) in inputs(root) {
        let lint = rulelint::lint_content(&path, &content);
        if let Some(e) = &lint.parse_error {
            writeln!(out, "{path}: lint parse error: {e}").unwrap();
        }
        for d in &lint.diagnostics {
            writeln!(out, "{path}: lint {} `{}`: {}", d.code, d.rule, d.message).unwrap();
        }
        let mc = rulemc::check_content(&path, &content);
        if let Some(e) = &mc.parse_error {
            writeln!(out, "{path}: mc parse error: {e}").unwrap();
        }
        for check in &mc.checks {
            match &check.result {
                Ok(r) => {
                    let verdict = |proved: bool| if proved { "proved" } else { "violated" };
                    writeln!(
                        out,
                        "{path}: mc [{}] states={} transitions={} recovery={} livelock={} dead={:?}",
                        check.program,
                        r.states,
                        r.transitions,
                        r.recovery
                            .as_ref()
                            .map_or("skipped", |v| verdict(v.proved())),
                        verdict(r.livelock.proved()),
                        r.dead_rules,
                    )
                    .unwrap();
                }
                Err(e) => writeln!(out, "{path}: mc [{}] error: {e}", check.program).unwrap(),
            }
        }
    }
    out
}

#[test]
fn rulelint_and_rulemc_output_matches_the_recording() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let got = render(&crate_dir.join("../.."));
    let fixture = crate_dir.join(FIXTURE);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&fixture, &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(&fixture).expect("fixture");
    assert!(
        got == want,
        "rulelint/rulemc output changed; diff against {FIXTURE}:\n{got}"
    );
}
