//! Integration: the `weavess` command-line binary, driven end to end
//! through the filesystem like a user would.

use std::path::{Path, PathBuf};
use std::process::Command;
use weavess::data::io::{read_ivecs, write_fvecs};
use weavess::data::synthetic::MixtureSpec;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_weavess"))
}

/// One directory per test: the two tests run on parallel threads of one
/// process and each rewrites `base.fvecs` while the other's CLI reads it.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weavess_cli_it_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn prepare_files(dir: &Path) {
    let (base, queries) = MixtureSpec {
        intrinsic_dim: Some(6),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(16, 1_200, 3, 5.0, 30)
    }
    .generate();
    write_fvecs(&dir.join("base.fvecs"), &base).unwrap();
    write_fvecs(&dir.join("q.fvecs"), &queries).unwrap();
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("workflow");
    prepare_files(&dir);
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // gt
    let out = bin()
        .args(["gt", "--base", &p("base.fvecs"), "--queries", &p("q.fvecs")])
        .args(["--k", "20", "--out", &p("gt.ivecs")])
        .output()
        .expect("run gt");
    assert!(
        out.status.success(),
        "gt: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(read_ivecs(&dir.join("gt.ivecs")).unwrap().len(), 30);

    // build (persistable algorithm)
    let out = bin()
        .args(["build", "--algo", "NSG", "--base", &p("base.fvecs")])
        .args(["--out", &p("nsg.wvss"), "--threads", "2"])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "build: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // info
    let out = bin()
        .args(["info", "--index", &p("nsg.wvss")])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("algorithm : NSG"), "{stdout}");
    assert!(stdout.contains("vertices  : 1200"), "{stdout}");

    // search to file
    let out = bin()
        .args([
            "search",
            "--index",
            &p("nsg.wvss"),
            "--base",
            &p("base.fvecs"),
        ])
        .args(["--queries", &p("q.fvecs"), "--k", "10", "--beam", "60"])
        .args(["--out", &p("res.ivecs")])
        .output()
        .expect("run search");
    assert!(
        out.status.success(),
        "search: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let res = read_ivecs(&dir.join("res.ivecs")).unwrap();
    assert_eq!(res.len(), 30);
    assert!(res.iter().all(|r| r.len() == 10));

    // Results overlap heavily with the exact ground truth.
    let gt = read_ivecs(&dir.join("gt.ivecs")).unwrap();
    let mut hits = 0usize;
    for (r, t) in res.iter().zip(&gt) {
        hits += r.iter().filter(|id| t[..10].contains(id)).count();
    }
    assert!(hits as f64 / (10.0 * 30.0) > 0.85, "cli recall {hits}/300");

    // eval (works for any algorithm, including non-persistable ones)
    let out = bin()
        .args(["eval", "--algo", "HNSW", "--base", &p("base.fvecs")])
        .args([
            "--queries",
            &p("q.fvecs"),
            "--gt",
            &p("gt.ivecs"),
            "--k",
            "10",
        ])
        .output()
        .expect("run eval");
    assert!(
        out.status.success(),
        "eval: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Recall@10"));
}

#[test]
fn cli_rejects_bad_input() {
    let dir = workdir("bad_input");
    prepare_files(&dir);
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // Missing flag value.
    let out = bin().args(["build", "--algo"]).output().unwrap();
    assert!(!out.status.success());

    // Unknown algorithm.
    let out = bin()
        .args(["eval", "--algo", "NOPE", "--base", &p("base.fvecs")])
        .args(["--queries", &p("q.fvecs"), "--gt", &p("q.fvecs")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    // Non-persistable algorithm through `build` explains itself.
    let out = bin()
        .args(["build", "--algo", "HNSW", "--base", &p("base.fvecs")])
        .args(["--out", &p("x.wvss")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot be persisted"));
}
