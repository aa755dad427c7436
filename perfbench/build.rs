//! Captures the toolchain and source revision for the host fingerprint
//! every benchmark report carries. Both are read at build time so the
//! benchmark never spawns a process while it measures.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // The revision comes from the repository's `.git` files when the
    // checkout has them (an exported source tree does not).
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head_path = git.join("HEAD");
    let mut watched = Vec::new();
    let sha = std::fs::read_to_string(&head_path).ok().and_then(|head| {
        watched.push(head_path.clone());
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(reference) => {
                let ref_path = git.join(reference);
                if let Ok(sha) = std::fs::read_to_string(&ref_path) {
                    watched.push(ref_path);
                    return Some(sha.trim().to_string());
                }
                let packed = git.join("packed-refs");
                let text = std::fs::read_to_string(&packed).ok()?;
                watched.push(packed);
                text.lines()
                    .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
                    .map(str::to_string)
            }
        }
    });
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_SHA={}",
        sha.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}
