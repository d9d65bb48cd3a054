//! E4 — TCB size accounting (paper §VII-A, "Software TCB size").
//!
//! The paper reports the Migration Enclave at **217 LoC** and the
//! Migration Library at **940 LoC** (excluding the SGX trusted
//! libraries). This tool counts the equivalent in-enclave trusted code of
//! this reproduction the same way — non-blank, non-comment lines,
//! excluding tests — and prints the comparison.
//!
//! ```sh
//! cargo run -p mig-bench --bin tcb_loc
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// Counts non-blank, non-comment lines, leaving out every
/// `#[cfg(test)]` item (test modules and test-only helpers), which is
/// skipped by brace depth up to its closing `}` or `;`.
fn count_loc(source: &str) -> usize {
    let mut loc = 0usize;
    let mut in_block_comment = false;
    // Brace depth inside a `#[cfg(test)]` item being skipped.
    let mut test_item: Option<i64> = None;
    for line in source.lines() {
        let trimmed = line.trim();
        if let Some(depth) = test_item.as_mut() {
            *depth += trimmed.matches('{').count() as i64 - trimmed.matches('}').count() as i64;
            if *depth <= 0 && (trimmed.ends_with('}') || trimmed.ends_with(';')) {
                test_item = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            test_item = Some(0);
            continue;
        }
        if in_block_comment {
            if trimmed.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("/*") {
            if !trimmed.contains("*/") {
                in_block_comment = true;
            }
            continue;
        }
        loc += 1;
    }
    loc
}

/// The `.rs` files at `entry` (a file, or a directory walked
/// recursively), sorted.
fn rust_files(entry: &Path) -> Result<Vec<PathBuf>, String> {
    if entry.is_file() {
        return Ok(vec![entry.to_path_buf()]);
    }
    let mut files = Vec::new();
    let dir = fs::read_dir(entry).map_err(|e| format!("read {}: {e}", entry.display()))?;
    for item in dir {
        let path = item
            .map_err(|e| format!("read {}: {e}", entry.display()))?
            .path();
        if path.is_dir() {
            files.extend(rust_files(&path)?);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Prints one group's files and returns its total.
fn report(root: &Path, title: &str, entries: &[&str]) -> Result<usize, String> {
    println!("{title}:");
    let mut total = 0;
    for entry in entries {
        for file in rust_files(&root.join(entry))? {
            let source =
                fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
            let loc = count_loc(&source);
            let name = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            println!("  {name:<28} {loc:>5} LoC");
            total += loc;
        }
    }
    println!("  {:<28} {total:>5} LoC\n", "subtotal");
    Ok(total)
}

fn main() -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");

    println!("=== E4 — software TCB size (cf. paper §VII-A) ===\n");
    let me = report(&root, "Migration Enclave", &["me", "transfer"])?;
    let lib = report(&root, "Migration Library", &["library"])?;
    let shared = report(
        &root,
        "Shared by both (channel and messages)",
        &["secure_channel.rs", "msgs.rs"],
    )?;

    println!(
        "{:<30} {:>6} LoC   (paper: 217)",
        "Migration Enclave total",
        me + shared
    );
    println!(
        "{:<30} {:>6} LoC   (paper: 940)",
        "Migration Library total",
        lib + shared
    );
    println!();
    println!("note: both totals include the shared channel and message code each");
    println!("enclave links. This reproduction in-lines machinery the paper counts");
    println!("under 'SGX trusted libraries' and adds the streaming transfer engine,");
    println!("so the ME total covers strictly more functionality.");
    Ok(())
}
