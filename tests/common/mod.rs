//! The golden-file comparison the integration tests share.

use std::path::PathBuf;

/// Compare `actual` with the committed `tests/goldens/<file>` byte for
/// byte, or rewrite that file when `DOZZNOC_BLESS` is set. A mismatch
/// panics with the first diverging line, not both documents.
pub fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join(file);
    #[allow(
        clippy::disallowed_methods,
        reason = "DOZZNOC_BLESS only selects between rewriting and comparing the golden file"
    )]
    let bless = std::env::var_os("DOZZNOC_BLESS").is_some();
    if bless {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let rebless = format!(
        "DOZZNOC_BLESS=1 cargo test --test {}",
        env!("CARGO_CRATE_NAME")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with {rebless}",
            path.display()
        )
    });
    if actual == golden {
        return;
    }
    match actual.lines().zip(golden.lines()).position(|(a, g)| a != g) {
        Some(n) => panic!(
            "{file} diverged at line {}:\n  actual: {}\n  golden: {}\n\
             If this change is intentional, re-bless with {rebless}",
            n + 1,
            actual.lines().nth(n).unwrap_or_default(),
            golden.lines().nth(n).unwrap_or_default(),
        ),
        None => panic!(
            "{file} differs only in length ({} vs {} lines); re-bless with {rebless} if intentional",
            actual.lines().count(),
            golden.lines().count()
        ),
    }
}
