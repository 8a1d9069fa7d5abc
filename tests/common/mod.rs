//! The golden-file check shared by the golden suites
//! (`model_equivalence`, `replay_blocks`, `trace_export`).

use std::path::PathBuf;

/// Set this variable to rewrite every golden a suite checks instead of
/// comparing against it: `BLESS_MODEL_GOLDENS=1 cargo test --test <suite>`.
const BLESS: &str = "BLESS_MODEL_GOLDENS";

/// Compares `actual` with the checked-in fixture `tests/fixtures/{name}`,
/// or rewrites the fixture when [`BLESS`] is set.
pub fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os(BLESS).is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); bless to create", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from its golden ({BLESS}=1 to regenerate deliberately)"
    );
}
