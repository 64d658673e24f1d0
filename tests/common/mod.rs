//! Helpers shared by the root equivalence oracles.

use std::path::Path;

/// Write two diverging variants of one artifact to
/// `target/<dir>/<name>` and describe the divergence: where the files
/// are, the byte offset of the first difference, and ~60 bytes of
/// context from each side, which shows the JSON key. The text is meant
/// to end a failure message.
pub fn dump_divergence(dir: &str, (a_name, a): (&str, &str), (b_name, b): (&str, &str)) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(dir);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(a_name), a);
    let _ = std::fs::write(dir.join(b_name), b);
    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    format!(
        "variants written to {}; first difference at byte {at}:\n  {a_name}: {}\n  {b_name}: {}",
        dir.display(),
        context(a.as_bytes(), at),
        context(b.as_bytes(), at),
    )
}

/// 45 bytes before `at` and 15 from it, quoted so newlines stay visible.
fn context(bytes: &[u8], at: usize) -> String {
    let end = (at + 15).min(bytes.len());
    let start = at.saturating_sub(45).min(end);
    format!("{:?}", String::from_utf8_lossy(&bytes[start..end]))
}
