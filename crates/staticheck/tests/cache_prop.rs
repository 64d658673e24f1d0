//! Property test for the incremental cache: across randomized
//! touch-and-recheck sequences over a mutating workspace, a run with
//! `--cache` must be byte-identical (text and JSON renderings) to a
//! cacheless run over the same tree. The sequence mixes fingerprint-only
//! touches (comments), finding toggles (seeded violations appearing and
//! disappearing), and interface changes (a helper rename that rewires
//! the cross-file call graph and must invalidate the whole flow pass).

use std::fs;
use std::path::{Path, PathBuf};

use prop::Choices;
use staticheck::cli::run_captured;

/// The mutable shape of the synthetic workspace.
struct World {
    root: PathBuf,
    /// Seeded SC109: a par-task closure reaching a RefCell field.
    demo_bad: bool,
    /// Seeded SC111: a Relaxed load flowing into `format!`.
    util_relaxed: bool,
    /// Which name the cross-crate helper currently has (0 or 1); a
    /// toggle renames the fn and its call site — an interface change.
    util_name: usize,
    /// Per-file touch counters rendered into comments.
    touches: [u32; 3],
}

const HELPER_NAMES: [&str; 2] = ["step_fast", "step_slow"];

impl World {
    fn demo_src(&self) -> String {
        let helper = HELPER_NAMES[self.util_name];
        let bad = if self.demo_bad {
            "pub fn run(v: &View, units: &[u32]) -> Vec<u32> {\n    map_indexed(units, |_i, _u| analyze(v))\n}\n"
        } else {
            "pub fn run(v: &View, units: &[u32]) -> Vec<u32> {\n    let _ = units;\n    vec![analyze(v)]\n}\n"
        };
        format!(
            "//! demo crate (touch {t}).\n\n\
             pub struct View {{\n    memo: std::cell::RefCell<u32>,\n}}\n\n\
             impl View {{\n    pub fn classify(&self) -> u32 {{\n        *self.memo.borrow()\n    }}\n}}\n\n\
             fn analyze(v: &View) -> u32 {{\n    v.classify()\n}}\n\n\
             {bad}\n\
             pub fn sum(units: &[u32]) -> u32 {{\n    units.iter().map(|u| {helper}(*u)).sum()\n}}\n",
            t = self.touches[0],
        )
    }

    fn util_src(&self) -> String {
        let helper = HELPER_NAMES[self.util_name];
        let relaxed = if self.util_relaxed {
            "use std::sync::atomic::{AtomicU64, Ordering};\n\n\
             pub fn emit(c: &AtomicU64) -> String {\n    let n = c.load(Ordering::Relaxed);\n    format!(\"n={n}\")\n}\n"
        } else {
            ""
        };
        format!(
            "//! util crate (touch {t}).\n\n\
             pub fn {helper}(u: u32) -> u32 {{\n    u.wrapping_add(1)\n}}\n\n{relaxed}",
            t = self.touches[1],
        )
    }

    fn names_src(&self) -> String {
        format!(
            "//! obs names registry (touch {t}).\n\n\
             pub const DEMO_COUNT: &str = \"demo.count\";\n\n\
             pub const ALL: [&str; 1] = [\n    DEMO_COUNT,\n];\n",
            t = self.touches[2],
        )
    }

    fn write_all(&self) {
        write(&self.root.join("crates/demo/src/lib.rs"), &self.demo_src());
        write(&self.root.join("crates/util/src/lib.rs"), &self.util_src());
        write(
            &self.root.join("crates/obs/src/names.rs"),
            &self.names_src(),
        );
    }
}

fn write(path: &Path, contents: &str) {
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, contents).expect("write");
}

fn run(root: &Path, cache: Option<&Path>) -> (String, String) {
    let mut args: Vec<String> = [
        "lints",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--allowlist",
        "/nonexistent/staticheck.toml",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(c) = cache {
        args.push("--cache".to_string());
        args.push(c.to_str().expect("utf-8 path").to_string());
    }
    let (report, _) = run_captured(&args).expect("staticheck runs");
    (report.render_text_with(true), report.render_json())
}

#[test]
fn cached_runs_are_byte_identical_across_randomized_sequences() {
    let root = std::env::temp_dir().join(format!("staticheck-prop-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    let cache = root.join("target/staticheck.cache");

    let mut world = World {
        root: root.clone(),
        demo_bad: true,
        util_relaxed: false,
        util_name: 0,
        touches: [0; 3],
    };
    world.write_all();

    // a seeded choice stream keeps the 64-step sequence reproducible
    let mut steps = Choices::from_seed(0x5eed_cafe_f00d_0001);
    // coverage bookkeeping: the sequence must visit both finding-full
    // and finding-free states, or the property is vacuous
    let mut saw_sc109 = false;
    let mut saw_clean_demo = false;

    for step in 0..64 {
        match steps.draw(5) {
            f @ 0..=2 => {
                // fingerprint-only touch: comment churn in one file
                world.touches[f as usize] += 1;
            }
            3 => world.demo_bad = !world.demo_bad,
            4 => world.util_relaxed = !world.util_relaxed,
            _ => {
                // interface change: rename the cross-crate helper and
                // its call site — must invalidate the flow pass wholesale
                world.util_name ^= 1;
            }
        }
        world.write_all();

        let (cold_text, cold_json) = run(&root, None);
        let (warm_text, warm_json) = run(&root, Some(&cache));
        assert_eq!(cold_text, warm_text, "text diverged at step {step}");
        assert_eq!(cold_json, warm_json, "json diverged at step {step}");

        saw_sc109 |= cold_text.contains("SC109");
        saw_clean_demo |= !cold_text.contains("SC109");
    }

    fs::remove_dir_all(&root).ok();
    assert!(saw_sc109, "sequence never produced an SC109 finding");
    assert!(saw_clean_demo, "sequence never produced an SC109-free tree");
}
