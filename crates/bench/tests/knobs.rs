//! `bench_perf` validates every `CQ_*` knob before it times anything.
//!
//! Its own timings override the memo setting, so a misspelled
//! `CQ_HWCACHE` would otherwise never be read, and a run would "pass"
//! while measuring something other than what its environment says.

use std::process::Command;

const KNOBS: [&str; 7] = [
    "CQ_BACKEND",
    "CQ_QUANT_PATH",
    "CQ_HWCACHE",
    "CQ_HWCACHE_CAP",
    "CQ_SIMD",
    "CQ_TUNE_FILE",
    "CQ_MAPPING",
];

#[test]
fn invalid_knobs_abort_before_any_entry_is_timed() {
    for (var, bad) in [("CQ_HWCACHE", "offf"), ("CQ_QUANT_PATH", "int7")] {
        let out_path = std::env::temp_dir().join(format!(
            "bench_perf_knobs_{}_{var}.json",
            std::process::id()
        ));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_perf"));
        for knob in KNOBS {
            cmd.env_remove(knob);
        }
        let out = cmd
            .env(var, bad)
            .arg("--quick")
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn bench_perf");
        let wrote_report = std::fs::remove_file(&out_path).is_ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={bad} was accepted:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.contains(var) && l.contains(bad)),
            "no diagnostic naming {var}={bad}:\n{stderr}"
        );
        assert!(
            !stderr.contains(" ns  fast ") && !stderr.contains("bench_perf: threads="),
            "{var}={bad}: bench_perf started timing:\n{stderr}"
        );
        assert!(!wrote_report, "{var}={bad}: a report was written");
    }
}
