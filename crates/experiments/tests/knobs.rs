//! Every experiment binary rejects a bad `CQ_*` knob before it prints
//! anything.
//!
//! `table2_support_matrix` dispatches no kernel, uses no pool and opens
//! no journal, so only the startup check in `profiling::init_for_bin`
//! can catch these values; without it they pass unremarked.

use std::ffi::OsString;
use std::process::Command;

const KNOBS: [&str; 10] = [
    "CQ_SIMD",
    "CQ_THREADS",
    "CQ_TUNE_FILE",
    "CQ_BACKEND",
    "CQ_QUANT_PATH",
    "CQ_MAPPING",
    "CQ_HWCACHE",
    "CQ_HWCACHE_CAP",
    "CQ_TRACE",
    "CQ_SWEEP_JOURNAL",
];

#[test]
fn bad_knobs_abort_before_the_table_prints() {
    let mut cases: Vec<(&str, OsString)> = vec![
        ("CQ_THREADS", "fuor".into()),
        ("CQ_SWEEP_JOURNAL", "".into()),
    ];
    #[cfg(unix)]
    cases.push((
        "CQ_SIMD",
        std::os::unix::ffi::OsStringExt::from_vec(vec![b'a', 0xff]),
    ));
    for (var, bad) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2_support_matrix"));
        for knob in KNOBS {
            cmd.env_remove(knob);
        }
        let out = cmd
            .env(var, &bad)
            .output()
            .expect("spawn table2_support_matrix");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{var}={bad:?} was accepted:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{var}={bad:?}: output before the knob was rejected:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr
                .lines()
                .any(|l| l.contains(&format!("invalid {var} value"))),
            "no diagnostic naming {var}:\n{stderr}"
        );
    }
}
