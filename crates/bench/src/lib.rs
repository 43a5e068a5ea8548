//! # cq-bench — the `bench_perf` timing harness
//!
//! The crate's one binary, `bench_perf`, is the repo's only timing
//! harness. It A/Bs the `Naive` reference path against the `Fast` path
//! on the dense kernels, quantizers, train steps and memoized sweeps,
//! times cold simulation, the DDR model, the ISA codec and the timing
//! executor on their own, and writes everything to one JSON report.
//! `--check` gates the A/B speedups against a baseline report such as
//! the committed `BENCH_PR10.json`. See `src/bin/bench_perf.rs` for the
//! flags, the report schema and the gates.
