//! Load-regime trace fixtures for the repository benchmark,
//! `dozz-bench` (see `BENCHMARK.json`).

pub mod regimes;
