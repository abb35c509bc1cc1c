//! Each workload through the library API at a tiny budget: outputs are
//! checked, traced ledgers equal the untraced ones, the trace covers the
//! run, the cycle split sums, and a seed repeats exactly.

use softcache_benchmark::json::{self, Value};
use softcache_benchmark::solo::{self, cycle_split, traced_run, Setup};
use softcache_benchmark::{run, Options, Outcome, Workload, BENCHMARK_JSON, END_TO_END, PER_LAYER};

fn tiny(w: Workload, trace: bool) -> Outcome {
    let out = run(
        w,
        &Options {
            seed: 1,
            seconds: 0.2,
            trace,
        },
    );
    assert!(out.correct, "{w:?} trace={trace}: {out:?}");
    assert_eq!(out.failed, 0, "{w:?} trace={trace}: failed_frac must be 0");
    assert!(out.attempted > 0);
    out
}

#[test]
fn traced_ledgers_equal_untraced_and_the_cycle_split_sums() {
    for spec in [solo::AMPLE, solo::CLIFF, solo::THRASH] {
        let setup = Setup::new(&spec, 1);
        let cfg = spec.config();
        let plain = setup.soft_run(cfg).expect("untraced run");
        let traced = traced_run(&setup, cfg).expect("traced run");
        assert_eq!(traced.exit_code, plain.exit_code, "{}", spec.name);
        assert_eq!(traced.output, plain.output, "{}", spec.name);
        assert_eq!(traced.exec, plain.exec, "{}", spec.name);
        assert_eq!(traced.cache, plain.cache, "{}", spec.name);
        assert_eq!(plain.output, setup.native.output, "{}", spec.name);

        let split = cycle_split(&traced, &cfg);
        let sum: i64 = split.iter().map(|&(_, c)| c).sum();
        assert_eq!(sum, traced.exec.cycles as i64, "{}: {split:?}", spec.name);
        assert_eq!(split[5], ("cycles.unattributed", 0), "{}", spec.name);

        let coverage = traced.trace.coverage();
        assert!(coverage >= 0.95, "{}: trace covers {coverage}", spec.name);
    }
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for w in Workload::ALL {
        let plain = tiny(w, false);
        for &(name, _, _) in END_TO_END {
            let v = plain.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{w:?}: end-to-end {name} = {v}");
        }
        let traced = tiny(w, true);
        if w != Workload::Serve {
            let coverage = traced.metrics["trace.coverage"];
            assert!(coverage >= 0.95, "{w:?}: trace covers {coverage}");
            assert_eq!(traced.metrics["cycles.unattributed"], 0.0, "{w:?}");
        }
        assert!(traced.trace.is_some(), "{w:?}: spans kept");
    }
}

#[test]
fn a_seed_repeats_its_counters_exactly() {
    for w in Workload::ALL {
        let a = tiny(w, false);
        let b = tiny(w, false);
        assert_eq!(a.counters, b.counters, "{w:?}");
        assert_eq!(
            a.metrics["sim_slowdown"], b.metrics["sim_slowdown"],
            "{w:?}"
        );
    }
    let other = run(
        Workload::Thrash,
        &Options {
            seed: 2,
            seconds: 0.0,
            trace: false,
        },
    );
    let thrash = tiny(Workload::Thrash, false);
    assert_ne!(other.counters, thrash.counters, "seed changes the input");
    assert_eq!(
        other.metrics["sim_slowdown"], thrash.metrics["sim_slowdown"],
        "sim_slowdown runs the fixed input, whatever the seed"
    );
}

#[test]
fn benchmark_json_matches_the_metrics_emitted() {
    let spec = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let ours = |table: &[softcache_benchmark::MetricSpec]| -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), ours(END_TO_END));
    assert_eq!(list("per_layer"), ours(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
