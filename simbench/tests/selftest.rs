//! Self-tests of the benchmark's checks and output formats.

use std::time::Instant;

use equalizer_obs::json::validate;
use equalizer_power::PowerModel;
use equalizer_sim::stats::RunStats;
use simbench::bench::{judge, Class, Metric, Op, Pass};
use simbench::digest::{
    digest_debug, parse_reference, reference, reference_mismatches, run_digest,
};
use simbench::jobs::{run_plain, run_traced, Job};
use simbench::report::result_json;
use simbench::stats::{median, tail_percentile};
use simbench::trace::trace_json;

fn small_stats() -> RunStats {
    RunStats {
        wall_time_fs: 123_456,
        num_sms: 15,
        sm_cycles_at: [1, 2, 3],
        ..RunStats::default()
    }
}

#[test]
fn digest_ignores_batched_ticks() {
    let debug = format!("{:?}", small_stats());
    // The diagnostic is edited in the rendering, so this test never
    // names the field and survives its removal.
    let edited = debug.replace("batched_ticks: 0", "batched_ticks: 977");
    assert_eq!(digest_debug(&[&debug]), digest_debug(&[&edited]));
}

#[test]
fn digest_catches_a_one_field_change() {
    let model = PowerModel::gtx480();
    let base = small_stats();
    let energy = model.energy(&base);
    let mut changed = base.clone();
    changed.sm_cycles_at[2] += 1;
    assert_ne!(run_digest(&base, &energy), run_digest(&changed, &energy));
    let mut other_energy = energy;
    other_energy.leakage_j += 1e-12;
    assert_ne!(run_digest(&base, &energy), run_digest(&base, &other_energy));
    assert_eq!(
        run_digest(&base, &energy),
        run_digest(&base.clone(), &energy)
    );
}

fn passing_op(label: &str, digest: u64) -> Op {
    Op {
        label: label.to_string(),
        class: Class::Cold,
        latency_s: 0.1,
        digest: Ok(digest),
    }
}

#[test]
fn tampered_reference_counts_as_failure() {
    let pass = Pass {
        ops: vec![passing_op("w/a", 1), passing_op("w/b", 2)],
        ..Pass::default()
    };
    let passes = vec![pass.clone(), pass];
    let good = parse_reference("w/a 1\nw/b 2\n").unwrap();
    assert_eq!(judge(&passes, Some(&good)).failed, 0);

    let tampered = parse_reference("w/a 1\nw/b 3\n").unwrap();
    let verdict = judge(&passes, Some(&tampered));
    assert_eq!(verdict.attempted, 4);
    assert_eq!(verdict.failed, 2, "both runs of w/b fail");

    let missing = parse_reference("w/a 1\n").unwrap();
    assert_eq!(
        reference_mismatches(&judge(&passes, None).digests, &missing),
        vec!["w/b".to_string()]
    );
}

#[test]
fn repeated_jobs_must_agree_and_errors_fail() {
    let mut second = passing_op("w/a", 9);
    second.latency_s = 0.2;
    let errored = Op {
        digest: Err("serve error".to_string()),
        ..passing_op("w/c", 0)
    };
    let passes = vec![Pass {
        ops: vec![passing_op("w/a", 1), second, errored],
        ..Pass::default()
    }];
    let verdict = judge(&passes, None);
    assert_eq!((verdict.attempted, verdict.failed), (3, 2));
}

#[test]
fn committed_reference_parses() {
    let reference = reference().unwrap();
    for workload in [
        "perf-set/",
        "governed-observed/",
        "figure-sweep/",
        "serve-mixed/",
    ] {
        assert!(
            reference.keys().any(|k| k.starts_with(workload)),
            "no reference digests for {workload}"
        );
    }
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(
        tail_percentile(&samples, 90),
        None,
        "99 samples leave 9 beyond p90"
    );
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples, 90), Some(90.0));
    assert_eq!(tail_percentile(&samples, 50), Some(50.0));
    assert_eq!(tail_percentile(&[], 90), None);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

#[test]
fn traced_and_plain_runs_agree_and_emit_valid_json() {
    let job = Job {
        kernel: "prtcl-2",
        seed: 5,
        system: equalizer_harness::System::EqualizerPerSmVrm(equalizer_core::Mode::Energy),
        observed: true,
    };
    let plain = run_plain(&job).unwrap();
    let (traced, trace) = run_traced(&job, true, Instant::now(), 1);
    let traced = traced.unwrap();
    assert_eq!(
        run_digest(&plain.stats, &plain.energy),
        run_digest(&traced.stats, &traced.energy)
    );
    assert!(trace.layers.sm_step.calls > 0 && trace.layers.observer.calls > 0);
    let json = trace_json("selftest \"quoted\"", "{\"seed\": 5}", &trace.spans);
    validate(&json).unwrap();

    let metrics = vec![Metric {
        name: "wall_s",
        value: 1.25,
        unit: "s",
        samples: 3,
    }];
    let result = result_json(10, 0, &metrics);
    validate(&result).unwrap();
    assert!(result.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
}
