//! The committed `BENCH_*.json` artifacts against the strict reader and
//! the writer: every one round-trips byte for byte, and a truncated or
//! wrong-typed perf or soak baseline fails with an error naming the file
//! and the key — never a pass, a shorter trend or a switch of gate mode.

use std::path::PathBuf;

use smartconf_bench::artifact::{read_artifact, Json};
use smartconf_bench::perf::{baseline_gates, read_history};
use smartconf_bench::soak::check_soak;

const ARTIFACTS: [&str; 6] = [
    "BENCH_adaptive.json",
    "BENCH_chaos.json",
    "BENCH_fleet.json",
    "BENCH_perf.json",
    "BENCH_resilience.json",
    "BENCH_soak.json",
];

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Writes `text` to a scratch file named after `name` and returns its path.
fn scratch(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch artifact");
    path.to_string_lossy().into_owned()
}

#[test]
fn committed_artifacts_round_trip_byte_for_byte() {
    for name in ARTIFACTS {
        let text = committed(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.render(), text, "{name} does not re-render identically");
    }
    // The perf history mixes entry shapes: the oldest has neither
    // `warmup` nor `scenario_rates`.
    let perf = Json::parse(&committed("BENCH_perf.json")).unwrap();
    let Json::Obj(members) = &perf else {
        panic!("perf artifact is an object")
    };
    let history = members.iter().find(|(k, _)| k == "history").unwrap();
    let Json::Arr(entries) = &history.1 else {
        panic!("history is an array")
    };
    let keys = |e: &Json| match e {
        Json::Obj(m) => m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    assert_eq!(keys(&entries[0]), ["fleet_secs", "kernel_rate"]);
    assert!(entries.iter().any(|e| keys(e).len() == 4));
}

/// Byte offsets spread over the whole document, every one before its
/// closing brace (cutting only the trailing newline leaves a whole
/// document), plus one inside `inner`.
fn cuts(text: &str, inner: &str) -> Vec<usize> {
    let end = text.rfind('}').unwrap();
    let mut offsets: Vec<usize> = (0..40).map(|i| i * end / 40).collect();
    offsets.push(text.find(inner).unwrap() + inner.len() + 3);
    offsets.push(end);
    offsets
}

#[test]
fn truncated_baselines_fail_naming_file_and_key() {
    for (name, inner) in [
        ("BENCH_perf.json", "\"history\": ["),
        ("BENCH_soak.json", "\"cohorts\": ["),
    ] {
        let text = committed(name);
        for cut in cuts(&text, inner) {
            let path = scratch(&format!("cut-{cut}-{name}"), &text[..cut]);
            let err = read_artifact("baseline", &path).expect_err("truncated document parsed");
            assert!(
                err.starts_with(&format!("malformed baseline {path}: `")),
                "{err}"
            );
            assert!(err.contains("unexpected end of input"), "{err}");
            if cut > text.find(inner).unwrap() + inner.len() && cut < text.rfind(']').unwrap() {
                let key = &inner[1..inner.find("\":").unwrap()];
                assert!(err.contains(&format!("`{key}[")), "{err}");
            }
            // The perf gates and the history carry read through the
            // same strict reader.
            if name == "BENCH_perf.json" {
                assert!(baseline_gates(&path).is_err());
                let carried = read_history(&path).expect_err("truncated history carried");
                assert!(carried.starts_with(&format!("malformed previous {path}")));
            }
        }
    }
}

#[test]
fn non_numeric_values_fail_naming_file_and_key() {
    let perf = committed("BENCH_perf.json");
    for (from, to, key) in [
        (
            "\"fleet_wall_clock_secs\": 0.686",
            "\"fleet_wall_clock_secs\": \"fast\"",
            "fleet_wall_clock_secs",
        ),
        (
            "\"fleet_secs\": 0.604",
            "\"fleet_secs\": null",
            "history[0].fleet_secs",
        ),
        (
            "\"events_per_sec\": 9931227",
            "\"events_per_sec\": true",
            "kernel.events_per_sec",
        ),
    ] {
        assert!(perf.contains(from), "{from}");
        let path = scratch("bad-BENCH_perf.json", &perf.replacen(from, to, 1));
        let expected = format!("`{key}` is not a number");
        let gates = baseline_gates(&path).expect_err("gated a wrong-typed baseline");
        assert_eq!(gates, format!("malformed baseline {path}: {expected}"));
        let carried = read_history(&path).expect_err("carried a wrong-typed artifact");
        assert_eq!(carried, format!("malformed previous {path}: {expected}"));
    }

    let soak = committed("BENCH_soak.json");
    let fresh = Json::parse(&soak).unwrap();
    let bad = soak.replacen("\"p999\": 1.0455", "\"p999\": \"x\"", 1);
    assert_ne!(bad, soak);
    let path = scratch("bad-BENCH_soak.json", &bad);
    let baseline = read_artifact("baseline", &path).expect("still well-formed JSON");
    assert_eq!(
        check_soak(&fresh, &baseline, &path),
        [format!(
            "malformed baseline {path}: `cohorts[0].p999` is not a number"
        )]
    );
    // The committed soak artifact passes against itself.
    assert!(check_soak(&fresh, &fresh, "BENCH_soak.json").is_empty());
}
