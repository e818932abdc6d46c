//! End-to-end drift + profiling CLI surface: `train` captures a drift
//! baseline into the bundle, `serve-replay --drift-out` writes a
//! per-province PSI report that flags a shifted province as `Major`
//! while an in-distribution province stays `Stable`, drift gauges reach
//! `--metrics-out`, and `--profile-out` writes parseable
//! flamegraph-collapsed text.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use loansim::{generate, GeneratorConfig, LoanFrame};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lightmirm"))
}

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lightmirm-drift-cli").join(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn lightmirm");
    assert!(
        out.status.success(),
        "lightmirm {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// A world whose 2020 stream is controlled, not generated: the two
/// best-sampled provinces replay their own pre-2020 rows as the 2020
/// stream — one verbatim (in distribution by construction), one with
/// every feature pushed +3.0 out of distribution. The generator's own
/// 2020 rows are dropped because it synthesizes a real COVID shift.
fn controlled_world(path: &Path) -> (u16, u16) {
    let frame = generate(&GeneratorConfig::small(6_000, 17));
    let mut counts: BTreeMap<u16, usize> = BTreeMap::new();
    for r in 0..frame.len() {
        if frame.year[r] < 2020 {
            *counts.entry(frame.province[r]).or_default() += 1;
        }
    }
    let mut by_count: Vec<(u16, usize)> = counts.into_iter().collect();
    by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let (stable_p, shifted_p) = (by_count[0].0, by_count[1].0);

    let mut world = LoanFrame::with_width(frame.n_features());
    for r in 0..frame.len() {
        if frame.year[r] >= 2020 {
            continue;
        }
        let (h, p, v, l) = (
            frame.half[r],
            frame.province[r],
            frame.vehicle[r],
            frame.label[r],
        );
        world
            .push(frame.row(r), frame.year[r], h, p, v, l)
            .expect("row fits");
        if p == stable_p {
            world
                .push(frame.row(r), 2020, h, p, v, l)
                .expect("row fits");
        } else if p == shifted_p {
            let shifted: Vec<f32> = frame.row(r).iter().map(|x| x + 3.0).collect();
            world.push(&shifted, 2020, h, p, v, l).expect("row fits");
        }
    }
    std::fs::write(path, world.to_bytes()).expect("world file");
    (stable_p, shifted_p)
}

/// The drift levels reported for one province, by signal name.
fn signal_levels(report: &serde_json::Value, env: u16) -> BTreeMap<String, String> {
    let entry = report["envs"]
        .as_array()
        .expect("envs array")
        .iter()
        .find(|e| e["env_id"].as_u64() == Some(u64::from(env)))
        .unwrap_or_else(|| panic!("province {env} missing from report: {report}"));
    assert!(entry["checks"].as_u64().unwrap() >= 1, "{entry}");
    entry["signals"]
        .as_array()
        .expect("signals array")
        .iter()
        .map(|s| {
            (
                s["signal"].as_str().expect("signal name").to_string(),
                s["level"].as_str().expect("signal level").to_string(),
            )
        })
        .collect()
}

#[test]
fn serve_replay_drift_out_flags_the_shifted_province() {
    let dir = tdir("replay");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let replay = dir.join("replay.json").to_string_lossy().into_owned();
    let drift = dir.join("drift.json");
    let metrics = dir.join("metrics.prom");
    let profile = dir.join("profile.txt");
    let (stable_p, shifted_p) = controlled_world(&world);

    let msg = run_ok(&[
        "train",
        "--data",
        world.to_str().unwrap(),
        "--out",
        &model,
        "--method",
        "lightmirm",
        "--trees",
        "6",
        "--epochs",
        "8",
    ]);
    assert!(msg.contains("drift baseline:"), "{msg}");

    let msg = run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        world.to_str().unwrap(),
        "--out",
        &replay,
        "--chunk",
        "7",
        "--grid",
        "5",
        "--drift-out",
        drift.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--profile-out",
        profile.to_str().unwrap(),
    ]);
    assert!(msg.contains("drift report"), "{msg}");

    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&drift).expect("drift file"))
            .expect("drift JSON");
    // The in-distribution province is Stable on every signal; the
    // shifted one escalates to Major.
    let stable = signal_levels(&report, stable_p);
    assert!(!stable.is_empty());
    assert!(
        stable.values().all(|l| l == "Stable"),
        "province {stable_p} should be stable: {stable:?}"
    );
    let shifted = signal_levels(&report, shifted_p);
    assert!(
        shifted.values().any(|l| l == "Major"),
        "province {shifted_p} should be flagged: {shifted:?}"
    );
    // Signals cover the score and at least one monitored feature column.
    assert!(shifted.contains_key("score"), "{shifted:?}");
    assert!(
        shifted.keys().any(|s| s.starts_with("feature_")),
        "{shifted:?}"
    );

    // The sentinel's gauges reach the metrics exposition.
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(text.contains("drift_psi{"), "no drift_psi gauges:\n{text}");

    // The span profile is flamegraph-collapsed text: `path <self_us>`
    // per line, with the engine's process_batch site present.
    let collapsed = std::fs::read_to_string(&profile).expect("profile file");
    assert!(!collapsed.trim().is_empty(), "empty profile");
    for line in collapsed.lines() {
        let (path, us) = line.rsplit_once(' ').expect("path <us> line");
        assert!(!path.is_empty(), "empty stack path: {line}");
        us.parse::<u64>()
            .unwrap_or_else(|e| panic!("bad self-us in {line}: {e}"));
    }
    assert!(collapsed.contains("process_batch"), "{collapsed}");
}

#[test]
fn score_drift_out_writes_report_and_baseline_cols_zero_monitors_scores_only() {
    let dir = tdir("score");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let scores = dir.join("scores.csv").to_string_lossy().into_owned();
    let drift = dir.join("drift.json");
    controlled_world(&world);
    run_ok(&[
        "train",
        "--data",
        world.to_str().unwrap(),
        "--out",
        &model,
        "--method",
        "erm",
        "--trees",
        "6",
        "--epochs",
        "5",
    ]);
    run_ok(&[
        "score",
        "--model",
        &model,
        "--data",
        world.to_str().unwrap(),
        "--out",
        &scores,
        "--drift-out",
        drift.to_str().unwrap(),
    ]);
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&drift).expect("drift file"))
            .expect("drift JSON");
    assert!(
        !report["envs"].as_array().expect("envs").is_empty(),
        "score over the full frame should populate windows: {report}"
    );

    // `--baseline-cols 0` keeps the score sketch but monitors no
    // feature columns.
    let bare = dir.join("bare.json").to_string_lossy().into_owned();
    run_ok(&[
        "train",
        "--data",
        world.to_str().unwrap(),
        "--out",
        &bare,
        "--method",
        "erm",
        "--trees",
        "6",
        "--epochs",
        "5",
        "--baseline-cols",
        "0",
    ]);
    let drift2 = dir.join("drift_bare.json");
    let msg = run_ok(&[
        "score",
        "--model",
        &bare,
        "--data",
        world.to_str().unwrap(),
        "--out",
        &scores,
        "--drift-out",
        drift2.to_str().unwrap(),
    ]);
    let report2: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&drift2).expect("drift file"))
            .expect("drift JSON");
    // --baseline-cols 0 still sketches scores, so the report is
    // populated; it just monitors no feature columns.
    assert!(msg.contains("drift report"), "{msg}");
    assert!(report2["envs"]
        .as_array()
        .expect("envs")
        .iter()
        .all(|e| e["signals"]
            .as_array()
            .unwrap()
            .iter()
            .all(|s| s["signal"] == "score")));
}

/// Train the small LightMIRM bundle the stream tests replay.
fn train_model(world: &Path, model: &str) {
    run_ok(&[
        "train",
        "--data",
        world.to_str().unwrap(),
        "--out",
        model,
        "--method",
        "lightmirm",
        "--trees",
        "6",
        "--epochs",
        "8",
    ]);
}

/// Run `serve-replay` over the controlled world with `extra` flags and
/// return its console output and report.
fn replay_with(
    world: &Path,
    model: &str,
    out: &Path,
    extra: &[&str],
) -> (String, serde_json::Value) {
    let mut args = vec![
        "serve-replay",
        "--model",
        model,
        "--data",
        world.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--chunk",
        "7",
        "--grid",
        "5",
    ];
    args.extend_from_slice(extra);
    let msg = run_ok(&args);
    let report = serde_json::from_str(&std::fs::read_to_string(out).expect("replay file"))
        .expect("replay JSON");
    (msg, report)
}

/// The replay figures that must not depend on how the stream is served.
fn replay_figures(report: &serde_json::Value) -> [&serde_json::Value; 4] {
    [
        &report["curve"],
        &report["rows"],
        &report["incumbent_threshold"],
        &report["incumbent_bad_debt"],
    ]
}

#[test]
fn serve_replay_at_three_shards_matches_one_shard() {
    let dir = tdir("shards3");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    controlled_world(&world);
    train_model(&world, &model);

    let (_, one) = replay_with(&world, &model, &dir.join("one.json"), &[]);
    let (msg, three) = replay_with(&world, &model, &dir.join("three.json"), &["--shards", "3"]);
    assert_eq!(replay_figures(&one), replay_figures(&three));
    assert!(
        one["curve"].as_array().is_some_and(|c| c.len() == 6),
        "{one}"
    );

    // One engine reports under `engine`; a fleet per shard, and the
    // shards together served exactly the lone engine's requests.
    assert_eq!(three["shards"].as_u64(), Some(3), "{three}");
    let engines = three["shard_engines"].as_array().expect("shard_engines");
    assert_eq!(engines.len(), 3);
    let requests: u64 = engines
        .iter()
        .map(|e| e["requests"].as_u64().expect("requests"))
        .sum();
    assert_eq!(Some(requests), one["engine"]["requests"].as_u64());
    assert_eq!(msg.matches("engine (shard ").count(), 3, "{msg}");
}

#[test]
fn sharded_reload_reaches_every_shard_and_keeps_the_curve() {
    let dir = tdir("shards-reload");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    controlled_world(&world);
    train_model(&world, &model);

    // Reloading the serving bundle itself: the probe passes, every
    // shard swaps, and the scores (so the curve) cannot change.
    let reload = ["--reload-model", model.as_str()];
    let (msg, one) = replay_with(&world, &model, &dir.join("one.json"), &reload);
    assert!(
        msg.contains(&format!("hot-reloaded bundle from {model}\n")),
        "{msg}"
    );
    let mut two_flags = reload.to_vec();
    two_flags.extend(["--shards", "2"]);
    let (msg, two) = replay_with(&world, &model, &dir.join("two.json"), &two_flags);
    assert!(msg.contains("on all 2 shards"), "{msg}");
    assert_eq!(replay_figures(&one), replay_figures(&two));
    for engine in two["shard_engines"].as_array().expect("shard_engines") {
        assert_eq!(engine["reloads"].as_u64(), Some(1), "{engine}");
    }
}

#[test]
fn sharded_drift_out_writes_one_report_per_shard() {
    let dir = tdir("shards-drift");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let drift = dir.join("drift.json");
    let (stable_p, shifted_p) = controlled_world(&world);
    train_model(&world, &model);

    let (msg, _) = replay_with(
        &world,
        &model,
        &dir.join("replay.json"),
        &["--shards", "2", "--drift-out", drift.to_str().unwrap()],
    );
    assert!(msg.contains("per-shard drift report (2 shards)"), "{msg}");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&drift).expect("drift file"))
            .expect("drift JSON");
    let reports = doc["shards"].as_array().expect("{\"shards\": [...]}");
    assert_eq!(reports.len(), 2, "{doc}");
    // A chunk routes by its first row's province, so a province may be
    // seen by either shard; every shard that checked it gives the
    // single-engine verdict.
    let verdicts = |env: u16| -> Vec<BTreeMap<String, String>> {
        reports
            .iter()
            .filter(|r| {
                r["envs"].as_array().expect("envs").iter().any(|e| {
                    e["env_id"].as_u64() == Some(u64::from(env))
                        && e["checks"].as_u64().unwrap_or(0) >= 1
                })
            })
            .map(|r| signal_levels(r, env))
            .collect()
    };
    let stable = verdicts(stable_p);
    assert!(!stable.is_empty(), "{doc}");
    assert!(
        stable
            .iter()
            .flat_map(|s| s.values())
            .all(|l| l == "Stable"),
        "{stable:?}"
    );
    let shifted = verdicts(shifted_p);
    assert!(
        shifted.iter().any(|s| s.values().any(|l| l == "Major")),
        "{shifted:?}"
    );
}
