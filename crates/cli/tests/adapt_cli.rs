//! End-to-end CLI surface for the supervised adaptation loop:
//! `serve-replay --adapt` turns the shifted province's Major drift into a
//! warm retrain + promotion, writes the transition event log, embeds an
//! `adapt` block in the replay JSON, and persists the adapted bundle
//! (with its lineage record) through `--adapt-out`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use lightmirm_core::prelude::ModelBundle;
use lightmirm_serve::ShardRouter;
use loansim::{generate, GeneratorConfig, LoanFrame};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lightmirm"))
}

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lightmirm-adapt-cli").join(name);
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

/// Same controlled world as the drift CLI suite: the two best-sampled
/// provinces replay their pre-2020 rows as the 2020 stream, one verbatim
/// and one pushed +3.0 out of distribution.
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

#[test]
fn serve_replay_adapt_promotes_logs_and_persists_lineage() {
    let dir = tdir("promote");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let replay = dir.join("replay.json");
    let adapted = dir.join("adapted.json");
    let log = dir.join("adapt.jsonl");
    let journal = dir.join("ops-journal.jsonl");
    let (_stable_p, shifted_p) = controlled_world(&world);

    run_ok(&[
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

    // Guard -1.0: any successfully retrained + probed challenger
    // promotes, so the test asserts the machinery end to end without
    // betting on the tiny retrain beating the champion's canary AUC.
    let msg = run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        world.to_str().unwrap(),
        "--out",
        replay.to_str().unwrap(),
        "--chunk",
        "7",
        "--grid",
        "5",
        "--adapt",
        "--adapt-min-rows",
        "150",
        "--adapt-epochs",
        "4",
        "--adapt-guard",
        "-1.0",
        "--adapt-cooldown",
        "60",
        "--adapt-out",
        adapted.to_str().unwrap(),
        "--adapt-log",
        log.to_str().unwrap(),
        "--journal-out",
        journal.to_str().unwrap(),
    ]);
    assert!(msg.contains("adaptation:"), "{msg}");
    assert!(msg.contains("adaptation event log"), "{msg}");
    assert!(msg.contains("ops journal"), "{msg}");

    // The replay JSON gains an `adapt` block recording a promotion.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&replay).expect("replay file"))
            .expect("replay JSON");
    let adapt = &report["adapt"];
    assert!(adapt.as_object().is_some(), "no adapt block: {report}");
    assert!(
        adapt["generation"].as_u64().expect("generation") >= 1,
        "no promotion happened: {adapt}"
    );
    assert_eq!(
        adapt["promotions"].as_u64(),
        adapt["generation"].as_u64(),
        "{adapt}"
    );

    // The event log is JSONL and walks Observe → Retrain → Probe →
    // Canary → Promote for the shifted province.
    let log_text = std::fs::read_to_string(&log).expect("event log");
    let stages: Vec<(String, Option<u64>)> = log_text
        .lines()
        .map(|l| {
            let e: serde_json::Value = serde_json::from_str(l).expect("event line");
            (
                e["stage"].as_str().expect("stage").to_string(),
                e["env"].as_u64(),
            )
        })
        .collect();
    for want in ["retrain", "probe", "canary", "promote"] {
        assert!(
            stages
                .iter()
                .any(|(s, env)| s == want && *env == Some(u64::from(shifted_p))),
            "stage {want} for province {shifted_p} missing: {stages:?}"
        );
    }

    // The same transition log is absorbed into the unified ops journal
    // as `adapt_event` records: stage/step/generation/env live in the
    // deterministic `fields` half, so the promote walk survives the
    // normalized (obs-stripped) projection too.
    let journal_text = std::fs::read_to_string(&journal).expect("ops journal");
    let adapt_events: Vec<(String, Option<u64>)> = journal_text
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("journal line"))
        .filter(|r| r["kind"].as_str() == Some("adapt_event"))
        .map(|r| {
            (
                r["fields"]["stage"].as_str().expect("stage").to_string(),
                r["fields"]["env"].as_u64(),
            )
        })
        .collect();
    assert_eq!(
        adapt_events.len(),
        stages.len(),
        "journal must absorb every adapt transition"
    );
    assert!(
        adapt_events
            .iter()
            .any(|(s, env)| s == "promote" && *env == Some(u64::from(shifted_p))),
        "promote record missing from journal: {adapt_events:?}"
    );

    // The adapted bundle was persisted through the CRC envelope with a
    // lineage record pointing at its parent.
    let bundle_text = std::fs::read_to_string(&adapted).expect("adapted bundle");
    assert!(bundle_text.starts_with("LMIRM-BUNDLE v1"), "{bundle_text}");
    assert!(bundle_text.contains("\"parent_crc32\""), "no lineage");
    assert!(bundle_text.contains("\"trigger_psi\""), "no lineage");
}

#[test]
fn serve_replay_rejects_adapt_with_reload_model() {
    let dir = tdir("exclusive");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
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
        "4",
        "--epochs",
        "3",
    ]);
    let out = bin()
        .args([
            "serve-replay",
            "--model",
            &model,
            "--data",
            world.to_str().unwrap(),
            "--out",
            dir.join("replay.json").to_str().unwrap(),
            "--adapt",
            "--reload-model",
            &model,
        ])
        .output()
        .expect("spawn lightmirm");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

/// A test directory emptied first, so no file from an earlier run can
/// stand in for one this run should have written.
fn fresh_dir(name: &str) -> PathBuf {
    let _ = std::fs::remove_dir_all(tdir(name));
    tdir(name)
}

/// Shard `i`'s copy of a per-shard output file.
fn shard_path(path: &Path, i: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard{i}", path.display()))
}

fn train_lightmirm(world: &Path, model: &str) {
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

#[test]
fn sharded_adapt_files_sharing_a_stem_stay_apart() {
    let dir = fresh_dir("sharded-stem");
    let world = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let replay = dir.join("replay.json");
    // Same stem: replacing the extension would map both to `a.shard<i>`.
    let adapted = dir.join("a.json");
    let log = dir.join("a.jsonl");
    controlled_world(&world);
    train_lightmirm(&world, &model);

    let msg = run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        world.to_str().unwrap(),
        "--out",
        replay.to_str().unwrap(),
        "--chunk",
        "7",
        "--grid",
        "5",
        "--shards",
        "2",
        "--adapt",
        "--adapt-min-rows",
        "150",
        "--adapt-epochs",
        "4",
        "--adapt-guard",
        "-1.0",
        "--adapt-cooldown",
        "60",
        "--adapt-out",
        adapted.to_str().unwrap(),
        "--adapt-log",
        log.to_str().unwrap(),
    ]);
    assert!(msg.contains("adaptation (shard 1):"), "{msg}");

    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&replay).expect("replay file"))
            .expect("replay JSON");
    let blocks = report["adapt"]
        .as_array()
        .expect("one adapt block per shard");
    assert_eq!(blocks.len(), 2, "{report}");
    let mut promoted = 0;
    for (i, block) in blocks.iter().enumerate() {
        // Every shard's event log is JSONL holding all its events.
        let text = std::fs::read_to_string(shard_path(&log, i)).expect("shard event log");
        for line in text.lines() {
            let event: serde_json::Value = serde_json::from_str(line).expect("event line");
            assert!(event["stage"].as_str().is_some(), "{line}");
        }
        assert_eq!(Some(text.lines().count() as u64), block["events"].as_u64());
        // A promoting shard's bundle survives its log being written.
        if block["generation"].as_u64().expect("generation") >= 1 {
            promoted += 1;
            let bundle = ModelBundle::load_from_path(&shard_path(&adapted, i))
                .expect("promoted bundle loads");
            let lineage = bundle.lineage.expect("promoted bundle carries lineage");
            assert!(lineage.generation >= 1, "{lineage:?}");
        }
    }
    assert!(promoted >= 1, "no shard promoted: {report}");
    assert!(!dir.join("a.shard0").exists() && !dir.join("a.shard1").exists());
}

#[test]
fn adapt_every_counts_each_shards_own_chunks() {
    let dir = fresh_dir("cadence");
    let world_path = dir.join("world.bin");
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let replay = dir.join("replay.json");

    // Two well-sampled provinces the router sends to different shards.
    let frame = generate(&GeneratorConfig::small(6_000, 17));
    let mut rows: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    for r in 0..frame.len() {
        if frame.year[r] < 2020 {
            rows.entry(frame.province[r]).or_default().push(r);
        }
    }
    let mut ranked: Vec<(u16, Vec<usize>)> = rows.into_iter().collect();
    ranked.sort_by_key(|(_, r)| std::cmp::Reverse(r.len()));
    let router = ShardRouter::new(2);
    let a = &ranked[0];
    let b = ranked
        .iter()
        .find(|(p, _)| router.route(*p) != router.route(a.0))
        .expect("a province on the other shard");

    // Train on the pre-2020 rows; the 2020 stream alternates a, b, a, …
    // so 1-row chunks alternate shards.
    let mut world = LoanFrame::with_width(frame.n_features());
    for r in 0..frame.len() {
        if frame.year[r] < 2020 {
            let (h, p, v, l) = (
                frame.half[r],
                frame.province[r],
                frame.vehicle[r],
                frame.label[r],
            );
            world
                .push(frame.row(r), frame.year[r], h, p, v, l)
                .expect("row fits");
        }
    }
    let pairs = 41;
    for k in 0..pairs {
        for &r in [a.1[k], b.1[k]].iter() {
            let (h, p, v, l) = (
                frame.half[r],
                frame.province[r],
                frame.vehicle[r],
                frame.label[r],
            );
            world
                .push(frame.row(r), 2020, h, p, v, l)
                .expect("row fits");
        }
    }
    std::fs::write(&world_path, world.to_bytes()).expect("world file");
    train_lightmirm(&world_path, &model);

    run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        world_path.to_str().unwrap(),
        "--out",
        replay.to_str().unwrap(),
        "--chunk",
        "1",
        "--grid",
        "5",
        "--shards",
        "2",
        "--adapt",
        "--adapt-every",
        "2",
        // Observation only: no retrain is ever due.
        "--adapt-min-rows",
        "1000000",
    ]);
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&replay).expect("replay file"))
            .expect("replay JSON");
    let engines = report["shard_engines"].as_array().expect("shard_engines");
    let blocks = report["adapt"].as_array().expect("adapt blocks");
    for (engine, block) in engines.iter().zip(blocks) {
        let requests = engine["requests"].as_u64().expect("requests");
        assert_eq!(requests, pairs as u64, "{report}");
        assert_eq!(block["steps"].as_u64(), Some(requests / 2), "{report}");
    }
}
