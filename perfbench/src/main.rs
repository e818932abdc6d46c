//! One command per workload: builds its inputs from `--seed`, runs it,
//! checks the outputs, and prints every metric with its name and unit;
//! the last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <score-interactive|train> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is one lender cycle — generate the world, train the
//! GBDT+LR model with LightMIRM (and complete meta-IRM for Table III),
//! deploy it to the sharded engine, serve applications open-loop — with
//! its weight on one phase; see `NOTES.md`. The cycle runs in rounds of
//! a pipeline pass, meta-IRM epochs, nominal windows and ladder probes,
//! so every metric is sampled across the whole run. `--trace 0`
//! measures with all tracing off and reports the end-to-end metrics.
//! `--trace 1` runs a shorter cycle without the rate ladder three times
//! — untraced to warm up, traced (benchmark spans plus the engine's
//! request tracing), untraced again as the reference — writes the spans
//! under `.bench_out/`, and reports the per-layer metrics and the
//! tracing overhead.

mod driver;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use lightmirm_core::obs::STAGE_NAMES;
use lightmirm_core::pipeline::FeatureExtractorConfig;
use lightmirm_gbdt::GbdtConfig;
use lightmirm_serve::ShardedEngine;
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame};

use serve::Pool;
use spans::{Clock, SpanLog};
use stats::median;
use train::TrainSpec;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// At most this many spans are written out per traced run.
const SPAN_FILE_CAP: usize = 250_000;

/// A named workload.
struct Workload {
    name: &'static str,
    /// Rows in the generated world (2016–2020, 2020 is the test year).
    rows: usize,
    /// Volume of 2020 relative to each training year: above 1 so the
    /// per-province KS rests on enough test rows.
    test_year_weight: f64,
    train: TrainSpec,
    /// Serve the full interactive mix rather than the plain one.
    full_mix: bool,
}

/// Share of `--seconds` served at the nominal rate; the rest probes the
/// rate ladder. Training is fixed work outside `--seconds`.
const NOMINAL_SHARE: f64 = 0.5;
/// Ladder probes the remaining time is split into: a binary search over
/// the ladder takes seven, plus a repeat of some failed steps.
const LADDER_PROBES: u64 = 10;
/// Rounds of a measured cycle; each runs a pipeline pass, a stretch of
/// meta-IRM epochs, and two nominal windows each followed by a ladder
/// probe. The ladder search finishes after the last round.
const ROUNDS: usize = 6;
/// Rounds of each cycle of a traced run, which has no ladder.
const TRACED_ROUNDS: usize = 2;
/// Nominal windows per round.
const WINDOWS_PER_ROUND: usize = 2;

/// The loadgen bundle recipe: 64 trees of up to 31 leaves over the 210
/// loan features.
fn loadgen_recipe() -> FeatureExtractorConfig {
    FeatureExtractorConfig {
        gbdt: GbdtConfig {
            n_trees: 64,
            ..GbdtConfig::default()
        },
    }
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "score-interactive" => Workload {
            name: "score-interactive",
            rows: 16_500,
            test_year_weight: 9.2,
            train: TrainSpec {
                extractor: loadgen_recipe(),
                lightmirm_epochs: 150,
                meta_irm_epochs: 5,
            },
            full_mix: true,
        },
        "train" => Workload {
            name: "train",
            rows: 32_000,
            test_year_weight: 2.4,
            train: TrainSpec {
                extractor: FeatureExtractorConfig::default(),
                lightmirm_epochs: 100,
                meta_irm_epochs: 4,
            },
            full_mix: false,
        },
        _ => return None,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Inputs built during set-up.
struct Inputs {
    train: LoanFrame,
    test: LoanFrame,
    pool: Pool,
}

/// Generate the world and synthesize the request payloads.
fn set_up(w: &Workload, seed: u64, clock: &Clock, spans: &mut SpanLog) -> Inputs {
    let root = spans.open(clock);
    let split = spans.time(clock, "loansim.generate", root.id, || {
        let frame = generate(&GeneratorConfig {
            year_weights: vec![
                (2016, 1.0),
                (2017, 1.0),
                (2018, 1.0),
                (2019, 1.0),
                (2020, w.test_year_weight),
            ],
            ..GeneratorConfig::small(w.rows, seed)
        });
        temporal_split(&frame, 2020)
    });
    let pool = spans.time(clock, "framing.encode", root.id, || {
        serve::synthesize(w.full_mix, &split.test, seed)
    });
    spans.close(clock, root, "driver.setup", 0);
    Inputs {
        train: split.train,
        test: split.test,
        pool,
    }
}

/// End-to-end results of one cycle.
struct Cycle {
    trained: train::Trained,
    nominal: serve::Phase,
    max_rate_rps: f64,
    ladder: Vec<serve::Step>,
    engine_start_s: f64,
    counters: serve::EngineCounters,
    stage_mean_us: Vec<(String, f64)>,
    reload_ms: f64,
    scoring_layers: Vec<(String, f64, &'static str)>,
}

/// Train, deploy and serve once, searching the rate ladder if `ladder`.
/// A traced cycle records spans, turns on the engine's request
/// tracing, and adds the direct layer calls.
fn cycle(
    w: &Workload,
    inputs: &mut Inputs,
    seed: u64,
    seconds: f64,
    clock: &Clock,
    spans: &mut SpanLog,
    ladder: bool,
) -> Cycle {
    let traced = spans.enabled();
    let Inputs { train, test, pool } = inputs;
    let mut training = train::Training::new(&w.train, train, test, seed);
    training.pass(clock, spans);
    let bundle = training.bundle().clone();
    pool.score_offline(&bundle);

    let cfg = serve::shard_config(w.full_mix, traced);
    let mut starts = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let e = spans.time(clock, "engine.start", 0, || {
            ShardedEngine::new(&bundle, &cfg)
        });
        starts.push(t.elapsed().as_secs_f64());
        if let Some(old) = engine.replace(e) {
            ShardedEngine::shutdown(old);
        }
    }
    let engine = engine.expect("engine started");

    // Rounds: a pipeline pass (the first ran above), a stretch of
    // meta-IRM epochs, nominal windows and ladder probes, so every
    // metric is sampled across the whole run.
    let serve_ns = (seconds * 1e9) as u64;
    let rounds = if ladder { ROUNDS } else { TRACED_ROUNDS };
    let windows = (rounds * WINDOWS_PER_ROUND) as u64;
    let window_ns = (serve_ns as f64 * NOMINAL_SHARE) as u64 / windows;
    let probe_ns = ladder.then(|| (serve_ns - window_ns * windows) / LADDER_PROBES);
    let mut serving = serve::Serving::start(
        w.full_mix, &engine, pool, &bundle, seed, window_ns, probe_ns, clock,
    );
    for round in 0..rounds {
        if round > 0 {
            training.pass(clock, spans);
        }
        training.meta_irm(w.train.meta_irm_epochs, clock, spans);
        for _ in 0..WINDOWS_PER_ROUND {
            serving.window(clock, spans);
            serving.probes(1, clock);
        }
    }
    let served = serving.finish(clock);
    let trained = training.finish(clock, spans);
    let nominal = served.nominal;
    let (max_rate_rps, ladder) = (served.max_rate_rps, served.ladder);
    let mut reload_ms = nominal.reload_ms.clone();
    if traced && reload_ms.is_empty() {
        // The mix has no reloads in its schedule: time three on the idle engine.
        let republished = serve::republish(&trained.bundle);
        for _ in 0..3 {
            let t = Instant::now();
            spans.time(clock, "engine.reload", 0, || {
                engine
                    .reload_all(&republished, inputs.test.row(0), &inputs.test.province[..1])
                    .expect("a republished bundle passes its probe")
            });
            reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let stage_mean_us = STAGE_NAMES
        .iter()
        .zip(engine.stage_histograms().iter())
        .map(|(name, h)| {
            let mean = h.sum() as f64 / h.count().max(1) as f64 / 1e3;
            (format!("engine.stage.{name}_mean_us"), mean)
        })
        .collect();
    let counters = serve::counters(&spans.time(clock, "engine.shutdown", 0, || engine.shutdown()));
    assert_eq!(
        counters.reloads as usize,
        reload_ms.len() * serve::SHARDS,
        "every reload_all reached every shard"
    );
    let scoring_layers = if traced {
        serve::scoring_layers(
            &trained.bundle,
            &trained.weights,
            &inputs.test,
            counters.batch_rows_mean.round() as usize,
            clock,
            spans,
        )
    } else {
        Vec::new()
    };
    Cycle {
        trained,
        nominal,
        max_rate_rps,
        ladder,
        engine_start_s: median(&starts),
        counters,
        stage_mean_us,
        reload_ms: if reload_ms.is_empty() {
            0.0
        } else {
            median(&reload_ms)
        },
        scoring_layers,
    }
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <score-interactive|train> \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let clock = Clock::new();

    // Set-up: world generation and payload synthesis, repeated; the
    // engine start is timed inside the cycle and added.
    let mut setup = Vec::new();
    let mut inputs = None;
    let mut setup_spans = SpanLog::new(args.trace);
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so peak memory counts one.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(set_up(w, args.seed, &clock, &mut setup_spans));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("set up at least once");

    let mut off = SpanLog::new(false);
    let run = cycle(
        w,
        &mut inputs,
        args.seed,
        args.seconds,
        &clock,
        &mut off,
        !args.trace,
    );
    let traced = args.trace.then(|| {
        let mut spans = SpanLog::new(true);
        spans.absorb(setup_spans);
        let c = cycle(
            w,
            &mut inputs,
            args.seed,
            args.seconds,
            &clock,
            &mut spans,
            false,
        );
        let reference = cycle(
            w,
            &mut inputs,
            args.seed,
            args.seconds,
            &clock,
            &mut off,
            false,
        );
        (c, spans, reference)
    });

    let setup_s = median(&setup) + run.engine_start_s;
    let t = &run.trained;
    let n = &run.nominal;
    // Every cycle of a run must train the same model and serve every
    // reply bit-exactly.
    let digest_matches = traced.as_ref().is_none_or(|(c, _, r)| {
        [&c.trained, &r.trained].iter().all(|x| {
            x.weight_digest == t.weight_digest
                && x.bundle_matches
                && x.ledger_matches
                && x.reps_match
        }) && c.nominal.mismatches == 0
            && r.nominal.mismatches == 0
    });
    let correct = t.bundle_matches
        && t.ledger_matches
        && t.reps_match
        && n.mismatches == 0
        && digest_matches
        && run.ladder.iter().all(|s| s.phase.mismatches == 0);

    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"commit\": \"{}\", \
         \"nproc\": {}, \"kernel_backend\": \"{}\", \"rayon_threads\": {}, \"shards\": {}, \
         \"workers_per_shard\": {}, \"max_batch\": {}, \"max_wait_us\": {}, \"queue_capacity\": {}, \
         \"shed_watermark\": {}, \"nominal_rps\": {}, \"p99_limit_ms\": {}, \"world_rows\": {}, \
         \"lightmirm_epochs\": {}, \"meta_irm_epochs\": {}}}}}",
        w.name,
        args.seed,
        args.seconds,
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        lightmirm_core::simd::backend().name(),
        rayon::current_num_threads(),
        serve::SHARDS,
        serve::WORKERS_PER_SHARD,
        serve::MAX_BATCH,
        serve::MAX_WAIT_US,
        serve::QUEUE_CAPACITY,
        serve::shed_watermark(w.full_mix),
        serve::NOMINAL_RPS,
        serve::P99_LIMIT_MS,
        w.rows,
        w.train.lightmirm_epochs,
        w.train.meta_irm_epochs,
    );
    println!("{provenance}");
    println!(
        "checks: bundle==predict_rows {} | ops ledger 4M/2M² {} | passes identical {} | \
         weight digest {:016x} | reply mismatches {} | reply digest {:016x} | ladder mismatches {}",
        t.bundle_matches,
        t.ledger_matches,
        t.reps_match,
        t.weight_digest,
        n.mismatches,
        n.digest,
        run.ladder.iter().map(|s| s.phase.mismatches).sum::<usize>()
    );
    println!(
        "nominal: {} requests, {} refused, {} failed, error_rate {:.6}; latency n={} p50 {:.4} ms \
         p90 {:.4} ms p99 {:.4} ms p99.9 {:.4} ms ({} beyond p99.9); tail {:?}; p10 \
         of {} windows: p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms; driver late p99 {:.4} ms",
        n.attempted,
        n.refused,
        n.failed,
        n.error_rate(),
        n.latency.n,
        n.latency.p50,
        n.latency.p90,
        n.latency.p99,
        n.latency.p999,
        n.latency.beyond_p999,
        n.latency.tail,
        n.window_p50s.len(),
        n.window_p50_ms,
        n.window_p90_ms,
        n.window_p99_ms,
        n.late_p99_ms
    );
    let q = |v: &[f64], bp| stats::quantile(&stats::sorted(v.to_vec()), bp);
    println!(
        "samples: pipeline passes {:?} s; LightMIRM epochs n={} p10 {:.6} p25 {:.6} p50 {:.6} s; \
         meta-IRM epochs n={} p10 {:.6} p25 {:.6} p50 {:.6} s; window p50s {:?} ms; \
         window p99s {:?} ms; window p90s {:?} ms",
        t.pipeline_reps_s,
        t.lm_epochs.len(),
        q(&t.lm_epochs, 1_000),
        q(&t.lm_epochs, 2_500),
        q(&t.lm_epochs, 5_000),
        t.meta_epochs.len(),
        q(&t.meta_epochs, 1_000),
        q(&t.meta_epochs, 2_500),
        q(&t.meta_epochs, 5_000),
        n.window_p50s,
        n.window_p99s,
        n.window_p90s,
    );
    let provinces: Vec<String> = t
        .provinces
        .iter()
        .map(|(name, rows, ks)| format!("{name} {rows} {ks:.3}"))
        .collect();
    println!(
        "2020 KS by province (rows, KS; at least {} rows): {}",
        train::MIN_EVAL_ROWS,
        provinces.join(", ")
    );
    for s in &run.ladder {
        println!(
            "ladder: {:>9.1} req/s offered -> {:>9.1} achieved, p99 {:>8.3} ms (windows {:>8.3}), \
             errors {}, backlog {}, {}",
            s.rate,
            s.phase.achieved_rps,
            s.phase.latency.p99,
            s.phase.window_p99_ms,
            s.phase.refused + s.phase.failed,
            s.phase.backlog_at_end,
            if s.pass { "pass" } else { "FAIL" }
        );
    }

    let metrics: Vec<(String, f64, &str)> = match &traced {
        None => vec![
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            ("latency_p50_ms".into(), n.window_p50_ms, "ms"),
            ("max_rate_rps".into(), run.max_rate_rps, "req/s"),
            ("pipeline_s".into(), t.pipeline_s, "s"),
            ("lightmirm_epoch_s".into(), t.lightmirm_epoch_s, "s"),
            ("meta_irm_epoch_s".into(), t.meta_irm_epoch_s, "s"),
            ("test_mks".into(), t.test_mks, "KS"),
            ("test_wks".into(), t.test_wks, "KS"),
        ],
        Some((c, spans, reference)) => {
            println!(
                "tracing overhead: pipeline_s {:.4} traced vs {:.4} untraced; nominal p50 {:.4} ms \
                 traced vs {:.4} ms untraced",
                c.trained.pipeline_s,
                reference.trained.pipeline_s,
                c.nominal.window_p50_ms,
                reference.nominal.window_p50_ms
            );
            let path = std::path::PathBuf::from(".bench_out")
                .join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
            match spans.write_tsv(&path, SPAN_FILE_CAP) {
                Ok(left_out) => println!(
                    "spans: {} recorded, written to {} ({left_out} beyond the cap left out)",
                    spans.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
            let mut m: Vec<(String, f64, &str)> = Vec::new();
            m.extend(c.trained.layers.iter().cloned());
            m.extend(c.scoring_layers.iter().cloned());
            m.push((
                "framing.decode_us_per_req".into(),
                c.nominal.decode_us_mean,
                "us",
            ));
            m.push(("shard.submit_us_p50".into(), c.nominal.submit_us.p50, "us"));
            m.push(("shard.submit_us_p99".into(), c.nominal.submit_us.p99, "us"));
            m.push(("engine.reload_ms".into(), c.reload_ms, "ms"));
            m.push((
                "engine.batch_rows_mean".into(),
                c.counters.batch_rows_mean,
                "rows",
            ));
            m.push((
                "engine.queue_depth_max".into(),
                c.counters.queue_depth_max,
                "rows",
            ));
            m.push((
                "engine.refused_total".into(),
                c.counters.refused_total,
                "count",
            ));
            for (name, v) in &c.stage_mean_us {
                m.push((name.clone(), *v, "us"));
            }
            m.push(("driver.late_p99_ms".into(), c.nominal.late_p99_ms, "ms"));
            let self_ns = spans.self_time_by_layer();
            for layer in [
                "loansim", "gbdt", "pipeline", "kernels", "trainers", "metrics", "bundle",
                "framing", "shard", "engine", "driver",
            ] {
                let ns = self_ns.get(layer).copied().unwrap_or(0);
                m.push((format!("{layer}.self_ms"), ns as f64 / 1e6, "ms"));
            }
            m.push((
                "trace.overhead_train_pct".into(),
                (c.trained.pipeline_s / reference.trained.pipeline_s - 1.0) * 100.0,
                "%",
            ));
            m.push((
                "trace.overhead_serve_p50_pct".into(),
                (c.nominal.window_p50_ms / reference.nominal.window_p50_ms - 1.0) * 100.0,
                "%",
            ));
            m
        }
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        n.attempted,
        n.refused + n.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::FAILURE
    }
}
