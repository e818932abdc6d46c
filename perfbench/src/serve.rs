//! The serving phase: framed loan applications replayed open-loop
//! against a `lightmirm-serve` [`ShardedEngine`], first at a fixed
//! nominal rate, then on a fixed rate ladder to find the highest rate
//! that still meets the latency limit.

use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lightmirm_core::bundle::{ModelBundle, QuarantinePolicy};
use lightmirm_core::framing::{decode_frame, encode_frame};
use lightmirm_core::sparse::MultiHotMatrix;
use lightmirm_serve::{
    EngineConfig, EngineStats, PendingScores, Priority, ShardConfig, ShardedEngine, SubmitOptions,
};
use loansim::LoanFrame;

use crate::driver::{self, Arrival, Outcome, Record, Target};
use crate::spans::{Clock, SpanLog};
use crate::stats::{median_ns_per_row, quantile, sorted, Fnv, Summary};

/// Engine shards. One shard with one worker leaves the second core of
/// the two-core reference host to the driver's sender and collector, so
/// the engine's capacity is one core's and not what the scheduler gives
/// it while client and server threads outnumber the cores.
pub const SHARDS: usize = 1;
/// Scoring workers per shard.
pub const WORKERS_PER_SHARD: usize = 1;
/// Rows per micro-batch.
pub const MAX_BATCH: usize = 256;
/// Longest a partial batch waits for more rows, µs.
pub const MAX_WAIT_US: u64 = 500;
/// Queue bound per shard, in rows: about 25 ms of the engine's
/// capacity for one-to-four-row requests, the p99 limit, so an
/// overloaded ladder step fails on refusals before its backlog grows
/// the process.
pub const QUEUE_CAPACITY: usize = 4_096;
/// Route keys are drawn uniformly from `0..ROUTE_KEYS`.
const ROUTE_KEYS: u64 = 64;
/// Ladder: `nominal × LADDER_FLOOR × LADDER_STEP^k` for `k = 0..=LADDER_STEPS`,
/// half to 23 times the nominal rate in 3% steps.
const LADDER_FLOOR: f64 = 0.5;
const LADDER_STEP: f64 = 1.03;
const LADDER_STEPS: i64 = 130;
/// A ladder step fails when more than this share of requests fails.
const MAX_ERROR_RATE: f64 = 0.001;
/// The nominal percentiles are the 10th percentile (the second lowest
/// of twelve) of the nominal windows' exact order statistics. The
/// windows are spread over the run, and the host is shared: a spell of
/// stalls can last seconds, so it moves some windows, not the result,
/// while a slower system moves every window.
const WINDOW_QUANTILE_BP: u32 = 1_000;
/// Served at the nominal rate before the first window and not recorded.
const WARM_UP_NS: u64 = 500_000_000;
/// Time windows of a ladder probe; it judges the 10th percentile of
/// their p99s (the lowest of four), as the nominal phase reports.
const STEP_WINDOWS: u64 = 4;
/// A ladder step fails only when this many attempts in a row fail, so a
/// slow spell of the shared host does not end the search early.
const STEP_ATTEMPTS: u64 = 2;

/// Rows per request, inclusive: one loan application per decision.
const REQUEST_ROWS: (usize, usize) = (1, 4);
/// Distinct request payloads the schedule draws from.
const POOL: usize = 4096;
/// Offered rate of the nominal windows, requests/s: about a tenth of
/// the engine's capacity on the reference host.
pub const NOMINAL_RPS: f64 = 6_000.0;
/// Latency limit on a ladder probe's p99, ms.
pub const P99_LIMIT_MS: f64 = 25.0;

// Both workloads serve the interactive mix; `full_mix` adds
// Low/Normal/High priorities at 25%/60%/15% with Low shed at half the
// queue, a burst at twice the rate over the middle tenth of each
// nominal window, and a `reload_all` in the middle of each.

/// Share of the queue at which Low-priority requests are shed; the
/// plain mix sheds nothing below the hard bound.
pub fn shed_watermark(full_mix: bool) -> f64 {
    if full_mix {
        0.5
    } else {
        1.0
    }
}

/// The engine configuration every workload serves with.
pub fn shard_config(full_mix: bool, trace_requests: bool) -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        engine: EngineConfig {
            max_batch: MAX_BATCH,
            max_wait: Duration::from_micros(MAX_WAIT_US),
            queue_capacity: QUEUE_CAPACITY,
            workers: WORKERS_PER_SHARD,
            shed_watermark: shed_watermark(full_mix),
            trace_requests,
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    }
}

/// splitmix64 stream: the only source of randomness in a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and purpose `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Framed request payloads: what a network front end would read.
pub struct Pool {
    frames: Vec<Bytes>,
    /// Offline `score_batch` of each payload on the served bundle.
    expected: Vec<Vec<f64>>,
}

/// Build the payload pool from 2020 applications: each payload is a
/// request of uniformly many rows drawn from `test`, a uniform route key,
/// and a priority.
pub fn synthesize(full_mix: bool, test: &LoanFrame, seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 1);
    let nf = test.n_features();
    let (lo, hi) = REQUEST_ROWS;
    let mut features = Vec::new();
    let mut env_ids = Vec::new();
    let frames = (0..POOL)
        .map(|_| {
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            features.clear();
            env_ids.clear();
            for _ in 0..n {
                let r = rng.below(test.len() as u64) as usize;
                features.extend_from_slice(test.row(r));
                env_ids.push(test.province[r]);
            }
            let key = rng.below(ROUTE_KEYS) as u16;
            let priority = if full_mix {
                match rng.below(20) {
                    0..=4 => 0,
                    5..=16 => 1,
                    _ => 2,
                }
            } else {
                1
            };
            let mut buf = BytesMut::new();
            let nf32 = u32::try_from(nf).expect("feature width fits u32");
            encode_frame(&mut buf, priority, key, 0, nf32, &env_ids, &features);
            buf.freeze()
        })
        .collect();
    Pool {
        frames,
        expected: Vec::new(),
    }
}

fn decode(frame: &Bytes) -> (u16, Vec<f32>, Vec<u16>, SubmitOptions) {
    let mut buf = frame.clone();
    let f = decode_frame(&mut buf).expect("pool frames are well formed");
    let priority = match f.header.priority {
        0 => Priority::Low,
        2 => Priority::High,
        _ => Priority::Normal,
    };
    let opts = SubmitOptions {
        priority,
        ..SubmitOptions::default()
    };
    (f.header.route_key, f.features(), f.env_ids(), opts)
}

impl Pool {
    /// Score every payload offline: the reference every reply must match.
    pub fn score_offline(&mut self, bundle: &ModelBundle) {
        self.expected = self
            .frames
            .iter()
            .map(|f| {
                let (_, features, env_ids, _) = decode(f);
                bundle.score_batch(&features, &env_ids)
            })
            .collect();
    }

    fn len(&self) -> usize {
        self.frames.len()
    }
}

struct EngineTarget<'a> {
    engine: &'a ShardedEngine,
    pool: &'a Pool,
}

impl Target for EngineTarget<'_> {
    type Request = (u16, Vec<f32>, Vec<u16>, SubmitOptions);
    type Pending = PendingScores;

    fn decode(&self, payload: u32) -> Self::Request {
        decode(&self.pool.frames[payload as usize])
    }

    fn submit(
        &self,
        (key, features, env_ids, opts): Self::Request,
    ) -> Result<PendingScores, String> {
        self.engine
            .try_submit(key, features, env_ids, opts)
            .map(|(_, pending)| pending)
            .map_err(|e| e.to_string())
    }

    fn wait(&self, pending: PendingScores) -> Result<Vec<f64>, String> {
        pending.wait().map_err(|e| e.to_string())
    }
}

/// Exactly `round(rate × span)` arrivals placed uniformly in
/// `[from, to)` ns — a Poisson process conditioned on its count, so the
/// offered rate is exact and the gaps are exponential.
fn poisson(rng: &mut Rng, rate: f64, from: u64, to: u64, pool: usize, out: &mut Vec<Arrival>) {
    let n = (rate * (to - from) as f64 / 1e9).round() as usize;
    let span = (to - from) as f64;
    out.extend((0..n).map(|_| Arrival {
        at_ns: from + (rng.unit() * span) as u64,
        payload: rng.below(pool as u64) as u32,
    }));
}

fn schedule(rng: &mut Rng, rate: f64, dur_ns: u64, burst: bool, pool: usize) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    poisson(rng, rate, 0, dur_ns, pool, &mut arrivals);
    if burst {
        poisson(
            rng,
            rate,
            dur_ns / 20 * 9,
            dur_ns / 20 * 11,
            pool,
            &mut arrivals,
        );
    }
    arrivals.sort_unstable_by_key(|a| a.at_ns);
    arrivals
}

/// One replayed phase, reduced.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Requests scheduled.
    pub attempted: usize,
    /// Refused at submission.
    pub refused: usize,
    /// Accepted and failed.
    pub failed: usize,
    /// Replies that differed from the offline scores.
    pub mismatches: usize,
    /// FNV digest of the reply stream in submit order.
    pub digest: u64,
    /// Latency from intended send to in-order reply, ms.
    pub latency: Summary,
    /// Each time window's p50, ms.
    pub window_p50s: Vec<f64>,
    /// Each time window's p99, ms.
    pub window_p99s: Vec<f64>,
    /// Each time window's p90, ms.
    pub window_p90s: Vec<f64>,
    /// 10th percentile of the windows' p50s, ms.
    pub window_p50_ms: f64,
    /// 10th percentile of the windows' p90s, ms.
    pub window_p90_ms: f64,
    /// 10th percentile of the windows' p99s, ms.
    pub window_p99_ms: f64,
    /// Sender lateness p99, ms.
    pub late_p99_ms: f64,
    /// Time inside `try_submit`, µs.
    pub submit_us: Summary,
    /// Mean frame decode time, µs.
    pub decode_us_mean: f64,
    /// Replies per second from the phase start to the last reply.
    pub achieved_rps: f64,
    /// Requests still unanswered when the last one was sent.
    pub backlog_at_end: usize,
    /// `reload_all` durations, ms.
    pub reload_ms: Vec<f64>,
}

impl Phase {
    /// Refused plus failed, over attempted.
    pub fn error_rate(&self) -> f64 {
        (self.refused + self.failed) as f64 / self.attempted.max(1) as f64
    }

    fn meets(&self, rate: f64, limit_ms: f64) -> bool {
        let backlog_allowed = (rate * limit_ms / 1e3).ceil() as usize + 1;
        self.error_rate() <= MAX_ERROR_RATE
            && self.window_p99_ms <= limit_ms
            && self.backlog_at_end <= backlog_allowed
    }
}

/// One replay: its records, and when it started (ns on the clock).
struct Replayed {
    records: Vec<Record>,
    start: u64,
    dur_ns: u64,
    mismatches: usize,
    reload_ms: Vec<f64>,
}

/// The exact `bp` quantile of each of `windows` equal time windows of
/// every replay, by intended send time.
fn window_quantiles(parts: &[Replayed], windows: u64, bp: u32) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for part in parts {
        let mut own: Vec<Vec<f64>> = vec![Vec::new(); windows as usize];
        for r in &part.records {
            let w = ((r.intended - part.start) * windows / part.dur_ns.max(1)).min(windows - 1);
            own[w as usize].push(r.latency_ms());
        }
        buckets.extend(own);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(&sorted(b), bp))
        .collect()
}

/// Reduce `parts`, each split into `windows` time windows.
fn reduce(parts: &[Replayed], windows: u64, digest: u64) -> Phase {
    let records = || parts.iter().flat_map(|p| p.records.iter());
    let count = |o: Outcome| records().filter(|r| r.outcome == o).count();
    let replied = count(Outcome::Replied);
    let busy_ns: u64 = parts
        .iter()
        .map(|p| {
            let last_done = p.records.iter().map(|r| r.done).max().unwrap_or(p.start);
            last_done.saturating_sub(p.start)
        })
        .sum();
    let last = parts.last().expect("at least one replay");
    let last_sent = last
        .records
        .iter()
        .map(|r| r.sent)
        .max()
        .unwrap_or(last.start);
    let attempted = records().count();
    let window_p50s = window_quantiles(parts, windows, 5_000);
    let window_p99s = window_quantiles(parts, windows, 9_900);
    let window_p90s = window_quantiles(parts, windows, 9_000);
    Phase {
        attempted,
        refused: count(Outcome::Refused),
        failed: count(Outcome::Failed),
        mismatches: parts.iter().map(|p| p.mismatches).sum(),
        digest,
        latency: Summary::of(records().map(Record::latency_ms).collect()),
        window_p50_ms: quantile(&sorted(window_p50s.clone()), WINDOW_QUANTILE_BP),
        window_p90_ms: quantile(&sorted(window_p90s.clone()), WINDOW_QUANTILE_BP),
        window_p99_ms: quantile(&sorted(window_p99s.clone()), WINDOW_QUANTILE_BP),
        window_p50s,
        window_p99s,
        window_p90s,
        late_p99_ms: quantile(&sorted(records().map(Record::late_ms).collect()), 9_900),
        submit_us: Summary::of(records().map(|r| r.submit_ns as f64 / 1e3).collect()),
        decode_us_mean: records().map(|r| r.decode_ns as f64).sum::<f64>()
            / attempted.max(1) as f64
            / 1e3,
        achieved_rps: replied as f64 / (busy_ns.max(1) as f64 / 1e9),
        backlog_at_end: last
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Replied && r.done > last_sent)
            .count(),
        reload_ms: parts
            .iter()
            .flat_map(|p| p.reload_ms.iter().copied())
            .collect(),
    }
}

/// Replay `arrivals` (times relative to the replay's start) against
/// `engine`, checking every reply against the offline scores and folding
/// it into `digest`. When `reload` is set, `republished` is swapped into
/// every shard at the middle of the replay, from a thread of its own.
#[allow(clippy::too_many_arguments)]
fn replay(
    engine: &ShardedEngine,
    pool: &Pool,
    arrivals: &[Arrival],
    dur_ns: u64,
    reload: bool,
    republished: &ModelBundle,
    digest: &mut Fnv,
    clock: &Clock,
    spans: &mut SpanLog,
) -> Replayed {
    let target = EngineTarget { engine, pool };
    let start = clock.ns() + 2_000_000;
    let mut mismatches = 0usize;
    let (probe_features, probe_env_ids) = {
        let (_, f, e, _) = decode(&pool.frames[0]);
        (f, e)
    };
    let (records, reload_ms) = std::thread::scope(|s| {
        let reloader = s.spawn(|| {
            reload
                .then(|| {
                    driver::sleep_until(clock, start + dur_ns / 2);
                    let t = Instant::now();
                    engine
                        .reload_all(republished, &probe_features, &probe_env_ids)
                        .expect("a republished bundle passes its probe");
                    t.elapsed().as_secs_f64() * 1e3
                })
                .into_iter()
                .collect::<Vec<f64>>()
        });
        let records = driver::run(&target, clock, start, arrivals, spans, |p, scores| {
            let want = &pool.expected[p as usize];
            if want.len() != scores.len()
                || want
                    .iter()
                    .zip(scores)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                mismatches += 1;
            }
            digest.add(scores);
        });
        (records, reloader.join().expect("reload thread panicked"))
    });
    Replayed {
        records,
        start,
        dur_ns,
        mismatches,
        reload_ms,
    }
}

/// The bundle the interactive workload swaps in: the same model
/// republished, so every reply has one bit-exact reference whichever
/// bundle scored it, while each swap still pays the full reload path.
pub fn republish(bundle: &ModelBundle) -> ModelBundle {
    let mut b = bundle.clone();
    b.metadata.notes = format!("{} (republished)", b.metadata.notes);
    b
}

/// Engine counters summed over shards.
pub struct EngineCounters {
    /// Rows per scored batch.
    pub batch_rows_mean: f64,
    /// Deepest queue seen by any shard.
    pub queue_depth_max: f64,
    /// Refused plus shed submissions.
    pub refused_total: f64,
    /// Reloads applied.
    pub reloads: u64,
}

/// Reduce per-shard stats.
pub fn counters(stats: &[EngineStats]) -> EngineCounters {
    let rows: f64 = stats.iter().map(|s| s.rows_scored as f64).sum();
    let batches: f64 = stats
        .iter()
        .filter(|s| s.batch_rows_mean > 0.0)
        .map(|s| s.rows_scored as f64 / s.batch_rows_mean)
        .sum();
    EngineCounters {
        batch_rows_mean: rows / batches.max(1.0),
        queue_depth_max: stats.iter().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
        refused_total: stats
            .iter()
            .map(|s| (s.rejected_full + s.shed_low_priority) as f64)
            .sum(),
        reloads: stats.iter().map(|s| s.reloads).sum(),
    }
}

/// A ladder step that was tried.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// What the step measured.
    pub phase: Phase,
    /// Whether it met the limit.
    pub pass: bool,
}

/// Binary search of the rate ladder for the highest step that meets the
/// limit with no more than 0.1% errors and no growing backlog, one probe
/// at a time.
struct Ladder {
    lo: i64,
    hi: i64,
    attempt: u64,
    steps: Vec<Step>,
}

impl Ladder {
    fn new() -> Self {
        Ladder {
            lo: -1,
            hi: LADDER_STEPS + 1,
            attempt: 0,
            steps: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.hi - self.lo <= 1
    }

    /// Run the next probe of the search.
    fn probe(
        &mut self,
        engine: &ShardedEngine,
        pool: &Pool,
        republished: &ModelBundle,
        seed: u64,
        probe_ns: u64,
        clock: &Clock,
    ) {
        let k = (self.lo + self.hi) / 2;
        let rate = NOMINAL_RPS * LADDER_FLOOR * LADDER_STEP.powi(k as i32);
        let mut rng = Rng::new(seed, 100 + 1000 * self.attempt + k as u64);
        let arrivals = schedule(&mut rng, rate, probe_ns, false, pool.len());
        let mut digest = Fnv::default();
        let part = replay(
            engine,
            pool,
            &arrivals,
            probe_ns,
            false,
            republished,
            &mut digest,
            clock,
            &mut SpanLog::new(false),
        );
        let phase = reduce(&[part], STEP_WINDOWS, digest.value());
        let pass = phase.meets(rate, P99_LIMIT_MS);
        self.steps.push(Step { rate, phase, pass });
        if pass {
            self.lo = k;
            self.attempt = 0;
        } else if self.attempt + 1 >= STEP_ATTEMPTS {
            self.hi = k;
            self.attempt = 0;
        } else {
            self.attempt += 1;
        }
    }

    /// The replies/s achieved at the highest passing step. With no
    /// passing step, the lowest step tried: the metric stays a measured
    /// rate and the ladder printout shows the failure.
    fn max_rate(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.pass)
            .max_by(|a, b| a.rate.total_cmp(&b.rate))
            .or_else(|| self.steps.iter().min_by(|a, b| a.rate.total_cmp(&b.rate)))
            .map_or(0.0, |s| s.phase.achieved_rps)
    }
}

/// What the serving phase measured.
pub struct Served {
    /// The nominal windows, reduced together.
    pub nominal: Phase,
    /// Replies/s at the highest ladder step that met the limit (the
    /// nominal phase's achieved rate when the ladder is off).
    pub max_rate_rps: f64,
    /// Every ladder probe.
    pub ladder: Vec<Step>,
}

/// The serving phase, run in pieces so that the benchmark can spread
/// its nominal windows and ladder probes over the whole run: a slow
/// spell of the shared host then moves a few windows or probes, not
/// all of them.
pub struct Serving<'a> {
    full_mix: bool,
    engine: &'a ShardedEngine,
    pool: &'a Pool,
    republished: ModelBundle,
    seed: u64,
    window_ns: u64,
    probe_ns: Option<u64>,
    rng: Rng,
    digest: Fnv,
    parts: Vec<Replayed>,
    ladder: Ladder,
}

impl<'a> Serving<'a> {
    /// Serve `WARM_UP_NS` at the nominal rate, unrecorded. Windows last
    /// `window_ns`; ladder probes `probe_ns`, and there is no ladder
    /// when it is `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        full_mix: bool,
        engine: &'a ShardedEngine,
        pool: &'a Pool,
        bundle: &ModelBundle,
        seed: u64,
        window_ns: u64,
        probe_ns: Option<u64>,
        clock: &Clock,
    ) -> Self {
        let mut serving = Serving {
            full_mix,
            engine,
            pool,
            republished: republish(bundle),
            seed,
            window_ns,
            probe_ns,
            rng: Rng::new(seed, 2),
            digest: Fnv::default(),
            parts: Vec::new(),
            ladder: Ladder::new(),
        };
        let warm_up = schedule(&mut serving.rng, NOMINAL_RPS, WARM_UP_NS, false, pool.len());
        replay(
            engine,
            pool,
            &warm_up,
            WARM_UP_NS,
            false,
            &serving.republished,
            &mut Fnv::default(),
            clock,
            &mut SpanLog::new(false),
        );
        serving
    }

    /// One nominal window, with the burst and reload the mix asks for.
    pub fn window(&mut self, clock: &Clock, spans: &mut SpanLog) {
        let arrivals = schedule(
            &mut self.rng,
            NOMINAL_RPS,
            self.window_ns,
            self.full_mix,
            self.pool.len(),
        );
        self.parts.push(replay(
            self.engine,
            self.pool,
            &arrivals,
            self.window_ns,
            self.full_mix,
            &self.republished,
            &mut self.digest,
            clock,
            spans,
        ));
    }

    /// Up to `n` further probes of the ladder search (none when it has
    /// ended or there is no ladder).
    pub fn probes(&mut self, n: usize, clock: &Clock) {
        let Some(probe_ns) = self.probe_ns else {
            return;
        };
        for _ in 0..n {
            if self.ladder.done() {
                return;
            }
            self.ladder.probe(
                self.engine,
                self.pool,
                &self.republished,
                self.seed,
                probe_ns,
                clock,
            );
        }
    }

    /// Finish the ladder search and reduce.
    pub fn finish(mut self, clock: &Clock) -> Served {
        self.probes(usize::MAX, clock);
        let nominal = reduce(&self.parts, 1, self.digest.value());
        let max_rate_rps = if self.probe_ns.is_some() {
            self.ladder.max_rate()
        } else {
            nominal.achieved_rps
        };
        Served {
            nominal,
            max_rate_rps,
            ladder: self.ladder.steps,
        }
    }
}

/// Direct calls into `gbdt`, `bundle` and `kernels` on batches of the
/// workload's rows at the engine's observed mean batch size.
pub fn scoring_layers(
    bundle: &ModelBundle,
    weights: &[f64],
    test: &LoanFrame,
    batch_rows: usize,
    clock: &Clock,
    spans: &mut SpanLog,
) -> Vec<(String, f64, &'static str)> {
    const REPS: usize = 7;
    const ROWS: usize = 16_384;
    let b = batch_rows.clamp(1, 256);
    let batches: Vec<(Vec<f32>, Vec<u16>)> = (0..ROWS.div_ceil(b))
        .map(|i| {
            let rows: Vec<usize> = (0..b).map(|j| (i * b + j) % test.len()).collect();
            let f = rows
                .iter()
                .flat_map(|&r| test.row(r).iter().copied())
                .collect();
            let e = rows.iter().map(|&r| test.province[r]).collect();
            (f, e)
        })
        .collect();
    let n = batches.len() * b;
    let gbdt = &bundle.extractor;
    let transform = spans.time(clock, "gbdt.transform_batch", 0, || {
        median_ns_per_row(REPS, n, || {
            for (f, _) in &batches {
                std::hint::black_box(gbdt.transform_batch(f));
            }
        })
    });
    let score = spans.time(clock, "bundle.score_batch", 0, || {
        median_ns_per_row(REPS, n, || {
            for (f, e) in &batches {
                std::hint::black_box(bundle.score_batch(f, e));
            }
        })
    });
    let policy = QuarantinePolicy::default();
    let quarantined = spans.time(clock, "bundle.score_batch_quarantined", 0, || {
        median_ns_per_row(REPS, n, || {
            for (f, e) in &batches {
                std::hint::black_box(bundle.score_batch_quarantined(f, e, &policy));
            }
        })
    });
    let leaves: Vec<MultiHotMatrix> = batches
        .iter()
        .map(|(f, _)| {
            MultiHotMatrix::new(gbdt.transform_batch(f), gbdt.n_trees(), gbdt.total_leaves())
                .expect("extractor produces well-formed leaf indices")
        })
        .collect();
    let row_ids: Vec<u32> = (0..b as u32).collect();
    let mut out = vec![0.0; b];
    let predict = spans.time(clock, "kernels.predict", 0, || {
        median_ns_per_row(REPS, n, || {
            for x in &leaves {
                lightmirm_core::kernels::predict_rows_into(weights, x, &row_ids, &mut out);
                std::hint::black_box(&out);
            }
        })
    });
    vec![
        ("gbdt.transform_ns_per_row".into(), transform, "ns"),
        ("bundle.score_batch_ns_per_row".into(), score, "ns"),
        (
            "bundle.quarantine_scan_ns_per_row".into(),
            quarantined - score,
            "ns",
        ),
        ("kernels.predict_ns_per_row".into(), predict, "ns"),
    ]
}
