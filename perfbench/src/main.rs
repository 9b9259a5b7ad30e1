//! `perfbench` — the end-to-end TCP benchmark of the epoch chain.
//!
//! ```text
//! perfbench --workload steady|reconfig|bulk|all --seed N --seconds S --trace 0|1
//! perfbench replica --trace-out FILE <rsmr-server flags>
//! ```
//!
//! Spawns real replica processes on localhost, drives them from one
//! in-process load generator, checks every run for correctness and prints
//! its metrics; the last stdout line is one JSON object. `--trace 0` runs
//! the shipped `rsmr-server` and reports the end-to-end metrics;
//! `--trace 1` runs the traced replica entry point and reports the
//! per-layer metrics. See `perfbench/README.md`.

mod cluster;
mod gen;
mod replica;
mod report;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use simnet::WallClock;

use cluster::{Cluster, ReplicaKind};
use gen::{GenConfig, Generator};

/// Replication groups on every replica.
const GROUPS: u32 = 8;
/// Keys, hash-partitioned over the groups.
const KEYSPACE: usize = 4096;
/// Measured-window lead-in after the last group's first completion.
const WARMUP: Duration = Duration::from_millis(1000);
/// Length of one sub-run's measured window. A run measures `--seconds`
/// split over fresh clusters this long each and reports the median over
/// them: storage compaction grows with the epoch's age, so one long
/// window would measure ever larger compactions.
const SUB_RUN: Duration = Duration::from_secs(10);
/// Mixes the run seed into each sub-run's workload seed.
const SUB_RUN_SEEDS: u64 = 0x9E37_79B9_7F4A_7C15;
/// Reconfiguration cadence.
const RECONFIG_EVERY: Duration = Duration::from_secs(5);
/// First reconfiguration instant, after the window opens.
const FIRST_RECONFIG: Duration = Duration::from_secs(1);
/// Room left after the last reconfiguration: its retirement (at
/// `retire_grace` = 2 s) must fall inside the window.
const RECONFIG_TAIL: Duration = Duration::from_secs(3);
/// Longest wait for operations due in the window to complete.
const DRAIN: Duration = Duration::from_secs(5);
/// Longest wait for a fresh cluster to complete its first operations.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);
/// Where runs keep replica storage, traces and reports.
const OUT_DIR: &str = ".bench_out";

/// One named input set.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    /// Replica processes; ids `0..nodes`.
    nodes: u64,
    /// Open-loop rate per session (ops/s); `None` = closed loop.
    rate_per_session: Option<f64>,
    read_ratio: f64,
    value_size: usize,
    /// Reconfigure every group on the cadence, alternating between these
    /// member sets, starting from the genesis set (the first).
    reconfigure: Option<[&'static [u64]; 2]>,
}

const GENESIS: &[u64] = &[0, 1, 2];

fn workload(name: &str) -> Option<Workload> {
    let sessions = f64::from(GROUPS) * threads() as f64;
    Some(match name {
        "steady" => Workload {
            name: "steady",
            nodes: 3,
            rate_per_session: None,
            read_ratio: 0.5,
            value_size: 64,
            reconfigure: None,
        },
        "reconfig" => Workload {
            name: "reconfig",
            nodes: 4,
            rate_per_session: Some(3200.0 / sessions),
            read_ratio: 0.5,
            value_size: 64,
            reconfigure: Some([GENESIS, &[1, 2, 3]]),
        },
        "bulk" => Workload {
            name: "bulk",
            nodes: 3,
            rate_per_session: Some(1600.0 / sessions),
            read_ratio: 0.0,
            value_size: 1024,
            reconfigure: None,
        },
        _ => return None,
    })
}

const WORKLOADS: [&str; 3] = ["steady", "reconfig", "bulk"];

/// Client threads: one per core, at most two.
fn threads() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2) as u64)
}

fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_micros() as u64
}

/// Everything one sub-run observed, for [`report`].
pub struct RunData {
    pub workload: Workload,
    pub traced: bool,
    /// Replica spawn to every group's first completion.
    pub setup_s: f64,
    /// Measured window on the generator clock, µs.
    pub window: (u64, u64),
    /// Unix time of the generator clock's origin, µs.
    pub clock_unix: u64,
    /// Where gap windows open: each Reconfigure, or else every
    /// [`RECONFIG_EVERY`].
    pub instants: Vec<u64>,
    /// Reconfigurations scheduled.
    pub reconfigs: usize,
    /// The member set the last step installs.
    pub expected_members: Vec<u64>,
    /// Replica CPU over the window, µs.
    pub replica_cpu_us: u64,
    /// Generator CPU over the window, µs.
    pub gen_cpu_us: u64,
    pub gen: gen::GenOut,
    /// Shipped replicas: `(node, per group (anchored epoch, members))`
    /// from `/status`.
    pub status: Vec<(u64, cluster::GroupStatus)>,
    /// Traced runs: `(node, trace file text)`.
    pub traces: Vec<(u64, String)>,
}

fn gen_config(w: &Workload, seed: u64, cluster: &Cluster) -> GenConfig {
    GenConfig {
        servers: cluster.addrs.clone(),
        initial_members: GENESIS.to_vec(),
        groups: GROUPS,
        threads: threads(),
        read_ratio: w.read_ratio,
        value_size: w.value_size,
        keyspace: KEYSPACE,
        seed,
        rate_per_session: w.rate_per_session,
    }
}

/// Spawns a cluster and a generator and waits until every group has
/// completed an operation. Returns them with the set-up time.
fn set_up(
    w: &Workload,
    seed: u64,
    kind: ReplicaKind,
    dir: &Path,
) -> Result<(Cluster, Generator, f64, u64), String> {
    let clock_unix = unix_now_us();
    let clock = WallClock::new();
    let cluster = Cluster::spawn(kind, w.nodes, GENESIS, GROUPS, dir)
        .map_err(|e| format!("spawning replicas: {e}"))?;
    let gen = Generator::start(&gen_config(w, seed, &cluster), clock);
    let deadline = Instant::now() + SETUP_TIMEOUT;
    loop {
        if let Some(t) = gen.first_completion_everywhere() {
            return Ok((cluster, gen, t as f64 / 1e6, clock_unix));
        }
        if Instant::now() >= deadline {
            let _ = gen.finish();
            return Err("the cluster did not complete an operation in every group".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sleep_until(gen: &Generator, at_us: u64) {
    let now = gen.now();
    if at_us > now {
        std::thread::sleep(Duration::from_micros(at_us - now));
    }
}

/// One measured sub-run on a fresh cluster: set up, warm up, measure
/// `window`, drain, check.
fn run_once(
    w: &Workload,
    seed: u64,
    window: Duration,
    traced: bool,
    dir: &Path,
) -> Result<RunData, String> {
    let kind = if traced {
        ReplicaKind::Traced
    } else {
        ReplicaKind::Shipped
    };
    let (cluster, mut gen, setup_s, clock_unix) = set_up(w, seed, kind, dir)?;

    let start = gen.now() + WARMUP.as_micros() as u64;
    let end = start + window.as_micros() as u64;
    let (script, expected_members) = match w.reconfigure {
        Some(sets) => {
            let step = RECONFIG_EVERY.as_micros() as u64;
            let mut script = Vec::new();
            let mut at = start + FIRST_RECONFIG.as_micros() as u64;
            while at + RECONFIG_TAIL.as_micros() as u64 <= end {
                script.push((at, sets[(script.len() + 1) % 2].to_vec()));
                at += step;
            }
            let last = script.last().map_or(GENESIS.to_vec(), |s| s.1.clone());
            (script, last)
        }
        None => (Vec::new(), GENESIS.to_vec()),
    };
    // Gap windows open at each Reconfigure, or on the same cadence when
    // the workload does not reconfigure.
    let instants: Vec<u64> = if script.is_empty() {
        (start..end)
            .step_by(RECONFIG_EVERY.as_micros() as usize)
            .collect()
    } else {
        script.iter().map(|s| s.0).collect()
    };
    let reconfigs = script.len();
    gen.open_window(start, end, script);

    let cpu = |cluster: &Cluster| -> Result<(u64, u64), String> {
        Ok((
            cluster
                .cpu_us()
                .map_err(|e| format!("reading replica CPU: {e}"))?,
            cluster::proc_cpu_us("/proc/self/stat").map_err(|e| e.to_string())?,
        ))
    };
    sleep_until(&gen, start);
    let (replica0, gen0) = cpu(&cluster)?;
    sleep_until(&gen, end);
    let (replica1, gen1) = cpu(&cluster)?;

    let drain_until = Instant::now() + DRAIN;
    while !gen.drained() && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the replicas' `/status` pages catch up with the last step.
    std::thread::sleep(Duration::from_millis(300));
    let status = if traced {
        Vec::new()
    } else {
        cluster
            .status()
            .map_err(|e| format!("reading /status: {e}"))?
    };
    let out = gen.finish().map_err(|e| format!("generator: {e}"))?;
    let trace_files = cluster
        .stop()
        .map_err(|e| format!("stopping replicas: {e}"))?;
    let mut traces = Vec::new();
    if traced {
        for (node, path) in trace_files {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            traces.push((node, text));
        }
    }
    // Replica storage is large and no longer needed.
    for n in 0..w.nodes {
        let _ = std::fs::remove_dir_all(dir.join(format!("n{n}")));
    }

    Ok(RunData {
        workload: w.clone(),
        traced,
        setup_s,
        window: (start, end),
        clock_unix,
        instants,
        reconfigs,
        expected_members,
        replica_cpu_us: replica1 - replica0,
        gen_cpu_us: gen1 - gen0,
        gen: out,
        status,
        traces,
    })
}

/// A whole run: `seconds` of measurement split over sub-runs of about
/// [`SUB_RUN`] each, every one on a fresh cluster.
fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Vec<RunData>, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("{}-{seed}", w.name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let subruns = (seconds / SUB_RUN.as_secs()).max(1);
    let window = Duration::from_secs(seconds) / subruns as u32;
    (0..subruns)
        .map(|k| {
            run_once(
                w,
                seed.wrapping_mul(SUB_RUN_SEEDS).wrapping_add(k),
                window,
                traced,
                &dir,
            )
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds < SUB_RUN.as_secs() {
        return Err(format!("--seconds must be at least {}", SUB_RUN.as_secs()));
    }
    Ok(a)
}

/// Runs one workload and prints its report; returns whether it passed.
fn run_one(w: &Workload, a: &Args) -> Result<bool, String> {
    let runs = run(w, a.seed, a.seconds, a.trace)?;
    let outcomes: Vec<report::Outcome> = runs.iter().map(report::evaluate).collect();
    let result = report::combine(outcomes);
    let text = report::render(w.name, a.trace, &result, Path::new(OUT_DIR));
    print!("{text}");
    println!("{}", result.json());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replica") {
        return match replica::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench replica: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let Some(w) = workload(name) else {
            eprintln!("perfbench: unknown workload {name:?} (steady, reconfig, bulk or all)");
            return ExitCode::from(2);
        };
        match run_one(&w, &a) {
            Ok(passed) => ok &= passed,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
