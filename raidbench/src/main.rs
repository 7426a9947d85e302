//! `raidbench`: the repository benchmark of the RAID-x simulator.
//!
//! ```text
//! raidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! raidbench --workload <name> --seed <n> --selftest
//! raidbench --workload <name> --seed <n> --rss-probe
//! ```
//!
//! Drives one seeded workload through the simulator's public APIs,
//! checks every output against the benchmark's shadow model, and prints
//! the metrics; the last line is one JSON object. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones (from a traced
//! phase, with spans written to `out/` beside this crate). `--selftest`
//! checks that the same seed repeats every simulated and count metric
//! exactly and that another seed changes the op stream. `--rss-probe`
//! sets up every cell once, runs its pass 0 and prints the process's peak
//! resident memory: the untraced run starts itself with it, so
//! `peak_rss_mb` covers a fixed amount of work and not the number of
//! passes the host managed in the time. Exits 1 when an
//! output is wrong or a guard finds a workload no longer exercising its
//! layer, 2 on a usage error.

mod andrew;
mod calib;
mod cell;
mod driver;
mod fig5;
mod model;
mod report;
mod scale;
mod span;
mod store;
mod zipf;

use std::path::Path;
use std::process::ExitCode;

use driver::Workload;

const WORKLOADS: [Workload; 4] = [
    Workload { name: "fig5_trojans", cells: fig5::CELLS, setup: fig5::setup },
    Workload { name: "scale256_raidx", cells: scale::CELLS, setup: scale::setup },
    Workload { name: "zipf_cached", cells: zipf::CELLS, setup: zipf::setup },
    Workload { name: "andrew_cfs", cells: andrew::CELLS, setup: andrew::setup },
];

/// The end-to-end metrics the JSON line carries with `--trace 0`, as
/// declared in the repository's `BENCHMARK.json`.
const END_TO_END: [&str; 3] = ["ops_per_cal", "setup_s", "peak_rss_mb"];
/// Set-ups per cell in a measured run; the median time is reported.
const SETUPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Measure,
    Selftest,
    RssProbe,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("raidbench: {msg}");
    eprintln!(
        "usage: raidbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--selftest | --rss-probe]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20.0, false);
    let mut mode = Mode::Measure;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--selftest" => mode = Mode::Selftest,
            "--rss-probe" => mode = Mode::RssProbe,
            _ => {}
        }
        if flag == "--selftest" || flag == "--rss-probe" {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let w = args.workload;
    match args.mode {
        Mode::Selftest => return selftest(w, args.seed),
        Mode::RssProbe => {
            let o = driver::run(w, args.seed, 0.0, false, 1);
            println!("{}", driver::peak_rss_mb());
            return if o.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
        Mode::Measure => {}
    }
    let rss = if args.trace { Some(0.0) } else { rss_probe(w, args.seed) };
    let mut o = driver::run(w, args.seed, args.seconds, args.trace, SETUPS);
    if rss.is_none() {
        o.guard.push("the peak-memory probe failed".into());
    }
    let correct = o.failed == 0 && o.guard.is_empty();
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.json", w.name, args.seed));
        match span::write_chrome(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => eprintln!("raidbench: cannot write spans: {e}"),
        }
        let metrics = report::per_layer(&o);
        let names: Vec<&str> = metrics.iter().map(|x| x.name.as_str()).collect();
        report::print(w.name, args.seed, &o, &metrics, &names, correct);
    } else {
        let metrics = report::end_to_end(&o, rss.unwrap_or(0.0));
        report::print(w.name, args.seed, &o, &metrics, &END_TO_END, correct);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident memory of set-up plus pass 0 of every cell, measured in
/// a child process.
fn rss_probe(w: &Workload, seed: u64) -> Option<f64> {
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--workload", w.name, "--seed", &seed.to_string(), "--rss-probe"])
            .output()
    });
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout);
            text.lines().last().and_then(|l| l.trim().parse().ok()).filter(|mb| *mb > 0.0)
        }
        _ => None,
    }
}

/// Pass 0 twice with `seed` and once with `seed + 1`: the simulated and
/// count metrics must repeat exactly, the other seed must change the op
/// stream, and no run may fail an output check or a guard.
fn selftest(w: &Workload, seed: u64) -> ExitCode {
    let runs: Vec<_> =
        [seed, seed, seed + 1].iter().map(|&s| driver::run(w, s, 0.0, false, 1)).collect();
    let det: Vec<_> = runs.iter().map(|o| driver::deterministic(&o.reference)).collect();
    let fp: Vec<u64> = runs.iter().map(|o| o.reference.fingerprint).collect();
    let mut ok = true;
    let mut check = |cond: bool, what: &str| {
        println!("  {} {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    println!("selftest {} seed {seed}", w.name);
    check(det[0] == det[1], "same seed: identical sim_* and count metrics");
    check(fp[0] == fp[1], "same seed: identical op stream");
    check(fp[0] != fp[2], "other seed: different op stream");
    check(det[0] != det[2], "other seed: different sim_* or count metrics");
    for (o, s) in runs.iter().zip([seed, seed, seed + 1]) {
        check(o.failed == 0 && o.guard.is_empty(), &format!("seed {s}: error_rate 0, guards pass"));
    }
    for (name, v) in &det[0] {
        if det[1].get(name) != Some(v) {
            println!("  differs: {name} {v} vs {:?}", det[1].get(name));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
