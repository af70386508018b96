//! `iron-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object. Without
//! `--workload` it runs all five, each in a child process of its own so
//! that `peak_rss_mb` stays per workload.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use iron_benchmark::metrics::{self, median, ratio, Def, TracedRun, Values};
use iron_benchmark::probe::{Layer, TraceLog};
use iron_benchmark::procstat::peak_rss_mb;
use iron_benchmark::stack::DeviceParts;
use iron_benchmark::{campaign, gen, run, WORKLOADS};
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_serve::Response;

/// Every run repeats at least twice, so that rep 1 can be held against
/// rep 0 even when one repetition outlasts `--seconds`.
const MIN_REPS: usize = 2;
/// Per-request records written to the trace file.
const TRACE_FILE_REQUESTS: usize = 20_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => match it.next_if(|v| v == "0" || v == "1") {
                Some(v) => args.trace = v == "1",
                None => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run's result, as the last line reports it.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    values: Values,
}

/// The samples of one end-to-end metric, one per repetition.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    host_ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    sim_ms_per_op: Vec<f64>,
}

impl Samples {
    fn push(&mut self, setup_s: f64, ops: usize, wall_s: f64, cpu_s: f64, sim_ns: u64) {
        let ops = ops as f64;
        self.setup_s.push(setup_s);
        self.host_ops_per_s.push(ops / wall_s);
        self.cpu_us_per_op.push(cpu_s * 1e6 / ops);
        self.sim_ms_per_op.push(sim_ns as f64 / 1e6 / ops);
    }

    /// Medians into `values`, with quartiles and sample count on stdout.
    fn report(&self, values: &mut Values) {
        for (name, xs) in [
            ("setup_s", &self.setup_s),
            ("host_ops_per_s", &self.host_ops_per_s),
            ("cpu_us_per_op", &self.cpu_us_per_op),
            ("sim_ms_per_op", &self.sim_ms_per_op),
        ] {
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let (lo, hi) = sorted.split_at(sorted.len() / 2);
            let hi = &hi[sorted.len() % 2..];
            println!(
                "  {name}: q1 {} q3 {} n {} samples {xs:.4?}",
                median(lo),
                median(hi),
                xs.len()
            );
            values.set(name, median(xs));
        }
        values.set("peak_rss_mb", peak_rss_mb());
    }
}

/// Requests whose reply is unexpected: it misses the shadow model's
/// expectation or differs from `reference`, the same request's reply in a
/// serial execution.
fn failed_requests(
    plan: &gen::Plan,
    got: &[Vec<Response>],
    reference: Option<&[Vec<Response>]>,
) -> usize {
    let mut failed = 0;
    for (s, replies) in got.iter().enumerate() {
        for (i, reply) in replies.iter().enumerate() {
            let agrees = reference.is_none_or(|r| r[s][i] == *reply);
            if !agrees || !plan.expect[s][i].met_by(reply) {
                failed += 1;
            }
        }
    }
    failed
}

fn serve_end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut samples = Samples::default();
    let (mut attempted, mut failed, mut measured_s) = (0, 0, 0.0);
    let mut deterministic = true;
    let mut first: Option<(gen::Plan, Vec<Vec<Response>>, u64)> = None;
    while measured_s < seconds || samples.setup_s.len() < MIN_REPS {
        let t0 = Instant::now();
        let plan = gen::generate(workload, seed).expect("a serve-path workload");
        let mut m = run::mount_bare(&plan);
        let setup_s = t0.elapsed().as_secs_f64();
        let r = run::measure(&mut m, &plan, plan.threads);
        m.vfs.umount().expect("unmount after the measured phase");
        drop(m);

        // Two clients interleave differently every time, so their replies
        // are held against a serial replay of this repetition's own commit
        // log; one client's replies must simply repeat.
        let replayed = (plan.threads > 1).then(|| run::replay(&plan, &r.report.commit_log));
        failed += failed_requests(&plan, &r.report.responses, replayed.as_deref());
        attempted += plan.ops();
        measured_s += r.wall_s;
        samples.push(setup_s, plan.ops(), r.wall_s, r.cpu_s, r.sim_ns);
        match &first {
            None => first = Some((plan, r.report.responses, r.sim_ns)),
            Some((plan0, responses0, sim0)) => {
                deterministic &= plan == *plan0;
                if plan.threads == 1 {
                    deterministic &= r.report.responses == *responses0 && r.sim_ns == *sim0;
                }
            }
        }
    }
    let mut values = Values::default();
    samples.report(&mut values);
    if !deterministic {
        println!("  NOT DETERMINISTIC: a repetition differed from the first");
    }
    Outcome {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        values,
    }
}

/// Trials of the parts whose matrix or reports differ from `reference`'s,
/// or whose own oracle failed.
fn failed_trials(parts: &[campaign::Part], reference: &[campaign::Part]) -> usize {
    let bad = parts
        .iter()
        .zip(reference)
        .filter(|(p, r)| !p.clean || p.output != r.output);
    bad.map(|(p, _)| p.trials).sum()
}

fn campaign_end_to_end(seed: u64, seconds: f64) -> Outcome {
    let mut samples = Samples::default();
    let (mut attempted, mut failed, mut measured_s) = (0, 0, 0.0);
    let mut first: Option<Vec<campaign::Part>> = None;
    while measured_s < seconds || samples.setup_s.len() < MIN_REPS {
        let parts = campaign::run(seed);
        let sum = |f: fn(&campaign::Part) -> f64| parts.iter().map(f).sum::<f64>();
        let (setup_s, wall_s, cpu_s) = (sum(|p| p.setup_s), sum(|p| p.wall_s), sum(|p| p.cpu_s));
        let trials: usize = parts.iter().map(|p| p.trials).sum();
        let sim_ns = parts.iter().map(|p| p.sim_ns).sum();

        failed += failed_trials(&parts, first.as_deref().unwrap_or(&parts));
        attempted += trials;
        measured_s += wall_s;
        samples.push(setup_s, trials, wall_s, cpu_s, sim_ns);
        first.get_or_insert(parts);
    }
    let mut values = Values::default();
    samples.report(&mut values);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    }
}

fn layer_table(log: &TraceLog, ops: usize, sim_ns: u64, wall_s: f64) {
    let totals = log.totals();
    let host: u64 = totals.iter().map(|f| f.self_host_ns).sum();
    let sim: u64 = totals.iter().map(|f| f.self_sim_ns).sum();
    println!("  where the time goes ({ops} requests; self time per layer):");
    println!("  layer      calls/op  host us/op  host %  sim us/op  sim %");
    for layer in Layer::ALL {
        let f = &totals[layer as usize];
        println!(
            "  {:<10} {:>8.2} {:>11.2} {:>7.1} {:>10.2} {:>6.1}",
            layer.name(),
            f.calls as f64 / ops as f64,
            f.self_host_ns as f64 / 1e3 / ops as f64,
            100.0 * ratio(f.self_host_ns as f64, host as f64),
            f.self_sim_ns as f64 / 1e3 / ops as f64,
            100.0 * ratio(f.self_sim_ns as f64, sim as f64),
        );
    }
    println!(
        "  self sim ns sum {sim} vs end-to-end sim ns {sim_ns}: {}",
        if sim == sim_ns { "exact" } else { "MISMATCH" }
    );
    println!(
        "  self host ns sum {host} is {:.1} % of the traced pass's wall time",
        100.0 * host as f64 / (wall_s * 1e9)
    );
}

fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Write the traced pass to `benchmark/target/trace-<workload>.json`.
fn write_trace_file(workload: &str, seed: u64, log: &TraceLog) -> std::io::Result<PathBuf> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":[{}],\n\"requests\":[",
        Layer::ALL.map(|l| format!("\"{}\"", l.name())).join(",")
    );
    for (i, r) in log.requests.iter().take(TRACE_FILE_REQUESTS).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"id\":{i},\"op\":\"{}\",\"host_ns\":{},\"sim_ns\":{},\"layers\":[",
            r.op, r.host_ns, r.sim_ns
        );
        for (j, f) in r.layers.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"calls\":{},\"host_ns\":{},\"self_host_ns\":{},\"sim_ns\":{},\"self_sim_ns\":{}}}",
                f.calls, f.host_ns, f.self_host_ns, f.sim_ns, f.self_sim_ns
            );
        }
        s.push_str("]}");
    }
    s.push_str("],\n\"raw_spans\":[");
    for (i, sp) in log.raw.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"unit\":{},\"op\":\"{}\",\"tag\":\"{}\",\"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
            sp.id,
            sp.request,
            sp.layer.name(),
            sp.unit,
            sp.op,
            sp.tag,
            sp.host_start_ns,
            sp.host_end_ns,
            sp.sim_start_ns,
            sp.sim_end_ns
        );
    }
    s.push_str("]}\n");
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, s)?;
    Ok(path)
}

fn serve_traced(workload: &str, seed: u64) -> Outcome {
    let plan = gen::generate(workload, seed).expect("a serve-path workload");
    let mut values = Values::default();

    // The first stack a process builds pays the page faults for its 384 MiB
    // of disks; build one and drop it so that no timed pass does.
    drop(run::mount_bare(&plan));

    // Whole-session `serve` at one and at two workers, untraced.
    let ops_per_s = |threads: usize| {
        let mut m = run::mount_bare(&plan);
        plan.ops() as f64 / run::measure(&mut m, &plan, threads).wall_s
    };
    let t1 = ops_per_s(1);
    values.set("serve_vfs.scaling_t2_over_t1", ops_per_s(2) / t1);

    // The same serial pass on the bare and on the probed stack.
    let bare = {
        let mut m = run::mount_bare(&plan);
        run::run_serial(&mut m, &plan, |fs| fs.device(), None)
    };
    let (mut m, tracer) = run::mount_probed(&plan);
    let io0 = m.vfs.fs().inner().device().io();
    let probed = run::run_serial(&mut m, &plan, |fs| fs.inner().device(), Some(&tracer));
    let fs_io = m.vfs.fs().inner().device().io().since(io0);
    let log = tracer.take();
    m.vfs.umount().expect("unmount after the traced pass");

    let sim_ns = probed.after.sim_ns - probed.before.sim_ns;
    let transparent = sim_ns == bare.after.sim_ns - bare.before.sim_ns;
    let failed = failed_requests(&plan, &probed.responses, Some(&bare.responses));
    metrics::per_layer(
        &TracedRun {
            plan: &plan,
            bare: &bare,
            probed: &probed,
            log: &log,
            fs_io,
        },
        &mut values,
    );
    layer_table(&log, plan.ops(), sim_ns, probed.wall_s);
    if !transparent {
        println!("  PROBES NOT TRANSPARENT: simulated time differs from the bare stack's");
    }

    // The aged end image, unmounted.
    let image = m.vfs.into_fs().into_inner().into_device();
    values.set("fsck.check_ms", metrics::fsck_check_ms(&image));
    let t0 = Instant::now();
    std::hint::black_box(image.replica(0).snapshot());
    values.set("device.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(image);
    metrics::checksum_rates(&mut values);

    match write_trace_file(workload, seed, &log) {
        Ok(path) => println!("  trace written to {}", path.display()),
        Err(e) => println!("  trace not written: {e}"),
    }
    Outcome {
        correct: failed == 0 && transparent,
        attempted: plan.ops(),
        failed,
        values,
    }
}

fn campaign_traced(seed: u64) -> Outcome {
    let mut values = Values::default();
    // The campaign's trace is its per-part timing, which needs no probe:
    // the overhead is the second repetition over the first.
    let first = campaign::run(seed);
    let second = campaign::run(seed);
    let wall = |parts: &[campaign::Part]| parts.iter().map(|p| p.wall_s).sum::<f64>();
    values.set("trace.overhead_ratio", wall(&second) / wall(&first));
    for p in &second {
        values.set(p.metric, p.trials as f64 / p.wall_s);
    }

    let golden = Ext3Adapter::stock().golden(false);
    values.set("fsck.check_ms", metrics::fsck_check_ms(&golden));
    let t0 = Instant::now();
    std::hint::black_box(golden.snapshot());
    values.set("device.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    metrics::checksum_rates(&mut values);
    let failed = failed_trials(&second, &first);
    Outcome {
        correct: failed == 0,
        attempted: second.iter().map(|p| p.trials).sum(),
        failed,
        values,
    }
}

fn result_line(out: &Outcome, defs: &[Def]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = out.values.get(d.name);
            assert!(v.is_finite(), "{} is not a number", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Run every workload, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("re-exec for one workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iron-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.as_deref() else {
        return run_all(&args);
    };
    println!(
        "workload {workload} seed {} trace {}",
        args.seed,
        u8::from(args.trace)
    );
    let (out, defs): (Outcome, &[Def]) = match (workload, args.trace) {
        ("campaign", false) => (
            campaign_end_to_end(args.seed, args.seconds),
            &metrics::END_TO_END,
        ),
        ("campaign", true) => (campaign_traced(args.seed), &metrics::PER_LAYER),
        (w, false) => (
            serve_end_to_end(w, args.seed, args.seconds),
            &metrics::END_TO_END,
        ),
        (w, true) => (serve_traced(w, args.seed), &metrics::PER_LAYER),
    };
    for d in defs {
        println!("  {} = {} {}", d.name, out.values.get(d.name), d.unit);
    }
    // The verdict travels in the result line; a non-zero exit means no
    // result could be produced at all.
    println!("{}", result_line(&out, defs));
    ExitCode::SUCCESS
}
