//! `qdd` — the paper's decision-diagram tool as a command-line interface.
//!
//! ```text
//! qdd simulate <file.{qasm,real}> [--seed N] [--shots N] [--state]
//!              [--svg PATH] [--dot PATH] [--html PATH] [--style STYLE]
//! qdd verify   <left> <right> [--strategy STRATEGY] [--stimuli N]
//! qdd render   <file> [--matrix] [--style STYLE] -o OUT.{svg,dot,json,html}
//! qdd circuit  <file> [--optimize]
//! qdd inspect  <trace.json> [-o OUT.html] [--style STYLE]
//! qdd serve    [--port N] [--quota-* ...]
//! ```
//!
//! Argument parsing is hand-rolled (the surface is five subcommands and a
//! dozen flags; a parser dependency isn't warranted — see DESIGN.md).

mod args;
mod commands;
mod load;
mod telemetry;

use std::process::ExitCode;

const USAGE: &str = "\
qdd — decision diagrams for quantum computing

USAGE:
  qdd simulate <file.{qasm,real}> [options]   run a circuit on decision diagrams
  qdd verify   <left> <right> [options]       check two circuits for equivalence
  qdd render   <file> [options]               export a diagram (svg/dot/json/html)
  qdd circuit  <file> [--optimize]            show the circuit as ASCII art + stats
  qdd inspect  <trace.json> [options]         render a recorded run as HTML
  qdd serve    [options]                      run the engine as an HTTP daemon
  qdd help [command]                          this message / command details

Run `qdd help <command>` or `qdd <command> --help` for per-command options.";

/// Exit code for resource exhaustion (node budget or deadline), distinct
/// from 1 (bad input / failure) so scripts can retry with a larger budget.
/// Successful-but-approximated runs exit with
/// [`commands::simulate::EXIT_APPROXIMATE`] (4).
const EXIT_RESOURCE: u8 = 3;

/// The help text of `command`, or `None` when there is no such command.
fn command_help(command: &str) -> Option<&'static str> {
    Some(match command {
        "simulate" => commands::simulate::HELP,
        "verify" => commands::verify::HELP,
        "render" => commands::render::HELP,
        "circuit" => commands::circuit::HELP,
        "inspect" => commands::inspect::HELP,
        "serve" => commands::serve::HELP,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &argv[1..];
    // `qdd <command> --help` prints the help before anything runs, so a
    // `serve` never binds.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        if let Some(help) = command_help(command) {
            println!("{help}");
            return ExitCode::SUCCESS;
        }
    }
    let result: Result<u8, commands::CmdError> = match command.as_str() {
        "simulate" => commands::simulate::run(rest),
        "verify" => commands::verify::run(rest).map(|()| 0),
        "render" => commands::render::run(rest).map(|()| 0).map_err(Into::into),
        "circuit" => commands::circuit::run(rest).map(|()| 0).map_err(Into::into),
        "inspect" => commands::inspect::run(rest).map(|()| 0).map_err(Into::into),
        "serve" => commands::serve::run(rest).map(|()| 0),
        "help" | "--help" | "-h" => {
            let help = rest.first().and_then(|c| command_help(c));
            println!("{}", help.unwrap_or(USAGE));
            Ok(0)
        }
        other => Err(commands::CmdError::Input(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(commands::CmdError::Input(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(commands::CmdError::Resource(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(EXIT_RESOURCE)
        }
    }
}
