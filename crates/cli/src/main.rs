//! `hypart` command-line entry point: parse, run, print, exit.
//!
//! Exit codes: `0` success, `2` usage error, `3` input parse error,
//! `4` runtime failure.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{}", hypart_cli::USAGE);
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let command = match hypart_cli::parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", hypart_cli::USAGE);
            std::process::exit(2);
        }
    };
    match hypart_cli::run(command) {
        Ok(report) => print!("{report}"),
        Err(e @ hypart_cli::CliError::Usage(_)) => {
            eprintln!("error: {e}\n\n{}", hypart_cli::USAGE);
            std::process::exit(e.exit_code());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
