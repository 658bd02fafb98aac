//! `npcgra-eval <experiment|--all|--tsv>`: print one experiment's rendering,
//! every rendering, or every row as `tests/golden/paper.tsv`.

use std::process::ExitCode;

use npcgra_eval::{run, tsv, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--tsv"] => tsv(),
        ["--all"] => EXPERIMENTS.iter().map(|(_, run)| run().text + "\n").collect(),
        [name] => run(name).map(|r| r.text).unwrap_or_default(),
        _ => String::new(),
    };
    if text.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: npcgra-eval <{}|--all|--tsv>", names.join("|"));
        return ExitCode::FAILURE;
    }
    print!("{text}");
    ExitCode::SUCCESS
}
