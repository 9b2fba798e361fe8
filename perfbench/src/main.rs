//! Command-line entry point: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.

use perfbench::spec::{Knobs, WorkloadId};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WorkloadId::ALL.map(WorkloadId::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = WorkloadId::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let knobs = Knobs::new(seconds, trace);
    let outcome = perfbench::run(workload, seed, &knobs);
    if let Some(log) = &outcome.spans {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_json()))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    print!("{}", outcome.render(workload.name(), seed, trace));
    println!("{}", outcome.result_line(trace));
    ExitCode::SUCCESS
}
