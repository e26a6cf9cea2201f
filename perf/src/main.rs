//! `bskel-perf` binary: see [`bskel_perf::cli`].

fn main() {
    // Taken first: a child's set-up time runs from here.
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bskel_perf::cli::main(&args, t0));
}
