//! The memory wall (the paper's Figure 1, condensed): how IPC scales with the
//! number of in-flight instructions a conventional processor supports, for
//! different main-memory latencies.
//!
//! ```text
//! cargo run --release --example memory_wall
//! ```

use koc_sim::{sweep, ProcessorConfig, Suite};

fn main() {
    let windows = [128usize, 512, 2048];
    let latencies = [100u32, 500, 1000];

    // One parallel grid: per window, perfect-L2 plus one machine per latency.
    let configs = windows.iter().flat_map(|&window| {
        std::iter::once(ProcessorConfig::baseline_perfect_l2(window)).chain(
            latencies
                .iter()
                .map(move |&lat| ProcessorConfig::baseline(window, lat)),
        )
    });
    let results = sweep(configs, &Suite::paper().generate(12_000));

    println!("suite-average IPC by window size and memory latency");
    print!("{:>10}", "window");
    print!("{:>14}", "perfect L2");
    for lat in latencies {
        print!("{:>14}", format!("{lat} cycles"));
    }
    println!();
    println!("{:-<66}", "");

    let per_window = 1 + latencies.len();
    for (wi, window) in windows.iter().enumerate() {
        print!("{:>10}", window);
        for r in &results[wi * per_window..(wi + 1) * per_window] {
            print!("{:>14.3}", r.mean_ipc());
        }
        println!();
    }

    println!();
    println!("Reading: with 1000-cycle memory, a 128-entry window is several times slower than");
    println!("the same pipeline with a perfect L2; growing the window recovers most of that");
    println!("loss — the observation that motivates kilo-instruction processors.");
}
