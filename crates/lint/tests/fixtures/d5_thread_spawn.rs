//@ path: crates/graph/src/fixture_d5.rs
// Fixture: D5-thread-spawn — threading primitives anywhere; the workspace
// starts no threads.

fn trigger(chunks: Vec<Vec<u32>>) {
    std::thread::scope(|scope| {
    //~^ D5-thread-spawn
        for c in chunks {
            scope.spawn(move || drop(c));
        }
    });
}

fn trigger_sync_primitive() {
    let shared: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    //~^ D5-thread-spawn
    drop(shared);
}

fn suppressed_core_count() -> usize {
    // txallo-lint: allow(D5-thread-spawn) — reads the core count only to report it next to a timing; no result depends on it
    std::thread::available_parallelism().map_or(1, |p| p.get())
    //~^ SUPPRESSED D5-thread-spawn
}

fn negative_serial(data: &[f64]) -> f64 {
    // Serial folds are always fine.
    data.iter().sum()
}
