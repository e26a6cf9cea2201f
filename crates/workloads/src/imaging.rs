//! The medical-image-processing workload of the paper's experiments.
//!
//! Fig. 3 processes a stream of medical images under a 0.6 image/s
//! contract; Fig. 4 runs a produce/filter/display pipeline under a 0.3–0.7
//! task/s contract. Only the task *cost profile* matters to the managers,
//! so [`ImageTask`]/[`process_image`] give the threaded runtime a real
//! CPU-burning body with a given per-task cost (scaled so live examples
//! run in seconds rather than the paper's minutes).

/// A synthetic image-processing task.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageTask {
    /// Stream position.
    pub id: u64,
    /// Synthetic payload size (pixels); scales the filtering cost.
    pub pixels: u64,
    /// Nominal service time of this task on a reference core, seconds.
    pub cost: f64,
}

/// Burns CPU for approximately `task.cost` seconds — the task body the
/// threaded-runtime examples execute. Busy-work (not sleep) so external
/// load on the cores genuinely slows processing, which is what the
/// adaptation experiments rely on.
pub fn process_image(task: &ImageTask) -> u64 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(task.cost);
    let mut acc: u64 = task.pixels ^ 0x9e37_79b9_7f4a_7c15;
    while std::time::Instant::now() < deadline {
        // A cheap PRNG round keeps the ALU busy and defeats loop deletion.
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        std::hint::black_box(acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_image_takes_roughly_cost() {
        let task = ImageTask {
            id: 0,
            pixels: 1 << 20,
            cost: 0.02,
        };
        let t0 = std::time::Instant::now();
        process_image(&task);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.02, "finished early: {dt}");
        assert!(dt < 0.2, "overshot: {dt}");
    }
}
