//! Regenerate `results/sim_costs.txt`: simulated time and device work of
//! the deterministic cost kernels (`iron_bench::sim_costs`).

fn main() {
    print!("{}", iron_bench::sim_costs::render());
}
