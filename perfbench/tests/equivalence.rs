//! Tracing equivalence: the decorated pipelines the traced run builds
//! reproduce `ScenarioRunner` exactly on every cell of the open-loop
//! workloads, so the decorators consume no randomness and change
//! nothing they time.

use arsf_core::ScenarioRunner;
use arsf_perfbench::layered::{run_open_cell, Allocs};
use arsf_perfbench::trace::{self, Layer};
use arsf_perfbench::workloads::{grids, Workload, DEFAULT_SEED};

#[test]
fn decorated_pipelines_reproduce_the_runner_on_every_open_loop_cell() {
    for seed in [DEFAULT_SEED, 11] {
        for workload in [Workload::OpenAttacked, Workload::OpenHonestWide] {
            trace::install();
            let mut rounds = 0;
            for grid in grids(workload, seed) {
                for cell in grid.cells() {
                    let runner = ScenarioRunner::try_new(&cell.scenario)
                        .expect("workload cells validate")
                        .run();
                    let traced = run_open_cell(&cell.scenario, None, &mut Allocs::default());
                    assert_eq!(
                        traced,
                        runner,
                        "{} seed {seed} cell {}",
                        workload.name(),
                        cell.index
                    );
                    rounds += runner.rounds;
                }
            }
            let recorder = trace::take();
            assert_eq!(recorder.total(Layer::Round).calls, rounds);
            assert_eq!(recorder.total(Layer::Fuse).calls, rounds);
            let forges = recorder.total(Layer::Forge).calls;
            match workload {
                // Every round of the golden grid forges sensor 0.
                Workload::OpenAttacked => assert_eq!(forges, rounds),
                _ => assert_eq!(forges, 0, "the honest workload never forges"),
            }
        }
    }
}
