//! Regenerates Fig. 7: PairUpLight's training curve (average waiting
//! time per episode) with the FixedTime reference level.

use tsc_bench::experiments::{self, ExperimentScale};
use tsc_bench::ModelKind;

fn main() {
    let scale = ExperimentScale::from_args(std::env::args().skip(1));
    eprintln!("Fig. 7 at scale {scale:?}");
    let run = || -> Result<(), pairuplight::TrainError> {
        let fixed = experiments::fixed_time_reference(&scale)?;
        let curves = experiments::training_curves(&scale, &[ModelKind::PairUpLight])?;
        println!("\nFIG. 7 — PAIRUPLIGHT TRAINING PERFORMANCE");
        println!("FixedTime reference waiting time: {fixed:.2}s");
        if let Some((ep, wait)) = curves[0].best() {
            println!("best performance at episode {ep} with {wait:.2}s waiting time");
        }
        println!("\nepisode, avg_waiting_time(s)");
        for p in &curves[0].points {
            println!("{:>5}, {:.3}", p.episode, p.avg_waiting_time);
        }
        let csv = experiments::curves_to_csv(&curves);
        match experiments::write_result("fig7.csv", &csv) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("fig7 failed: {e}");
        std::process::exit(1);
    }
}
