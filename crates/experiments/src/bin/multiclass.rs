//! Runs the k-class sweep: for each `k` in {2, 3, 5, 10}, generate a
//! synthetic k-class dataset, embed a watermark, persist and reload the
//! model, serve it from a dispute service and verify the owner's claim.
use wdte_experiments::multiclass::{multiclass_sweep, print_multiclass};
use wdte_experiments::report::{print_header, results_dir, save_json};
use wdte_experiments::ExperimentSettings;

fn main() {
    let settings = ExperimentSettings::from_args();
    print_header("Multi-class sweep: embed -> persist -> serve -> verify for k in {2, 3, 5, 10}");
    let rows = multiclass_sweep(&settings, &results_dir().join("models-kclass"));
    print_multiclass(&rows);
    save_json("multiclass", &rows);
    for row in &rows {
        assert!(
            row.watermark_holds,
            "watermark must hold for k={}",
            row.num_classes
        );
        assert!(
            row.persisted_round_trip,
            "persistence must round-trip for k={}",
            row.num_classes
        );
        assert!(
            row.claim_verified,
            "genuine claim must verify for k={}",
            row.num_classes
        );
    }
    println!("\nAll {} sweep entries verified end to end.", rows.len());
}
