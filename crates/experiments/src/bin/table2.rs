//! Regenerates Table 2: watermark detection attacks (mean±std bands and
//! sharp mean threshold) on per-tree depth and leaf counts.
use wdte_experiments::report::{print_header, save_json};
use wdte_experiments::security::{
    adjudicate_via_service, prepare_security_setup, print_table2, save_model_artifacts, table2_rows,
};
use wdte_experiments::{ExperimentSettings, PaperDataset};

fn main() {
    let settings = ExperimentSettings::from_args();
    print_header("Table 2: watermark detection (cells are 'bands / threshold')");
    let mut rows = Vec::new();
    let mut setups = Vec::new();
    for dataset in PaperDataset::ALL {
        let setup = prepare_security_setup(&settings, dataset);
        // The trained, watermarked models are expensive; persist them so
        // dispute tooling can reload them instead of retraining, and a
        // judge (`serve_judge --warm-start results/models`) boots from
        // disk alone.
        save_model_artifacts(&setup);
        rows.extend(table2_rows(&setup));
        setups.push(setup);
    }
    print_table2(&rows);
    save_json("table2", &rows);
    // The same models, served: one concurrent dispute docket over every
    // dataset's genuine claim.
    adjudicate_via_service(&setups);
}
