//! Minimal CSV loading/saving for labeled datasets.
//!
//! The experiment binaries run on the synthetic generators only and read
//! no CSV. This module is a library entry point: a caller can load a real
//! MNIST2-6 / breast-cancer / ijcnn1 dump (features plus a numeric label
//! column) into a [`Dataset`] and hand it to the same embedding,
//! verification and attack functions the experiments call, or save a
//! dataset for other tools. Label parsing is explicit about its numeric
//! convention — the paper's signed `{-1, +1}` or class indices
//! `{0..k-1}` — so a `0.0` in a signed-binary file is a typed error, not a
//! silent negative.

use crate::dataset::Dataset;
use crate::error::{DataError, DataResult};
use crate::label::{Label, LabelConvention};
use crate::matrix::DenseMatrix;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Which column of the CSV holds the class label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelColumn {
    /// The first column is the label; the rest are features.
    First,
    /// The last column is the label; the rest are features.
    Last,
}

/// Parses a labeled dataset from CSV text using the paper's signed binary
/// `{-1, +1}` label convention.
///
/// * `has_header` skips the first line.
///
/// Use [`parse_csv_with`] for `{0..k-1}` class-index labels.
pub fn parse_csv(
    reader: impl Read,
    label_column: LabelColumn,
    has_header: bool,
    name: &str,
) -> DataResult<Dataset> {
    parse_csv_with(
        reader,
        label_column,
        has_header,
        name,
        LabelConvention::SignedBinary,
    )
}

/// Parses a labeled dataset from CSV text under an explicit label
/// convention.
///
/// A label value outside the convention's set surfaces as
/// [`DataError::LabelOutsideConvention`], naming the expected set. Under
/// [`LabelConvention::Indexed`] the resulting dataset carries the
/// convention's class count even when some classes are absent from the
/// file.
pub fn parse_csv_with(
    reader: impl Read,
    label_column: LabelColumn,
    has_header: bool,
    name: &str,
    convention: LabelConvention,
) -> DataResult<Dataset> {
    let reader = BufReader::new(reader);
    let mut features = DenseMatrix::zeros(0, 0);
    let mut labels = Vec::new();
    let mut row_buffer: Vec<f64> = Vec::new();
    for (line_number, line) in reader.lines().enumerate() {
        let line = line?;
        let human_line = line_number + 1;
        if has_header && line_number == 0 {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        row_buffer.clear();
        for field in trimmed.split(',') {
            let value: f64 = field.trim().parse().map_err(|_| DataError::Parse {
                line: human_line,
                message: format!("cannot parse '{}' as a number", field.trim()),
            })?;
            row_buffer.push(value);
        }
        if row_buffer.len() < 2 {
            return Err(DataError::Parse {
                line: human_line,
                message: "each record needs at least one feature and a label".into(),
            });
        }
        let label_value = match label_column {
            LabelColumn::First => row_buffer.remove(0),
            LabelColumn::Last => row_buffer.pop().expect("length checked above"),
        };
        let label = Label::parse_numeric(label_value, convention)?;
        features.push_row(&row_buffer)?;
        labels.push(label);
    }
    if labels.is_empty() {
        return Err(DataError::EmptyDataset);
    }
    match convention {
        LabelConvention::SignedBinary => Dataset::new(name, features, labels),
        LabelConvention::Indexed { num_classes } => {
            Dataset::with_classes(name, features, labels, num_classes)
        }
    }
}

/// Loads a labeled dataset from a CSV file on disk (signed binary labels).
pub fn load_csv(
    path: impl AsRef<Path>,
    label_column: LabelColumn,
    has_header: bool,
) -> DataResult<Dataset> {
    load_csv_with(path, label_column, has_header, LabelConvention::SignedBinary)
}

/// Loads a labeled dataset from a CSV file on disk under an explicit label
/// convention.
pub fn load_csv_with(
    path: impl AsRef<Path>,
    label_column: LabelColumn,
    has_header: bool,
    convention: LabelConvention,
) -> DataResult<Dataset> {
    let path = path.as_ref();
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("dataset").to_string();
    let file = std::fs::File::open(path)?;
    parse_csv_with(file, label_column, has_header, &name, convention)
}

/// Writes a dataset as CSV with the label in the last column. Two-class
/// datasets use the paper's `{-1, +1}` convention; k-class datasets write
/// the class index, matching what [`parse_csv_with`] expects back.
pub fn write_csv(dataset: &Dataset, mut writer: impl Write) -> DataResult<()> {
    let signed = dataset.num_classes() == 2;
    for (row, label) in dataset.iter() {
        let mut record = String::with_capacity(row.len() * 8);
        for value in row {
            record.push_str(&format!("{value},"));
        }
        if signed {
            record.push_str(&format!("{}", label.as_i8()));
        } else {
            record.push_str(&format!("{}", label.index()));
        }
        writeln!(writer, "{record}")?;
    }
    Ok(())
}

/// Saves a dataset to a CSV file on disk (label last, no header).
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> DataResult<()> {
    let file = std::fs::File::create(path)?;
    write_csv(dataset, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_label_last_with_header() {
        let text = "f1,f2,label\n0.1,0.2,1\n0.3,0.4,-1\n";
        let dataset = parse_csv(text.as_bytes(), LabelColumn::Last, true, "demo").unwrap();
        assert_eq!(dataset.len(), 2);
        assert_eq!(dataset.num_features(), 2);
        assert_eq!(dataset.label(0), Label::Positive);
        assert_eq!(dataset.label(1), Label::Negative);
        assert_eq!(dataset.instance(1), &[0.3, 0.4]);
    }

    #[test]
    fn parse_label_first_with_indexed_convention() {
        let text = "1,0.5,0.25\n0,0.75,0.5\n";
        let dataset = parse_csv_with(
            text.as_bytes(),
            LabelColumn::First,
            false,
            "demo",
            LabelConvention::Indexed { num_classes: 2 },
        )
        .unwrap();
        assert_eq!(dataset.label(0), Label::Positive);
        assert_eq!(dataset.label(1), Label::Negative);
        assert_eq!(dataset.instance(0), &[0.5, 0.25]);
    }

    #[test]
    fn signed_binary_rejects_zero_with_a_typed_error() {
        let text = "0.1,0.2,0\n";
        let err = parse_csv(text.as_bytes(), LabelColumn::Last, false, "x").unwrap_err();
        match err {
            DataError::LabelOutsideConvention { value, convention } => {
                assert_eq!(value, 0.0);
                assert!(convention.contains("-1"), "convention was {convention}");
            }
            other => panic!("expected LabelOutsideConvention, got {other:?}"),
        }
    }

    #[test]
    fn indexed_convention_parses_k_class_labels() {
        let text = "0.1,0.2,0\n0.3,0.4,2\n0.5,0.6,1\n";
        let dataset = parse_csv_with(
            text.as_bytes(),
            LabelColumn::Last,
            false,
            "demo",
            LabelConvention::Indexed { num_classes: 4 },
        )
        .unwrap();
        assert_eq!(dataset.num_classes(), 4);
        assert_eq!(dataset.label(1).index(), 2);
        let err = parse_csv_with(
            "0.1,0.2,4\n".as_bytes(),
            LabelColumn::Last,
            false,
            "demo",
            LabelConvention::Indexed { num_classes: 4 },
        )
        .unwrap_err();
        assert!(matches!(err, DataError::LabelOutsideConvention { .. }));
    }

    #[test]
    fn parse_rejects_bad_numbers_and_bad_labels() {
        let bad_number = "0.1,zzz,1\n";
        let err = parse_csv(bad_number.as_bytes(), LabelColumn::Last, false, "x").unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));

        let bad_label = "0.1,0.2,7\n";
        let err = parse_csv(bad_label.as_bytes(), LabelColumn::Last, false, "x").unwrap_err();
        assert!(matches!(err, DataError::LabelOutsideConvention { .. }));
    }

    #[test]
    fn parse_rejects_empty_input() {
        let err = parse_csv("".as_bytes(), LabelColumn::Last, false, "x").unwrap_err();
        assert_eq!(err, DataError::EmptyDataset);
    }

    #[test]
    fn skips_blank_lines() {
        let text = "0.1,0.2,1\n\n0.3,0.4,-1\n\n";
        let dataset = parse_csv(text.as_bytes(), LabelColumn::Last, false, "demo").unwrap();
        assert_eq!(dataset.len(), 2);
    }

    #[test]
    fn round_trip_through_csv() {
        let text = "0.1,0.2,1\n0.3,0.4,-1\n0.5,0.6,1\n";
        let dataset = parse_csv(text.as_bytes(), LabelColumn::Last, false, "demo").unwrap();
        let mut buffer = Vec::new();
        write_csv(&dataset, &mut buffer).unwrap();
        let reparsed = parse_csv(buffer.as_slice(), LabelColumn::Last, false, "demo").unwrap();
        assert_eq!(reparsed.len(), dataset.len());
        assert_eq!(reparsed.labels(), dataset.labels());
        for i in 0..dataset.len() {
            for (a, b) in reparsed.instance(i).iter().zip(dataset.instance(i)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn k_class_round_trip_writes_class_indices() {
        let c = |i: usize| Label::from_index(i).unwrap();
        let rows = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]];
        let dataset = Dataset::with_classes(
            "k3",
            DenseMatrix::from_rows(&rows).unwrap(),
            vec![c(0), c(2), c(1)],
            3,
        )
        .unwrap();
        let mut buffer = Vec::new();
        write_csv(&dataset, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.lines().next().unwrap().ends_with(",0"));
        let reparsed = parse_csv_with(
            buffer.as_slice(),
            LabelColumn::Last,
            false,
            "k3",
            LabelConvention::Indexed { num_classes: 3 },
        )
        .unwrap();
        assert_eq!(reparsed.labels(), dataset.labels());
        assert_eq!(reparsed.num_classes(), 3);
    }
}
