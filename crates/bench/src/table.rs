//! The one result type of the paper drivers and the sweeps: a titled
//! table of named columns, with one printer ([`Display`](fmt::Display))
//! and one JSON writer ([`Table::to_json`]), both row by row.

use std::fmt;

/// One cell of a [`Table`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cell {
    /// A number, printed at its column's decimals. A non-finite one is
    /// written to JSON as `null`.
    Num(f64),
    /// Static text: a label or identifier, written to JSON unescaped.
    Text(&'static str),
    /// No value: printed `-`, written `null`.
    Missing,
}

impl Cell {
    fn text(self, decimals: usize) -> String {
        match self {
            Cell::Num(v) => format!("{v:.decimals$}"),
            Cell::Text(s) => s.to_string(),
            Cell::Missing => "-".to_string(),
        }
    }

    fn json(self, decimals: usize) -> String {
        match self {
            Cell::Num(v) if v.is_finite() => format!("{v:.decimals$}"),
            Cell::Text(s) => format!("\"{s}\""),
            Cell::Num(_) | Cell::Missing => "null".to_string(),
        }
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Num(v as f64)
    }
}

impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Cell {
        v.map_or(Cell::Missing, Cell::Num)
    }
}

impl From<&'static str> for Cell {
    fn from(s: &'static str) -> Cell {
        Cell::Text(s)
    }
}

/// A result table: `key` names it in a `BENCH_*.json` artifact, `title`
/// heads its printout, and every column has a name and a fixed number of
/// decimals, which the printer and the JSON writer both use. Row `i` is
/// the `i`-th cell of every column.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// The table's field name in an artifact.
    pub key: &'static str,
    /// The heading of its printout.
    title: String,
    /// `(name, decimals, cells)`, all columns the same length.
    columns: Vec<(&'static str, usize, Vec<Cell>)>,
}

impl Table {
    /// A table with no columns yet.
    pub fn new(key: &'static str, title: impl Into<String>) -> Table {
        Table {
            key,
            title: title.into(),
            columns: Vec::new(),
        }
    }

    /// Append column `name`, printed at `decimals`; it must have one cell
    /// per row of the columns before it.
    pub fn col<C: Into<Cell>>(
        mut self,
        name: &'static str,
        decimals: usize,
        cells: impl IntoIterator<Item = C>,
    ) -> Table {
        let cells: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        if let Some((first, _, rows)) = self.columns.first() {
            let (key, n) = (self.key, rows.len());
            assert_eq!(
                n,
                cells.len(),
                "{key}: column {name} must have {n} cells, as {first} has"
            );
        }
        self.columns.push((name, decimals, cells));
        self
    }

    /// The numbers of column `name`, top row first; a missing cell reads
    /// NaN. Panics if there is no such column or it holds text.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let (_, _, cells) = self
            .columns
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{}: no column {name}", self.key));
        cells
            .iter()
            .map(|cell| match *cell {
                Cell::Num(v) => v,
                Cell::Missing => f64::NAN,
                Cell::Text(_) => panic!("{}: column {name} holds text", self.key),
            })
            .collect()
    }

    fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, _, cells)| cells.len())
    }

    /// The rows as a JSON array of objects keyed by column name, one row
    /// per line, indented to sit one level inside an artifact's object.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = (0..self.rows())
            .map(|i| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .map(|(name, decimals, cells)| {
                        format!("\"{name}\": {}", cells[i].json(*decimals))
                    })
                    .collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

/// `== title ==`, a header of column names, then one line per row, every
/// column right-aligned to its widest entry.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let text: Vec<Vec<String>> = self
            .columns
            .iter()
            .map(|(name, decimals, cells)| {
                let body = cells.iter().map(|cell| cell.text(*decimals));
                std::iter::once(name.to_string()).chain(body).collect()
            })
            .collect();
        for i in 0..=self.rows() {
            let line: Vec<String> = text
                .iter()
                .map(|col| {
                    let width = col.iter().map(String::len).max().unwrap_or(0);
                    format!("{:>width$}", col[i])
                })
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new("t", "Sample")
            .col("name", 0, ["a", "bb"])
            .col("x", 2, [1.5, f64::NAN])
            .col("n", 0, [Some(3.0), None])
    }

    #[test]
    fn json_is_rows_keyed_by_column_with_null_for_missing_and_non_finite() {
        assert_eq!(
            sample().to_json(),
            "[\n    {\"name\": \"a\", \"x\": 1.50, \"n\": 3},\n    \
             {\"name\": \"bb\", \"x\": null, \"n\": null}\n  ]"
        );
    }

    #[test]
    fn printout_right_aligns_each_column_to_its_widest_entry() {
        assert_eq!(
            sample().to_string(),
            "== Sample ==\nname     x  n\n   a  1.50  3\n  bb   NaN  -\n"
        );
    }

    #[test]
    fn column_reads_numbers_by_name() {
        let t = sample();
        assert_eq!(t.column("x")[0], 1.5);
        assert!(t.column("n")[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "no column y")]
    fn column_panics_on_an_unknown_name() {
        sample().column("y");
    }

    #[test]
    #[should_panic(expected = "column x must have 1 cells")]
    fn col_panics_on_a_length_mismatch() {
        let _ = Table::new("t", "Sample")
            .col("name", 0, ["a"])
            .col("x", 2, [1.0, 2.0]);
    }
}
