//! What an experiment returns: a header plus typed rows. The console
//! table, the CSV and the pinned text of `fidelity.expected` are three
//! renderings of the same rows.

use std::fmt;

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count.
    Int(u64),
    /// A measured quantity that repeats exactly run to run.
    Real(f64),
    /// A wall-clock measurement: printed and written to the CSV, pinned as
    /// `~` (it is the one kind of cell that differs between two runs).
    Timing(f64),
}

impl Cell {
    /// A [`Cell::Text`] from anything printable.
    pub fn text(s: impl fmt::Display) -> Cell {
        Cell::Text(s.to_string())
    }

    /// The cell as a number (`NaN` for text).
    pub fn num(&self) -> f64 {
        match self {
            Cell::Text(_) => f64::NAN,
            Cell::Int(n) => *n as f64,
            Cell::Real(x) | Cell::Timing(x) => *x,
        }
    }

    fn render(&self, decimals: usize, timing: bool) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Timing(_) if !timing => "~".to_string(),
            Cell::Real(x) | Cell::Timing(x) => format!("{x:.decimals$}"),
        }
    }
}

/// One table of an experiment.
#[derive(Debug, Clone)]
pub struct Table {
    /// File stem of the CSV (`fig10_enterprise`) and key in
    /// `fidelity.expected`.
    pub name: String,
    /// Heading printed above the rows.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Digits after the point of every real-valued cell.
    pub decimals: usize,
    /// The rows; every row has one cell per header column.
    pub rows: Vec<Vec<Cell>>,
    /// Sentences that belong with the rows: the paper's reference
    /// numbers, derived one-line summaries, and the written explanation of
    /// every row that deviates from the paper. Pinned with the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table; `header` is the CSV header line.
    pub fn new(name: impl Into<String>, title: impl Into<String>, header: &str) -> Table {
        Table {
            name: name.into(),
            title: title.into(),
            header: header.split(',').map(str::to_string).collect(),
            decimals: 4,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: impl IntoIterator<Item = Cell>) {
        self.rows.push(row.into_iter().collect());
    }

    /// The table with one more note.
    pub(crate) fn note(mut self, note: impl Into<String>) -> Table {
        self.notes.push(note.into());
        self
    }

    /// Header and rows rendered cell by cell; without `timing` a
    /// [`Cell::Timing`] renders as `~`.
    fn grid(&self, timing: bool) -> Vec<Vec<String>> {
        let render = |cell: &Cell| cell.render(self.decimals, timing);
        let rows = self.rows.iter().map(|row| row.iter().map(render).collect());
        std::iter::once(self.header.clone()).chain(rows).collect()
    }

    /// Header and rows as CSV lines, with the timings (the CSV an
    /// experiment writes) or without (the pin).
    pub fn csv(&self, timing: bool) -> String {
        let lines = self.grid(timing).into_iter();
        lines.map(|cells| cells.join(",") + "\n").collect()
    }

    /// The text `fidelity.expected` holds for this table: name, the rows
    /// without their timings, then the notes.
    pub fn pinned(&self) -> String {
        let notes: String = self.notes.iter().map(|n| format!("# {n}\n")).collect();
        format!("== {}\n{}{}\n", self.name, self.csv(false), notes)
    }
}

/// The aligned console rendering: first column left, the rest right.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered = self.grid(true);
        let width = |col: usize| rendered.iter().map(|r| r[col].chars().count()).max();
        let widths: Vec<usize> = (0..self.header.len()).filter_map(width).collect();
        writeln!(f, "{}\n", self.title)?;
        for (i, row) in rendered.iter().enumerate() {
            let mut line = format!("{:<w$}", row[0], w = widths[0]);
            for (cell, w) in row.iter().zip(&widths).skip(1) {
                line += &format!("  {cell:>w$}");
            }
            writeln!(f, "{line}")?;
            if i == 0 {
                writeln!(f, "{}", "-".repeat(line.chars().count()))?;
            }
        }
        self.notes.iter().try_for_each(|n| writeln!(f, "\n{n}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_renderings_of_one_row() {
        let mut table = Table::new("t", "T", "method,recall,latency_ms").note("paper: 0.88");
        table.push([Cell::text("VH"), Cell::Real(0.82181), Cell::Timing(3.4)]);
        assert_eq!(
            table.csv(true),
            "method,recall,latency_ms\nVH,0.8218,3.4000\n"
        );
        assert_eq!(
            table.pinned(),
            "== t\nmethod,recall,latency_ms\nVH,0.8218,~\n# paper: 0.88\n\n"
        );
        let aligned = "method  recall  latency_ms\n".to_string() + &"-".repeat(26);
        let printed = format!("T\n\n{aligned}\nVH      0.8218      3.4000\n\npaper: 0.88\n");
        assert_eq!(table.to_string(), printed);
    }
}
