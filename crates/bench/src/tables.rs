//! Minimal aligned-column text tables for experiment output.

/// A titled table with aligned columns and optional footnotes.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: &str, headers: Vec<&str>) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let sep: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let fmt_row = |cells: &[String]| -> String {
            (0..ncols)
                .map(|c| format!(" {:<width$} ", cells[c], width = widths[c]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", vec!["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "three".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
        assert!(s.contains("note: a note"));
        // Separator spans all columns.
        assert!(s.lines().any(|l| l.starts_with("---")));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("m", vec!["x", "y"]);
        t.row(vec!["1".into()]);
    }
}
