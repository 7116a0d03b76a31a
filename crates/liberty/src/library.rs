//! The [`Library`] container and its error type.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use drd_netlist::{KindRef, PinDirs, PortDir};

use crate::cell::{CellClass, LibCell};

/// Error produced while parsing or validating a technology library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryError {
    message: String,
    line: Option<usize>,
}

impl LibraryError {
    /// Creates an error without source position.
    pub fn new(message: impl Into<String>) -> Self {
        LibraryError {
            message: message.into(),
            line: None,
        }
    }

    /// Creates an error referring to a source line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        LibraryError {
            message: message.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "liberty error at line {line}: {}", self.message),
            None => write!(f, "liberty error: {}", self.message),
        }
    }
}

impl Error for LibraryError {}

/// A technology library: a named collection of [`LibCell`]s.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    cells: Vec<LibCell>,
    index: HashMap<String, usize>,
}

impl Library {
    /// Builds a library from already-constructed cells.
    ///
    /// # Errors
    /// Returns [`LibraryError`] on duplicate cell names.
    pub fn from_cells(
        name: impl Into<String>,
        cells: Vec<LibCell>,
    ) -> Result<Library, LibraryError> {
        let mut index = HashMap::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            if index.insert(cell.name.clone(), i).is_some() {
                return Err(LibraryError::new(format!("duplicate cell `{}`", cell.name)));
            }
        }
        Ok(Library {
            name: name.into(),
            cells,
            index,
        })
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks a cell up by name.
    pub fn cell(&self, name: &str) -> Option<&LibCell> {
        self.index.get(name).map(|&i| &self.cells[i])
    }

    /// Looks up the cell instantiated by a netlist cell kind.
    pub fn cell_of(&self, kind: KindRef<'_>) -> Option<&LibCell> {
        match kind {
            KindRef::Lib(name) => self.cell(name),
            KindRef::Instance(_) => None,
        }
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = &LibCell> {
        self.cells.iter()
    }

    /// Area of the named cell (0 for unknown cells).
    pub fn area_of(&self, kind: KindRef<'_>) -> f64 {
        self.cell_of(kind).map(|c| c.area).unwrap_or(0.0)
    }

    /// Whether the named cell is sequential (FF, latch or C-element).
    pub fn is_sequential(&self, kind: KindRef<'_>) -> bool {
        self.cell_of(kind)
            .map(|c| c.is_sequential())
            .unwrap_or(false)
    }

    /// Classification of the named cell.
    pub fn class_of(&self, kind: KindRef<'_>) -> Option<CellClass> {
        self.cell_of(kind).map(|c| c.class())
    }

    /// Cells of a given class, sorted by area (useful for choosing the
    /// smallest buffer / inverter / latch).
    pub fn cells_of_class(&self, class: CellClass) -> Vec<&LibCell> {
        let mut v: Vec<&LibCell> = self.cells.iter().filter(|c| c.class() == class).collect();
        v.sort_by(|a, b| a.area.total_cmp(&b.area));
        v
    }
}

impl PinDirs for Library {
    fn pin_dir(&self, kind: KindRef<'_>, pin: &str) -> Option<PortDir> {
        self.cell_of(kind)?.pin(pin).map(|p| p.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Pin, SeqKind};

    fn cell(name: &str, area: f64) -> LibCell {
        LibCell {
            name: name.into(),
            area,
            leakage: 0.0,
            switching_energy: 0.0,
            setup: 0.0,
            hold: 0.0,
            pins: vec![Pin {
                name: "Z".into(),
                dir: PortDir::Output,
                function: None,
                capacitance: 0.0,
                drive_resistance: 1.0,
            }],
            seq: SeqKind::None,
            arcs: vec![],
        }
    }

    #[test]
    fn lookup_and_area() {
        let lib = Library::from_cells("t", vec![cell("A", 1.0), cell("B", 2.0)]).unwrap();
        assert_eq!(lib.name(), "t");
        assert!(lib.cell("A").is_some());
        assert!(lib.cell("C").is_none());
        assert_eq!(lib.area_of(KindRef::Lib("B")), 2.0);
        assert_eq!(lib.area_of(KindRef::Lib("missing")), 0.0);
        assert_eq!(lib.area_of(KindRef::Instance("B")), 0.0);
    }

    #[test]
    fn duplicates_rejected() {
        assert!(Library::from_cells("t", vec![cell("A", 1.0), cell("A", 2.0)]).is_err());
    }

    #[test]
    fn pin_dirs_impl() {
        let lib = Library::from_cells("t", vec![cell("A", 1.0)]).unwrap();
        assert_eq!(lib.pin_dir(KindRef::Lib("A"), "Z"), Some(PortDir::Output));
        assert_eq!(lib.pin_dir(KindRef::Lib("A"), "Y"), None);
    }

    #[test]
    fn cells_of_class_sorted_by_area() {
        let lib = Library::from_cells("t", vec![cell("BIG", 9.0), cell("SMALL", 1.0)]).unwrap();
        let combs = lib.cells_of_class(CellClass::Combinational);
        assert_eq!(combs[0].name, "SMALL");
        assert_eq!(combs[1].name, "BIG");
    }
}
