//! CUT floorplans and sensor placement.
//!
//! The paper's architectural claim: "the sensor arrays (INVs plus FFs)
//! can be multiplied, so that measures in many points of the CUT are
//! possible … whilst only a control system is required". A [`Floorplan`]
//! ties a `psnt-pdn` power grid to a set of [`SensorSite`]s — the tiles
//! where a sensor array is dropped in — and placement strategies decide
//! which tiles those are.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Resistance, Voltage};
//! use psnt_pdn::grid::PowerGrid;
//! use psnt_scan::floorplan::{Floorplan, Placement};
//!
//! let grid = PowerGrid::corner_fed(4, Voltage::from_v(1.0),
//!     Resistance::from_milliohms(40.0), Resistance::from_milliohms(10.0))?;
//! let fp = Floorplan::new(grid, Placement::Checkerboard)?;
//! assert_eq!(fp.sites().len(), 8); // half of a 4×4 grid
//! # Ok::<(), psnt_scan::error::ScanError>(())
//! ```

use psnt_pdn::grid::PowerGrid;
use serde::{Deserialize, Serialize};

use crate::error::ScanError;

/// Where sensor arrays are instantiated on the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// One array on every tile (maximum observability, maximum cost).
    EveryTile,
    /// Every other tile in a checkerboard pattern.
    Checkerboard,
    /// The four corners plus the centre.
    CornersAndCentre,
    /// Explicit tile list.
    Tiles(Vec<usize>),
}

/// One instrumented point of the CUT.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensorSite {
    /// Tile index on the power grid (row-major).
    pub tile: usize,
    /// A stable instance name, e.g. `site_r2c3`.
    pub name: String,
}

/// A CUT floorplan: power grid plus instrumented sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    grid: PowerGrid,
    sites: Vec<SensorSite>,
}

impl Floorplan {
    /// Instruments a grid with the given placement.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidPlacement`] when an explicit tile is
    /// out of range or the placement selects no tiles.
    pub fn new(grid: PowerGrid, placement: Placement) -> Result<Floorplan, ScanError> {
        let (rows, cols) = (grid.rows(), grid.cols());
        let tiles: Vec<usize> = match placement {
            Placement::EveryTile => (0..grid.tiles()).collect(),
            Placement::Checkerboard => (0..grid.tiles())
                .filter(|i| (i / cols + i % cols) % 2 == 0)
                .collect(),
            Placement::CornersAndCentre => {
                let mut t = vec![
                    0,
                    cols - 1,
                    (rows - 1) * cols,
                    rows * cols - 1,
                    (rows / 2) * cols + cols / 2,
                ];
                t.sort_unstable();
                t.dedup();
                t
            }
            Placement::Tiles(t) => {
                if let Some(&bad) = t.iter().find(|&&i| i >= grid.tiles()) {
                    return Err(ScanError::InvalidPlacement {
                        reason: format!("tile {bad} outside {rows}×{cols} grid"),
                    });
                }
                let mut t = t;
                t.sort_unstable();
                t.dedup();
                t
            }
        };
        if tiles.is_empty() {
            return Err(ScanError::InvalidPlacement {
                reason: "placement selects no tiles".into(),
            });
        }
        let sites = tiles
            .into_iter()
            .map(|tile| SensorSite {
                tile,
                name: format!("site_r{}c{}", tile / cols, tile % cols),
            })
            .collect();
        Ok(Floorplan { grid, sites })
    }

    /// Instruments a grid as an NoC-style mesh of `mesh_rows ×
    /// mesh_cols` tiles with `sites_per_tile` sensor sites spread
    /// evenly inside each tile's block of grid nodes — the floorplan a
    /// chip-scale workload campaign drives (e.g. an 8×8 mesh with 4
    /// sites/tile on a 40×40 grid → 256 sites).
    ///
    /// Sites within a tile are laid out on a near-square sub-grid at
    /// the centres of equal sub-cells, so coverage stays spatially
    /// uniform at any density. Site order is row-major by grid tile
    /// index, matching every other placement.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidMesh`] when the mesh is empty, does
    /// not evenly divide the grid, or asks for more sites per tile than
    /// the tile's block of grid nodes can hold.
    pub fn mesh(
        grid: PowerGrid,
        mesh_rows: usize,
        mesh_cols: usize,
        sites_per_tile: usize,
    ) -> Result<Floorplan, ScanError> {
        let invalid = |reason: String| ScanError::InvalidMesh {
            mesh_rows,
            mesh_cols,
            sites_per_tile,
            reason,
        };
        if mesh_rows == 0 || mesh_cols == 0 || sites_per_tile == 0 {
            return Err(invalid(
                "mesh dimensions and site count must be non-zero".into(),
            ));
        }
        let (rows, cols) = (grid.rows(), grid.cols());
        if rows % mesh_rows != 0 || cols % mesh_cols != 0 {
            return Err(invalid(format!(
                "mesh must evenly divide the {rows}×{cols} grid"
            )));
        }
        let (block_rows, block_cols) = (rows / mesh_rows, cols / mesh_cols);
        // Sites sit at sub-cell centres of a near-square sub-grid.
        let sub_cols = (sites_per_tile as f64).sqrt().ceil() as usize;
        let sub_rows = sites_per_tile.div_ceil(sub_cols);
        if sub_rows > block_rows || sub_cols > block_cols {
            return Err(invalid(format!(
                "{sites_per_tile} site(s) need a {sub_rows}×{sub_cols} sub-grid but each \
                 tile block is only {block_rows}×{block_cols} grid nodes"
            )));
        }
        let mut tiles = Vec::with_capacity(mesh_rows * mesh_cols * sites_per_tile);
        for mr in 0..mesh_rows {
            for mc in 0..mesh_cols {
                for k in 0..sites_per_tile {
                    let (sr, sc) = (k / sub_cols, k % sub_cols);
                    let row = mr * block_rows + ((2 * sr + 1) * block_rows) / (2 * sub_rows);
                    let col = mc * block_cols + ((2 * sc + 1) * block_cols) / (2 * sub_cols);
                    tiles.push(row * cols + col);
                }
            }
        }
        tiles.sort_unstable();
        tiles.dedup();
        if tiles.len() != mesh_rows * mesh_cols * sites_per_tile {
            // Unreachable given the sub-grid bound above, but guard the
            // invariant rather than silently dropping sites.
            return Err(invalid("site positions collide within a tile block".into()));
        }
        Floorplan::new(grid, Placement::Tiles(tiles))
    }

    /// The underlying power grid.
    pub fn grid(&self) -> &PowerGrid {
        &self.grid
    }

    /// The instrumented sites, in tile order.
    pub fn sites(&self) -> &[SensorSite] {
        &self.sites
    }

    /// Instrumentation coverage as a fraction of tiles.
    pub fn coverage(&self) -> f64 {
        self.sites.len() as f64 / self.grid.tiles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_cells::units::{Resistance, Voltage};

    fn grid(side: usize) -> PowerGrid {
        PowerGrid::corner_fed(
            side,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
        )
        .unwrap()
    }

    #[test]
    fn every_tile_placement() {
        let fp = Floorplan::new(grid(3), Placement::EveryTile).unwrap();
        assert_eq!(fp.sites().len(), 9);
        assert!((fp.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(fp.sites()[4].name, "site_r1c1");
    }

    #[test]
    fn checkerboard_placement() {
        let fp = Floorplan::new(grid(4), Placement::Checkerboard).unwrap();
        assert_eq!(fp.sites().len(), 8);
        // All selected tiles have even (row+col) parity.
        for s in fp.sites() {
            assert_eq!((s.tile / 4 + s.tile % 4) % 2, 0);
        }
    }

    #[test]
    fn corners_and_centre() {
        let fp = Floorplan::new(grid(5), Placement::CornersAndCentre).unwrap();
        let tiles: Vec<usize> = fp.sites().iter().map(|s| s.tile).collect();
        assert_eq!(tiles, vec![0, 4, 12, 20, 24]);
    }

    #[test]
    fn mesh_places_evenly() {
        // The campaign-scale shape: 8×8 mesh, 4 sites/tile on 40×40.
        let g = PowerGrid::new(
            40,
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 39), (39, 0), (39, 39)],
        )
        .unwrap();
        let fp = Floorplan::mesh(g, 8, 8, 4).unwrap();
        assert_eq!(fp.sites().len(), 256);
        // Each 5×5 block holds exactly 4 sites at offsets {1,3}×{1,3}.
        for s in fp.sites() {
            let (r, c) = (s.tile / 40, s.tile % 40);
            assert!(matches!(r % 5, 1 | 3), "row {r}");
            assert!(matches!(c % 5, 1 | 3), "col {c}");
        }
    }

    #[test]
    fn mesh_single_site_per_tile_hits_block_centres() {
        let fp = Floorplan::mesh(grid(4), 2, 2, 1).unwrap();
        let tiles: Vec<usize> = fp.sites().iter().map(|s| s.tile).collect();
        assert_eq!(tiles, vec![5, 7, 13, 15]);
    }

    #[test]
    fn mesh_rejects_bad_geometries() {
        assert!(matches!(
            Floorplan::mesh(grid(4), 3, 2, 1),
            Err(ScanError::InvalidMesh { mesh_rows: 3, .. })
        ));
        assert!(matches!(
            Floorplan::mesh(grid(4), 2, 2, 9),
            Err(ScanError::InvalidMesh {
                sites_per_tile: 9,
                ..
            })
        ));
        assert!(matches!(
            Floorplan::mesh(grid(4), 0, 2, 1),
            Err(ScanError::InvalidMesh { .. })
        ));
        // Maximum density: every node of every block instrumented.
        let fp = Floorplan::mesh(grid(4), 2, 2, 4).unwrap();
        assert_eq!(fp.sites().len(), 16);
    }

    #[test]
    fn explicit_tiles_validated_and_deduped() {
        let fp = Floorplan::new(grid(3), Placement::Tiles(vec![8, 0, 0, 4])).unwrap();
        let tiles: Vec<usize> = fp.sites().iter().map(|s| s.tile).collect();
        assert_eq!(tiles, vec![0, 4, 8]);
        assert!(Floorplan::new(grid(3), Placement::Tiles(vec![9])).is_err());
        assert!(Floorplan::new(grid(3), Placement::Tiles(vec![])).is_err());
    }
}
