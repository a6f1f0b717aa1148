//! Streamline tractography over a fiber-direction field.
//!
//! The point of resolving per-voxel fiber directions (the whole pipeline of
//! this crate) is to connect them into tracts. This module implements
//! deterministic fixed-step streamline tracking over the phantom's 2D
//! voxel grid:
//!
//! * at each step, look up the current voxel's extracted [`FiberEstimate`]s
//!   and follow the axis **best aligned with the incoming heading** — this
//!   is what lets tracking run straight *through* a crossing instead of
//!   veering onto the other tract (the clinical reason crossings must be
//!   resolved, Section IV of the paper);
//! * stop on leaving the grid, exceeding the turning threshold, entering a
//!   voxel with no fibers, or reaching the step cap.

use crate::extract::FiberEstimate;
use crate::fiber::Dir3;
use backend::BackendError;

/// Tracking parameters.
#[derive(Debug, Clone)]
pub struct TractConfig {
    /// Step length in voxel units.
    pub step: f64,
    /// Stop if the best-aligned fiber deviates from the heading by more
    /// than this many degrees.
    pub max_turn_deg: f64,
    /// Hard cap on steps per direction.
    pub max_steps: usize,
}

impl Default for TractConfig {
    fn default() -> Self {
        Self {
            step: 0.5,
            max_turn_deg: 45.0,
            max_steps: 1000,
        }
    }
}

/// Why a streamline stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Left the grid.
    LeftGrid,
    /// Turn angle exceeded the threshold.
    SharpTurn,
    /// Entered a voxel with no fiber estimates.
    NoFibers,
    /// Step cap reached.
    MaxSteps,
}

/// A traced streamline.
#[derive(Debug, Clone)]
pub struct Streamline {
    /// Points in voxel coordinates (x, y), in travel order, seed included.
    pub points: Vec<(f64, f64)>,
    /// Why tracking stopped (forward direction).
    pub stop_forward: StopReason,
    /// Why tracking stopped (backward direction).
    pub stop_backward: StopReason,
}

impl Streamline {
    /// Arc length in voxel units.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let dx = w[1].0 - w[0].0;
                let dy = w[1].1 - w[0].1;
                (dx * dx + dy * dy).sqrt()
            })
            .sum()
    }
}

/// A field of per-voxel fiber estimates on a `width × height` grid
/// (row-major, like [`crate::Phantom`]'s voxels).
#[derive(Debug, Clone)]
pub struct FiberField {
    width: usize,
    height: usize,
    fibers: Vec<Vec<FiberEstimate>>,
}

impl FiberField {
    /// Build a field from per-voxel estimates (row-major,
    /// `len == width*height`).
    ///
    /// # Errors
    /// A [`BackendError`] naming both counts when `fibers` does not hold
    /// one entry per voxel.
    pub fn new(
        width: usize,
        height: usize,
        fibers: Vec<Vec<FiberEstimate>>,
    ) -> Result<Self, BackendError> {
        if width.checked_mul(height) != Some(fibers.len()) {
            return Err(BackendError(format!(
                "a {width}x{height} fiber field needs one entry per voxel, got {}",
                fibers.len()
            )));
        }
        Ok(Self {
            width,
            height,
            fibers,
        })
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The estimates of the voxel containing `(x, y)`, or `None` outside
    /// the grid.
    pub fn at(&self, x: f64, y: f64) -> Option<&[FiberEstimate]> {
        if x < 0.0 || y < 0.0 {
            return None;
        }
        let (xi, yi) = (x.floor() as usize, y.floor() as usize);
        if xi >= self.width || yi >= self.height {
            return None;
        }
        Some(&self.fibers[yi * self.width + xi])
    }

    /// Among the voxel's fibers, the axis best aligned with `heading`
    /// (sign-corrected to point along the heading), with its deviation in
    /// degrees.
    fn best_aligned(&self, x: f64, y: f64, heading: &Dir3) -> Option<(Dir3, f64)> {
        let fibers = self.at(x, y)?;
        let mut best: Option<(Dir3, f64)> = None;
        for f in fibers {
            let dot: f64 = f
                .direction
                .iter()
                .zip(heading.iter())
                .map(|(a, b)| a * b)
                .sum();
            let aligned = if dot >= 0.0 {
                f.direction
            } else {
                [-f.direction[0], -f.direction[1], -f.direction[2]]
            };
            let dev = dot.abs().clamp(0.0, 1.0).acos().to_degrees();
            if best.as_ref().is_none_or(|(_, b)| dev < *b) {
                best = Some((aligned, dev));
            }
        }
        best
    }
}

/// Trace one direction from a seed. Returns the points *after* the seed.
fn trace_one_way(
    field: &FiberField,
    seed: (f64, f64),
    mut heading: Dir3,
    cfg: &TractConfig,
) -> (Vec<(f64, f64)>, StopReason) {
    let mut points = Vec::new();
    let (mut x, mut y) = seed;
    for _ in 0..cfg.max_steps {
        let Some(fibers) = field.at(x, y) else {
            return (points, StopReason::LeftGrid);
        };
        if fibers.is_empty() {
            return (points, StopReason::NoFibers);
        }
        let Some((dir, dev)) = field.best_aligned(x, y, &heading) else {
            return (points, StopReason::NoFibers);
        };
        if dev > cfg.max_turn_deg {
            return (points, StopReason::SharpTurn);
        }
        x += cfg.step * dir[0];
        y += cfg.step * dir[1];
        heading = dir;
        if field.at(x, y).is_none() {
            return (points, StopReason::LeftGrid);
        }
        points.push((x, y));
    }
    (points, StopReason::MaxSteps)
}

/// Trace a full streamline through `seed`, following the seed voxel's
/// strongest fiber both ways. Returns `None` if the seed voxel is outside
/// the grid or has no fibers.
pub fn trace(field: &FiberField, seed: (f64, f64), cfg: &TractConfig) -> Option<Streamline> {
    let fibers = field.at(seed.0, seed.1)?;
    let strongest = fibers.first()?;
    let dir = strongest.direction;

    let (fwd, stop_forward) = trace_one_way(field, seed, dir, cfg);
    let (bwd, stop_backward) = trace_one_way(field, seed, [-dir[0], -dir[1], -dir[2]], cfg);

    let mut points: Vec<(f64, f64)> = bwd.into_iter().rev().collect();
    points.push(seed);
    points.extend(fwd);
    Some(Streamline {
        points,
        stop_forward,
        stop_backward,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(d: Dir3) -> FiberEstimate {
        FiberEstimate {
            direction: d,
            lambda: 1.0,
            basin_fraction: 1.0,
        }
    }

    /// A uniform horizontal field.
    fn horizontal_field(w: usize, h: usize) -> FiberField {
        FiberField::new(w, h, vec![vec![est([1.0, 0.0, 0.0])]; w * h]).unwrap()
    }

    #[test]
    fn straight_field_traces_across_the_grid() {
        let field = horizontal_field(16, 4);
        let s = trace(&field, (8.0, 2.0), &TractConfig::default()).unwrap();
        assert_eq!(s.stop_forward, StopReason::LeftGrid);
        assert_eq!(s.stop_backward, StopReason::LeftGrid);
        // Crosses nearly the full 16-voxel width.
        assert!(s.length() > 13.0, "length {}", s.length());
        // All points stay on the horizontal line.
        for &(_, y) in &s.points {
            assert!((y - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn crossing_voxels_are_passed_straight_through() {
        // Horizontal field, but the middle column also carries a vertical
        // fiber (a crossing). Heading continuity must pick the horizontal
        // axis and pass through.
        let w = 11;
        let mut fibers = vec![vec![est([1.0, 0.0, 0.0])]; w * 3];
        for y in 0..3 {
            fibers[y * w + 5] = vec![est([0.0, 1.0, 0.0]), est([1.0, 0.0, 0.0])];
        }
        let field = FiberField::new(w, 3, fibers).unwrap();
        let s = trace(&field, (1.2, 1.5), &TractConfig::default()).unwrap();
        assert_eq!(s.stop_forward, StopReason::LeftGrid);
        assert!(
            s.length() > 8.0,
            "must cross the crossing column: {}",
            s.length()
        );
        for &(_, y) in &s.points {
            assert!((y - 1.5).abs() < 1e-9, "streamline must stay horizontal");
        }
    }

    #[test]
    fn sharp_turn_stops_tracking() {
        // Left half horizontal, right half vertical: a 90-degree wall.
        let w = 10;
        let fibers: Vec<Vec<FiberEstimate>> = (0..w * 3)
            .map(|i| {
                let x = i % w;
                if x < 5 {
                    vec![est([1.0, 0.0, 0.0])]
                } else {
                    vec![est([0.0, 1.0, 0.0])]
                }
            })
            .collect();
        let field = FiberField::new(w, 3, fibers).unwrap();
        let s = trace(&field, (1.0, 1.0), &TractConfig::default()).unwrap();
        assert_eq!(s.stop_forward, StopReason::SharpTurn);
    }

    #[test]
    fn empty_voxels_stop_tracking() {
        let w = 8;
        let fibers: Vec<Vec<FiberEstimate>> = (0..w)
            .map(|x| {
                if x < 4 {
                    vec![est([1.0, 0.0, 0.0])]
                } else {
                    vec![]
                }
            })
            .collect();
        let field = FiberField::new(w, 1, fibers).unwrap();
        let s = trace(&field, (0.5, 0.5), &TractConfig::default()).unwrap();
        assert_eq!(s.stop_forward, StopReason::NoFibers);
    }

    #[test]
    fn length_mismatch_is_a_typed_error() {
        let err = FiberField::new(3, 2, vec![vec![est([1.0, 0.0, 0.0])]; 5]).unwrap_err();
        assert!(err.0.contains("3x2") && err.0.contains("got 5"), "{err}");
        assert!(FiberField::new(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn seed_outside_grid_is_none() {
        let field = horizontal_field(4, 4);
        assert!(trace(&field, (-1.0, 0.0), &TractConfig::default()).is_none());
        assert!(trace(&field, (5.0, 0.0), &TractConfig::default()).is_none());
    }

    #[test]
    fn seed_in_empty_voxel_is_none() {
        let field = FiberField::new(1, 1, vec![vec![]]).unwrap();
        assert!(trace(&field, (0.5, 0.5), &TractConfig::default()).is_none());
    }

    #[test]
    fn max_steps_honored() {
        let field = horizontal_field(1000, 1);
        let cfg = TractConfig {
            max_steps: 10,
            ..Default::default()
        };
        let s = trace(&field, (500.0, 0.5), &cfg).unwrap();
        assert_eq!(s.stop_forward, StopReason::MaxSteps);
        assert!(s.points.len() <= 21);
    }

    #[test]
    fn length_of_known_path() {
        let field = horizontal_field(6, 1);
        let cfg = TractConfig {
            step: 1.0,
            max_steps: 3,
            ..Default::default()
        };
        let s = trace(&field, (2.5, 0.5), &cfg).unwrap();
        // Forward: 3 unit steps (some may exit); backward likewise.
        assert!(s.length() >= 2.0);
    }
}
