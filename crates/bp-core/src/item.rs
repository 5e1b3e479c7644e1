//! The stream data model: windows of samples and control tokens.

use crate::geometry::Dim2;
use crate::token::ControlToken;
use std::sync::Arc;

/// Window sample storage. 1×1 windows — the grain of raw pixel streams,
/// by far the most numerous items in a simulation — carry their sample
/// inline; larger windows share a reference-counted slice so that cloning
/// (channel fan-out, replicate kernels) is a refcount bump instead of a
/// deep copy. Mutation goes through copy-on-write: unique owners mutate in
/// place, shared owners get a private copy first.
#[derive(Clone, Debug)]
enum Payload {
    /// The single sample of a 1×1 window, stored inline (no allocation).
    Scalar(f64),
    /// Row-major samples of a larger window, shared on clone.
    Shared(Arc<[f64]>),
}

/// A rectangular block of samples — the unit of data transferred per
/// iteration on a channel. The grain of a channel equals the producing
/// port's output size; *buffer* kernels are what change grain.
///
/// Samples are stored in scan-line (row-major) order, matching the fixed
/// left-to-right, top-to-bottom data ordering the language mandates.
///
/// Cloning a window is cheap: the payload is either a single inline sample
/// or a shared reference-counted slice. Mutating accessors ([`set`](Self::set),
/// [`samples_mut`](Self::samples_mut), [`paste`](Self::paste)) copy on
/// write when the storage is shared.
#[derive(Clone, Debug)]
pub struct Window {
    w: u32,
    h: u32,
    data: Payload,
}

impl PartialEq for Window {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.h == other.h && self.samples() == other.samples()
    }
}

impl Window {
    fn from_data(w: u32, h: u32, data: Vec<f64>) -> Self {
        let data = if data.len() == 1 {
            Payload::Scalar(data[0])
        } else {
            Payload::Shared(data.into())
        };
        Self { w, h, data }
    }

    /// A window filled with a constant value.
    pub fn filled(dim: Dim2, value: f64) -> Self {
        if dim.area() == 1 {
            return Self::scalar(value);
        }
        Self {
            w: dim.w,
            h: dim.h,
            data: Payload::Shared(vec![value; dim.area() as usize].into()),
        }
    }

    /// A zero-filled window.
    pub fn zeros(dim: Dim2) -> Self {
        Self::filled(dim, 0.0)
    }

    /// Build a window from a function of (x, y), called in row-major
    /// order. Larger-than-1×1 windows cost exactly one allocation: the
    /// samples are collected straight into the shared slice from an
    /// iterator of known length.
    pub fn from_fn(dim: Dim2, mut f: impl FnMut(u32, u32) -> f64) -> Self {
        if dim.area() == 1 {
            return Self::scalar(f(0, 0));
        }
        let w = u64::from(dim.w);
        let data: Arc<[f64]> = (0..dim.area())
            .map(|i| f((i % w) as u32, (i / w) as u32))
            .collect();
        Self {
            w: dim.w,
            h: dim.h,
            data: Payload::Shared(data),
        }
    }

    /// Build a window from row-major samples. Panics if the sample count
    /// does not match `dim.area()`.
    pub fn from_vec(dim: Dim2, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len() as u64,
            dim.area(),
            "window data length must match dimensions"
        );
        Self::from_data(dim.w, dim.h, data)
    }

    /// Build a window from a row-major sample slice without an
    /// intermediate `Vec`: 1×1 windows are stored inline, larger ones cost
    /// exactly one shared-slice allocation. Panics if the sample count
    /// does not match `dim.area()`.
    pub fn from_slice(dim: Dim2, data: &[f64]) -> Self {
        assert_eq!(
            data.len() as u64,
            dim.area(),
            "window data length must match dimensions"
        );
        if data.len() == 1 {
            return Self::scalar(data[0]);
        }
        Self {
            w: dim.w,
            h: dim.h,
            data: Payload::Shared(data.into()),
        }
    }

    /// A 1×1 window holding a single sample — the grain of raw pixel
    /// streams. Allocation-free.
    pub fn scalar(value: f64) -> Self {
        Self {
            w: 1,
            h: 1,
            data: Payload::Scalar(value),
        }
    }

    /// Window dimensions.
    pub fn dim(&self) -> Dim2 {
        Dim2::new(self.w, self.h)
    }

    /// Width in samples.
    pub fn width(&self) -> u32 {
        self.w
    }

    /// Height in samples.
    pub fn height(&self) -> u32 {
        self.h
    }

    /// Sample at (x, y). Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f64 {
        assert!(x < self.w && y < self.h, "window access out of bounds");
        self.samples()[(y * self.w + x) as usize]
    }

    /// Set the sample at (x, y), copying shared storage first. Panics when
    /// out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: f64) {
        assert!(x < self.w && y < self.h, "window access out of bounds");
        let idx = (y * self.w + x) as usize;
        self.samples_mut()[idx] = v;
    }

    /// The single sample of a 1×1 window. Panics otherwise.
    pub fn as_scalar(&self) -> f64 {
        match &self.data {
            Payload::Scalar(v) => *v,
            Payload::Shared(a) => {
                assert_eq!(a.len(), 1, "as_scalar requires a 1x1 window");
                a[0]
            }
        }
    }

    /// Row-major view of the samples.
    pub fn samples(&self) -> &[f64] {
        match &self.data {
            Payload::Scalar(v) => std::slice::from_ref(v),
            Payload::Shared(a) => a,
        }
    }

    /// Mutable row-major view of the samples. Copies shared storage on
    /// first write (copy-on-write); unique owners mutate in place.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        match &mut self.data {
            Payload::Scalar(v) => std::slice::from_mut(v),
            Payload::Shared(a) => Arc::make_mut(a),
        }
    }

    /// True when this window's storage is shared with another clone (it
    /// would copy on write). 1×1 windows are never shared.
    pub fn is_shared(&self) -> bool {
        match &self.data {
            Payload::Scalar(_) => false,
            Payload::Shared(a) => Arc::strong_count(a) > 1,
        }
    }

    /// Copy the rectangle starting at (x0, y0) with extent `dim` into a new
    /// window. Panics if the rectangle exceeds the bounds.
    pub fn crop(&self, x0: u32, y0: u32, dim: Dim2) -> Window {
        assert!(
            x0 + dim.w <= self.w && y0 + dim.h <= self.h,
            "crop rectangle out of bounds"
        );
        let src = self.samples();
        let mut data = Vec::with_capacity(dim.area() as usize);
        for y in 0..dim.h {
            let row = ((y0 + y) * self.w + x0) as usize;
            data.extend_from_slice(&src[row..row + dim.w as usize]);
        }
        Self::from_data(dim.w, dim.h, data)
    }

    /// Paste `src` into this window with its origin at (x0, y0), copying
    /// shared storage first. Panics if the source exceeds the bounds.
    pub fn paste(&mut self, x0: u32, y0: u32, src: &Window) {
        assert!(
            x0 + src.w <= self.w && y0 + src.h <= self.h,
            "paste rectangle out of bounds"
        );
        let w = self.w;
        let dst = self.samples_mut();
        let sdata = src.samples();
        for y in 0..src.h {
            let drow = ((y0 + y) * w + x0) as usize;
            let srow = (y * src.w) as usize;
            dst[drow..drow + src.w as usize].copy_from_slice(&sdata[srow..srow + src.w as usize]);
        }
    }
}

/// One element traveling on a channel, in order: either a window of data or
/// a control token.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A block of data for one iteration.
    Window(Window),
    /// A control token (§II-C).
    Control(ControlToken),
}

impl Item {
    /// True when the item is data.
    pub fn is_window(&self) -> bool {
        matches!(self, Item::Window(_))
    }

    /// Borrow the window, if data.
    pub fn window(&self) -> Option<&Window> {
        match self {
            Item::Window(w) => Some(w),
            Item::Control(_) => None,
        }
    }

    /// Take the window, if data.
    pub fn into_window(self) -> Option<Window> {
        match self {
            Item::Window(w) => Some(w),
            Item::Control(_) => None,
        }
    }

    /// Borrow the token, if control.
    pub fn control(&self) -> Option<ControlToken> {
        match self {
            Item::Window(_) => None,
            Item::Control(t) => Some(*t),
        }
    }

    /// Number of data words this item transfers (tokens are free).
    pub fn words(&self) -> u64 {
        match self {
            Item::Window(w) => w.dim().area(),
            Item::Control(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_is_row_major() {
        let w = Window::from_fn(Dim2::new(3, 2), |x, y| (y * 10 + x) as f64);
        assert_eq!(w.samples(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(w.get(2, 1), 12.0);
    }

    #[test]
    fn crop_and_paste_roundtrip() {
        let big = Window::from_fn(Dim2::new(5, 5), |x, y| (y * 5 + x) as f64);
        let c = big.crop(1, 2, Dim2::new(3, 2));
        assert_eq!(c.get(0, 0), 11.0);
        assert_eq!(c.get(2, 1), 18.0);

        let mut dst = Window::zeros(Dim2::new(5, 5));
        dst.paste(1, 2, &c);
        assert_eq!(dst.get(1, 2), 11.0);
        assert_eq!(dst.get(3, 3), 18.0);
        assert_eq!(dst.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_out_of_bounds_panics() {
        let w = Window::zeros(Dim2::new(2, 2));
        let _ = w.crop(1, 1, Dim2::new(2, 2));
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Window::scalar(3.5);
        assert_eq!(s.as_scalar(), 3.5);
        assert_eq!(s.dim(), Dim2::ONE);
    }

    #[test]
    fn item_accessors() {
        let w = Item::Window(Window::scalar(1.0));
        let t = Item::Control(ControlToken::EndOfFrame);
        assert!(w.is_window());
        assert!(!t.is_window());
        assert_eq!(w.words(), 1);
        assert_eq!(t.words(), 0);
        assert_eq!(t.control(), Some(ControlToken::EndOfFrame));
        assert!(w.window().is_some());
        assert!(w.into_window().is_some());
    }

    #[test]
    fn clone_shares_until_written() {
        let a = Window::from_fn(Dim2::new(4, 4), |x, y| (y * 4 + x) as f64);
        let mut b = a.clone();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a.samples().as_ptr(), b.samples().as_ptr());
        b.set(0, 0, 99.0);
        // Write un-shares: b got a private copy, a is untouched.
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(b.get(0, 0), 99.0);
    }

    #[test]
    fn unique_owner_mutates_in_place() {
        let mut a = Window::zeros(Dim2::new(3, 3));
        let before = a.samples().as_ptr();
        a.set(1, 1, 7.0);
        assert_eq!(a.samples().as_ptr(), before);
        assert_eq!(a.get(1, 1), 7.0);
    }

    #[test]
    fn scalar_windows_compare_regardless_of_storage() {
        let inline = Window::scalar(2.0);
        let boxed = Window::from_vec(Dim2::ONE, vec![2.0]);
        assert_eq!(inline, boxed);
        assert!(!boxed.is_shared());
        assert_eq!(boxed.as_scalar(), 2.0);
    }
}
