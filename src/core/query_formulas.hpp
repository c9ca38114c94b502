// The one home of the semi-local query formulas.
//
// Every query over a kernel P_{a,b} reduces to a single element of the
// implicit LCS matrix of Definition 3.3,
//
//   H(i, j) = j - i + m - sigma(i, j),
//
// shifted by a correction that accounts for the wildcard padding of
// Definition 3.2's window (each wildcard contributes one free match). The
// kernel's own scan (core/kernel.cpp), the QueryIndex and the engine's
// compressed path all lower through this header, so a formula fix in one
// place fixes every query path (tests/test_kernel.cpp and
// tests/test_query_index.cpp pin the agreement on random kernels).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/types.hpp"

namespace semilocal {

/// A semi-local query lowered to H coordinates: answer = H(i, j) - correction.
struct HQuery {
  Index i = 0;
  Index j = 0;
  Index correction = 0;
};

/// H(i, j) from the dominance count sigma(i, j) (Definition 3.3).
[[nodiscard]] inline Index h_from_sigma(Index m, Index i, Index j, Index sigma) {
  return j - i + m - sigma;
}

/// Validates i, j in [0, order]; order = m + n.
inline void check_h_range(Index order, Index i, Index j) {
  if (i < 0 || j < 0 || i > order || j > order) {
    throw std::out_of_range("semi-local h: index outside [0, m+n]");
  }
}

/// LCS(a, b): the global score sits at H(m, n).
[[nodiscard]] inline HQuery lcs_query(Index m, Index n) { return {m, n, 0}; }

/// string-substring: LCS(a, b[j0, j1)), 0 <= j0 <= j1 <= n. Window b[j0, j1)
/// sits at H(m + j0, j1): no padding involved.
[[nodiscard]] inline HQuery string_substring_query(Index m, Index n, Index j0,
                                                   Index j1) {
  if (j0 < 0 || j1 < j0 || j1 > n) {
    throw std::out_of_range("string_substring: need 0 <= j0 <= j1 <= n");
  }
  return {m + j0, j1, 0};
}

/// substring-string: LCS(a[i0, i1), b), 0 <= i0 <= i1 <= m. Window
/// ?^{i0} b ?^{m-i1}: each wildcard contributes one free match against the
/// clipped ends of a.
[[nodiscard]] inline HQuery substring_string_query(Index m, Index n, Index i0,
                                                   Index i1) {
  if (i0 < 0 || i1 < i0 || i1 > m) {
    throw std::out_of_range("substring_string: need 0 <= i0 <= i1 <= m");
  }
  return {m - i0, n + (m - i1), i0 + (m - i1)};
}

/// prefix-suffix: LCS(a[0, k), b[l, n)) via window b[l, n) ?^{m-k}.
[[nodiscard]] inline HQuery prefix_suffix_query(Index m, Index n, Index k, Index l) {
  if (k < 0 || k > m || l < 0 || l > n) {
    throw std::out_of_range("prefix_suffix: need k in [0,m], l in [0,n]");
  }
  return {m + l, n + (m - k), m - k};
}

/// suffix-prefix: LCS(a[s, m), b[0, j)) via window ?^{s} b[0, j).
[[nodiscard]] inline HQuery suffix_prefix_query(Index m, Index n, Index s, Index j) {
  if (s < 0 || s > m || j < 0 || j > n) {
    throw std::out_of_range("suffix_prefix: need s in [0,m], j in [0,n]");
  }
  return {m - s, j, s};
}

// ---------------------------------------------------------------------------
// Alignment plots (Krusche-Tiskin): a (rows x cols) grid of equal-width
// windows, cell (u, v) = LCS(a[row0 + u*step, +window), b[col0 + v*step,
// +window)). One request lowers to rows*cols correlated window queries; the
// grid-aware planner in core/query_index.hpp shares the wavelet descent
// across each grid row.

/// Wire- and engine-level description of one alignment plot.
struct PlotSpec {
  Index row0 = 0;    ///< first window's start offset in a
  Index col0 = 0;    ///< first window's start offset in b
  Index rows = 0;    ///< grid rows (windows along a)
  Index cols = 0;    ///< grid cols (windows along b)
  Index step = 1;    ///< grid stride in symbols
  Index window = 1;  ///< window width in symbols
  std::uint8_t quant = 16;  ///< cell width: 16 = raw u16 score, 8 = scaled u8

  [[nodiscard]] Index cells() const { return rows * cols; }
  /// Start of grid row u in a / grid col v in b.
  [[nodiscard]] Index row_start(Index u) const { return row0 + u * step; }
  [[nodiscard]] Index col_start(Index v) const { return col0 + v * step; }
};

/// Hostile-dimension ceilings, enforced at protocol decode (a bad frame must
/// die at the 4th header byte's length check or here, never in the engine).
inline constexpr Index kMaxPlotCells = Index{1} << 24;      ///< cells per plot
inline constexpr Index kMaxPlotTileCells = Index{1} << 16;  ///< cells per tile
inline constexpr Index kMaxPlotStep = Index{1} << 20;
inline constexpr Index kMaxPlotWindow = 65535;  ///< scores must fit a u16 cell

/// Structural validation, independent of any sequence pair: nullptr when the
/// spec is well-formed, else a static message. Decode turns a non-null
/// result into a ProtocolError; the engine turns one into std::out_of_range.
[[nodiscard]] inline const char* validate_plot_spec(const PlotSpec& spec) {
  if (spec.rows < 1 || spec.cols < 1) return "plot: grid must be at least 1x1";
  if (spec.rows > kMaxPlotCells || spec.cols > kMaxPlotCells ||
      spec.rows * spec.cols > kMaxPlotCells) {
    return "plot: grid exceeds kMaxPlotCells";
  }
  if (spec.step < 1 || spec.step > kMaxPlotStep) return "plot: step outside [1, kMaxPlotStep]";
  if (spec.window < 1 || spec.window > kMaxPlotWindow) {
    return "plot: window outside [1, kMaxPlotWindow]";
  }
  if (spec.row0 < 0 || spec.col0 < 0) return "plot: negative origin";
  if (spec.quant != 8 && spec.quant != 16) return "plot: quant must be 8 or 16";
  return nullptr;
}

/// Extent validation against an actual pair (m = |a|, n = |b|): every window
/// must lie inside its sequence. Assumes validate_plot_spec passed, whose
/// caps keep `origin + (rows-1)*step + window` far below Index overflow.
[[nodiscard]] inline const char* validate_plot_extent(const PlotSpec& spec, Index m,
                                                      Index n) {
  if (spec.row0 > m || spec.col0 > n) return "plot: origin outside the pair";
  if (spec.row_start(spec.rows - 1) + spec.window > m) {
    return "plot: row range runs off the end of a";
  }
  if (spec.col_start(spec.cols - 1) + spec.window > n) {
    return "plot: col range runs off the end of b";
  }
  return nullptr;
}

/// Shrinks spec.rows / spec.cols to the cells whose windows lie inside an
/// (m, n) pair, keeping origin, step and window. Requires the first window
/// to fit (row0 + window <= m, col0 + window <= n), so a 1x1 grid remains.
inline void fit_plot_grid(PlotSpec& spec, Index m, Index n) {
  spec.rows = std::min(spec.rows, (m - spec.row0 - spec.window) / spec.step + 1);
  spec.cols = std::min(spec.cols, (n - spec.col0 - spec.window) / spec.step + 1);
}

/// A grid of square windows (window = step) spanning both sequences of an
/// (m, n) pair in at most rows x cols cells. One stride serves both axes,
/// so it is the larger of ceil(m/rows) and ceil(n/cols) and the other axis
/// gets fewer cells than asked for; each sequence then has less than one
/// stride uncovered at its end. The window is capped at kMaxPlotWindow and
/// at the shorter sequence, the step at kMaxPlotStep.
inline PlotSpec tiling_plot_spec(Index m, Index n, Index rows, Index cols) {
  if (m < 1 || n < 1 || rows < 1 || cols < 1) {
    throw std::invalid_argument("plot: need non-empty sequences and a positive grid");
  }
  PlotSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.step = std::min(std::max((m + rows - 1) / rows, (n + cols - 1) / cols), kMaxPlotStep);
  spec.window = std::min({spec.step, kMaxPlotWindow, m, n});
  fit_plot_grid(spec, m, n);
  return spec;
}

}  // namespace semilocal
