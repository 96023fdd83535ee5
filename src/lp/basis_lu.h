// Sparse LU factorisation of a simplex basis with product-form (eta-file)
// updates — the kernel behind the revised dual simplex.
//
// Factorisation is left-looking Gilbert-Peierls: columns are eliminated in
// ascending-nonzero-count order (static approximate-Markowitz ordering) and
// each column's sparse triangular solve walks only the symbolic reach of its
// pattern, so the cost is proportional to arithmetic actually performed —
// not to m^2. Within a column the pivot row is chosen Markowitz-style: among
// rows whose magnitude is within a threshold of the column maximum, the one
// with the fewest basis-matrix nonzeros wins (ties by row id, keeping the
// factorisation deterministic).
//
// Between refactorisations, basis changes append eta vectors (product form
// of the inverse). FTRAN applies L/U solves then the etas in order; BTRAN
// applies the eta transposes in reverse, then the transposed triangular
// solves. All four phases skip structurally zero entries, so the hypersparse
// right-hand sides of branch-and-bound re-optimisation (a single bound
// change) cost almost nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace bsio::lp {

// Dense-valued vector with an explicit nonzero pattern. `idx` lists every
// position that may be nonzero (duplicates prevented by the `in` marks);
// values can still cancel to exact zero, so consumers test `val[i] != 0`.
struct IndexedVector {
  std::vector<double> val;
  std::vector<int> idx;
  std::vector<unsigned char> in;

  void resize(int n) {
    val.assign(n, 0.0);
    in.assign(n, 0);
    idx.clear();
  }
  void clear() {
    for (int i : idx) {
      val[i] = 0.0;
      in[i] = 0;
    }
    idx.clear();
  }
  void add(int i, double v) {
    if (!in[i]) {
      in[i] = 1;
      idx.push_back(i);
    }
    val[i] += v;
  }
  void set(int i, double v) {
    if (!in[i]) {
      in[i] = 1;
      idx.push_back(i);
    }
    val[i] = v;
  }
  void swap(IndexedVector& o) {
    val.swap(o.val);
    idx.swap(o.idx);
    in.swap(o.in);
  }
};

class BasisLu {
 public:
  // Factorises the m x m basis whose k-th column has the given sparse
  // (row, value) entries. Returns false when the matrix is numerically
  // singular (the caller falls back to a fresh basis). Clears the eta file.
  bool factorize(int m,
                 const std::vector<std::vector<std::pair<int, double>>>& cols);

  // Solves B x = b. On entry `x` holds b indexed by constraint row; on exit
  // it holds the solution indexed by basis position.
  void ftran(IndexedVector& x) const;

  // Solves B^T y = c. On entry `x` holds c indexed by basis position; on
  // exit it holds the solution indexed by constraint row.
  void btran(IndexedVector& x) const;

  // Product-form update after a pivot: basis position `r` is replaced by a
  // column whose FTRAN image is `w` (indexed by basis position, w[r] being
  // the pivot element).
  void update(int r, const IndexedVector& w);

  // nnz(L) + nnz(U) of the current factorisation (diagonal included).
  long fill_nnz() const {
    return static_cast<long>(li_.size() + ui_.size()) + m_;
  }
  bool valid() const { return valid_; }

 private:
  int m_ = 0;
  bool valid_ = false;

  // L: unit lower triangular, stored column-wise by elimination step; row
  // indices are original constraint rows.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  // U: upper triangular, stored column-wise by elimination step; row indices
  // are elimination steps (< the column's step). Diagonal kept separately.
  std::vector<int> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  // Row-wise mirrors for the sparse transposed solves in btran.
  std::vector<int> lrp_, lri_;
  std::vector<double> lrx_;
  std::vector<int> urp_, uri_;
  std::vector<double> urx_;

  std::vector<int> p_;        // elimination step -> pivot row
  std::vector<int> row_pos_;  // row -> elimination step (-1 while unpivoted)
  std::vector<int> q_;        // elimination step -> basis position

  // Eta file (product form of the inverse), flattened.
  std::vector<int> eta_r_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_, eta_idx_;
  std::vector<double> eta_val_;

  // Scratch (solves are logically const).
  mutable IndexedVector out_;
  mutable std::vector<double> step_val_;

  void build_row_mirrors();
};

}  // namespace bsio::lp
