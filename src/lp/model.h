// Linear program container.
//
// min c^T x   s.t.   a_i^T x {<=, >=, =} b_i,   lo <= x <= up
//
// Rows are entered in natural (row) form; DualSimplex::build_columns builds
// the sparse column representation the simplex solver consumes (structural
// columns followed by one slack column per row).
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bsio::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kLe, kGe, kEq };

struct RowEntry {
  int var;
  double coef;
};

class Model {
 public:
  // Returns the variable index.
  int add_var(double cost, double lo, double up);
  int add_binary(double cost) { return add_var(cost, 0.0, 1.0); }

  void add_row(Sense sense, double rhs, std::vector<RowEntry> entries);

  int num_vars() const { return static_cast<int>(cost_.size()); }
  int num_rows() const { return static_cast<int>(rhs_.size()); }

  double cost(int v) const { return cost_[v]; }
  double lower(int v) const { return lo_[v]; }
  double upper(int v) const { return up_[v]; }
  Sense sense(int r) const { return sense_[r]; }
  double rhs(int r) const { return rhs_[r]; }
  const std::vector<RowEntry>& row(int r) const { return rows_[r]; }

  // Evaluates a_r^T x for a candidate point (used by feasibility checks and
  // MIP rounding heuristics).
  double row_activity(int r, const std::vector<double>& x) const;

  // True if x satisfies all rows and bounds within tol.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  double objective_value(const std::vector<double>& x) const;

 private:
  std::vector<double> cost_, lo_, up_;
  std::vector<Sense> sense_;
  std::vector<double> rhs_;
  std::vector<std::vector<RowEntry>> rows_;
};

}  // namespace bsio::lp
