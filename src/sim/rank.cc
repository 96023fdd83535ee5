#include "sim/rank.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace bsio::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The shortest fetch of a held input onto `node`: its home fetch or a copy
// from any holder but `node`, each at its path bandwidth. Every source
// evaluate_ect prices takes at least this long after the cursor.
double cheapest_source(const RankView& v, const RankTerm& t, wl::NodeId node) {
  const double size = v.workload.file_size(t.file);
  double d = t.seconds;
  for (wl::NodeId j : v.state.holders(t.file))
    if (j != node) d = std::min(d, size / v.topo.replica_bw(j, node));
  return d;
}

// The bound of one row (see rank.h): dense rows index `ready` by slot,
// sparse rows through their homes.
template <bool kDense>
double row_bound(const double* row, const std::uint32_t* homes,
                 std::size_t width, const double* ready, double c0) {
  double m = c0 + row[0];
  for (std::size_t k = 0; k < width; ++k)
    m = std::max(m, ready[kDense ? k : homes[k]] + row[2 + k]);
  return m + row[1];
}

}  // namespace

void remote_ready(const RankView& v, wl::NodeId node,
                  std::vector<double>& ready) {
  ready.resize(v.storage_tl.size());
  for (wl::NodeId s = 0; s < v.storage_tl.size(); ++s) {
    const TransferPath rp = v.topo.remote_path(s, node);
    double src_ready = v.storage_tl[s].horizon();
    for (std::uint32_t l = 0; l < rp.num_links; ++l)
      src_ready = std::max(src_ready, v.link_tl[rp.links[l]].horizon());
    ready[s] = src_ready;
  }
}

void compile(const RankView& v, RankEntry& e, wl::NodeId node) {
  const auto& info = v.workload.task(e.task);
  e.terms.resize(info.files.size());
  double read_bytes = 0.0;
  for (std::size_t i = 0; i < info.files.size(); ++i) {
    const wl::FileId f = info.files[i];
    RankTerm& term = e.terms[i];
    read_bytes += v.workload.file_size(f);
    term.file = f;
    term.home = v.workload.file(f).home_storage_node;
    term.seconds = v.workload.file_size(f) /
                   v.topo.remote_path(term.home, node).bandwidth;
    if (v.state.has(node, f))
      term.kind = RankTerm::Kind::kLocal;
    else if (v.cluster.allow_replication && v.state.num_copies(f) > 0)
      term.kind = RankTerm::Kind::kHolders;
    else
      term.kind = RankTerm::Kind::kHome;
  }
  e.read_seconds = read_bytes / v.cluster.local_disk_bw;
  e.compute_seconds = info.compute_seconds / v.topo.cpu_speed(node);
}

double evaluate_ect(const RankView& v, const RankEntry& e, wl::NodeId node,
                    const std::vector<double>& ready) {
  double cursor = std::max(v.compute_tl[node].horizon(), v.release_floor);
  for (const RankTerm& term : e.terms) {
    if (term.kind == RankTerm::Kind::kLocal) continue;
    const double home_fetch = std::max(cursor, ready[term.home]) + term.seconds;
    if (term.kind == RankTerm::Kind::kHome) {
      cursor = home_fetch;
      continue;
    }
    const wl::FileId f = term.file;
    const double size = v.workload.file_size(f);
    const auto holders = v.state.holders(f);
    const auto avail = v.state.holder_avail(f);
    double best = kInf;
    bool replica_served = false;
    for (std::size_t k = 0; k < holders.size(); ++k) {
      const wl::NodeId j = holders[k];
      if (j == node) continue;
      const TransferPath pp = v.topo.replica_path(j, node);
      double start = std::max({cursor, v.compute_tl[j].horizon(), avail[k]});
      for (std::uint32_t l = 0; l < pp.num_links; ++l)
        start = std::max(start, v.link_tl[pp.links[l]].horizon());
      best = std::min(best, start + size / pp.bandwidth);
      replica_served = true;
    }
    // Mirror best_transfer's staleness gate: a stale home copy is only an
    // estimate candidate when no node holds the current version.
    if (v.home_valid[f] != 0 || !replica_served)
      best = std::min(best, home_fetch);
    cursor = best;
  }
  if (!v.faults.has_slowdowns())
    return cursor + e.read_seconds + e.compute_seconds;
  const double nominal = e.read_seconds + e.compute_seconds;
  return cursor + v.faults.stretched_exec_duration(node, cursor, nominal);
}

double estimate_ect(const RankView& v, wl::TaskId task, wl::NodeId node) {
  RankEntry e;
  e.task = task;
  compile(v, e, node);
  std::vector<double> ready;
  remote_ready(v, node, ready);
  return evaluate_ect(v, e, node, ready);
}

std::uint32_t RankGroup::add(wl::TaskId task) {
  entries_.emplace_back().task = task;
  status_.push_back(kClean);
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

void RankGroup::build(const RankView& v) {
  const std::size_t n = entries_.size();
  const std::size_t storage = v.storage_tl.size();
  dense_ = storage <= kDenseStorageNodes;
  // Sparse rows keep one (h, B_h) slot per distinct home of the inputs.
  std::vector<std::uint32_t> homes;
  auto homes_of = [&](std::size_t id) -> const std::vector<std::uint32_t>& {
    homes.clear();
    for (wl::FileId f : v.workload.task(entries_[id].task).files)
      homes.push_back(v.workload.file(f).home_storage_node);
    std::sort(homes.begin(), homes.end());
    homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
    return homes;
  };
  width_ = storage;
  if (!dense_) {
    width_ = 0;
    for (std::size_t id = 0; id < n; ++id)
      width_ = std::max(width_, homes_of(id).size());
    homes_.assign(n * width_, 0);  // padding slots keep B = -inf
  }
  rows_.assign(n * (2 + width_), 0.0);
  slot_.resize(n);
  ids_.resize(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    slot_[id] = id;
    ids_[id] = id;
    if (!dense_) {
      const std::vector<std::uint32_t>& h = homes_of(id);
      std::copy(h.begin(), h.end(),
                homes_.begin() + static_cast<std::ptrdiff_t>(id * width_));
    }
    refresh(v, id);
  }
  live_ = n;
}

void RankGroup::mark_dirty(std::uint32_t id) {
  if (status_[id] != kClean) return;
  status_[id] = kDirty;
  dirty_.push_back(id);
}

void RankGroup::refresh(const RankView& v, std::uint32_t id) {
  compile(v, entries_[id], node_);
  write_row(v, id);
  status_[id] = kClean;
}

void RankGroup::write_row(const RankView& v, std::uint32_t id) {
  const RankEntry& e = entries_[id];
  const std::size_t slot = slot_[id];
  double* row = rows_.data() + slot * (2 + width_);
  const std::uint32_t* homes = homes_.data() + (dense_ ? 0 : slot * width_);
  std::fill(row + 2, row + 2 + width_, -kInf);
  // Suffix sums from the last input back: an input homed on h raises B_h
  // to the sum from it to the end.
  double suffix = 0.0;
  for (auto it = e.terms.rbegin(); it != e.terms.rend(); ++it) {
    const RankTerm& t = *it;
    if (t.kind == RankTerm::Kind::kLocal) continue;
    if (t.kind == RankTerm::Kind::kHolders) {
      suffix += cheapest_source(v, t, node_);
      continue;
    }
    suffix += t.seconds;
    std::size_t k = t.home;
    if (!dense_) k = std::find(homes, homes + width_, t.home) - homes;
    row[2 + k] = std::max(row[2 + k], suffix);
  }
  row[0] = suffix;
  row[1] = e.read_seconds + e.compute_seconds;
}

double RankGroup::bound(std::uint32_t id, double c0,
                        const std::vector<double>& ready) const {
  const std::size_t slot = slot_[id];
  const double* row = rows_.data() + slot * (2 + width_);
  const std::uint32_t* homes = homes_.data() + (dense_ ? 0 : slot * width_);
  return dense_ ? row_bound<true>(row, homes, width_, ready.data(), c0)
                : row_bound<false>(row, homes, width_, ready.data(), c0);
}

template <bool kDense>
std::size_t RankGroup::bound_pass(double c0, const std::vector<double>& ready,
                                  std::vector<double>& bounds) const {
  const std::size_t n = ids_.size();
  const std::size_t stride = 2 + width_;
  bounds.resize(n);
  const double* row = rows_.data();
  const std::uint32_t* homes = homes_.data();
  double best = kInf;
  std::size_t best_i = n;
  for (std::size_t i = 0; i < n; ++i, row += stride) {
    const double b = row_bound<kDense>(row, homes, width_, ready.data(), c0);
    if constexpr (!kDense) homes += width_;
    bounds[i] = b;
    if (b < best) {
      best = b;
      best_i = i;
    }
  }
  return best_i;
}

wl::TaskId RankGroup::pick(const RankView& v, RankScratch& scratch) {
  BSIO_CHECK(live_ > 0);
  for (std::uint32_t id : dirty_)
    if (status_[id] == kDirty) refresh(v, id);
  dirty_.clear();

  const std::vector<double>& ready = scratch.ready;
  const std::vector<double>& bounds = scratch.bounds;
  remote_ready(v, node_, scratch.ready);
  const double c0 = std::max(v.compute_tl[node_].horizon(), v.release_floor);
  const std::size_t first =
      dense_ ? bound_pass<true>(c0, ready, scratch.bounds)
             : bound_pass<false>(c0, ready, scratch.bounds);
  BSIO_CHECK(first < ids_.size());

  // The lowest bound's exact ECT caps the winner's. Any entry that could
  // match it has a bound within the rounding margin of it; evaluate those
  // exactly, in group order, keeping strict < (ties to the lowest row).
  const double first_ect = evaluate_ect(v, entries_[ids_[first]], node_, ready);
  const double limit = first_ect + rank_margin(first_ect);
  std::size_t win = first;
  double win_ect = first_ect;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (!(bounds[i] <= limit) || i == first) continue;
    if (status_[ids_[i]] == kPicked) continue;
    const double ect = evaluate_ect(v, entries_[ids_[i]], node_, ready);
    if (ect < win_ect || (ect == win_ect && i < win)) {
      win_ect = ect;
      win = i;
    }
  }
  const std::uint32_t id = ids_[win];
  BSIO_DCHECK(id == full_scan(v));

  status_[id] = kPicked;
  rows_[win * (2 + width_)] = kInf;  // tombstone: its bound is +inf
  std::vector<RankTerm>().swap(entries_[id].terms);
  --live_;
  if (ids_.size() - live_ > live_) compact();
  return entries_[id].task;
}

void RankGroup::compact() {
  const std::size_t stride = 2 + width_;
  std::size_t w = 0;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint32_t id = ids_[i];
    if (status_[id] == kPicked) continue;
    if (w != i) {
      std::copy_n(rows_.begin() + static_cast<std::ptrdiff_t>(i * stride),
                  stride,
                  rows_.begin() + static_cast<std::ptrdiff_t>(w * stride));
      if (!dense_)
        std::copy_n(homes_.begin() + static_cast<std::ptrdiff_t>(i * width_),
                    width_,
                    homes_.begin() + static_cast<std::ptrdiff_t>(w * width_));
      ids_[w] = id;
      slot_[id] = static_cast<std::uint32_t>(w);
    }
    ++w;
  }
  ids_.resize(w);
  rows_.resize(w * stride);
  if (!dense_) homes_.resize(w * width_);
}

void RankGroup::drain(std::vector<wl::TaskId>& out) {
  for (std::uint32_t id : ids_) {
    if (status_[id] == kPicked) continue;
    out.push_back(entries_[id].task);
    status_[id] = kPicked;
    std::vector<RankTerm>().swap(entries_[id].terms);
  }
  live_ = 0;
  ids_.clear();
  rows_.clear();
  homes_.clear();
}

std::uint32_t RankGroup::full_scan(const RankView& v) const {
  std::uint32_t best = ~std::uint32_t{0};
  double best_ect = kInf;
  for (std::uint32_t id : ids_) {
    if (status_[id] == kPicked) continue;
    const double ect = estimate_ect(v, entries_[id].task, node_);
    if (best == ~std::uint32_t{0} || ect < best_ect) {
      best_ect = ect;
      best = id;
    }
  }
  return best;
}

RankIndex::RankIndex(const wl::Workload& w,
                     const std::vector<RankGroup>& groups,
                     std::vector<std::uint32_t>& slot_of_file)
    : slot_of_file_(slot_of_file) {
  slot_of_file_.resize(w.num_files(), kNoSlot);
  // Count each file's readers, then place them by descending cursors.
  for (const RankGroup& g : groups)
    for (std::uint32_t id = 0; id < g.num_ids(); ++id)
      for (wl::FileId f : w.task(g.task(id)).files) {
        std::uint32_t& s = slot_of_file_[f];
        if (s == kNoSlot) {
          s = static_cast<std::uint32_t>(files_.size());
          files_.push_back(f);
          offset_.push_back(0);
        }
        ++offset_[s];
      }
  offset_.push_back(0);
  std::uint32_t sum = 0;
  for (std::uint32_t& o : offset_) o = sum += o;
  refs_.resize(sum);
  for (wl::NodeId n = 0; n < groups.size(); ++n)
    for (std::uint32_t id = 0; id < groups[n].num_ids(); ++id)
      for (wl::FileId f : w.task(groups[n].task(id)).files)
        refs_[--offset_[slot_of_file_[f]]] = {n, id};
}

RankIndex::~RankIndex() {
  for (wl::FileId f : files_) slot_of_file_[f] = kNoSlot;
}

void RankIndex::mark(const std::vector<wl::FileId>& files,
                     std::vector<RankGroup>& groups) const {
  for (wl::FileId f : files) {
    const std::uint32_t s =
        f < slot_of_file_.size() ? slot_of_file_[f] : kNoSlot;
    if (s == kNoSlot) continue;
    for (std::uint32_t r = offset_[s]; r < offset_[s + 1]; ++r)
      groups[refs_[r].node].mark_dirty(refs_[r].id);
  }
}

}  // namespace bsio::sim
