#include "core/pid_filter.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::core {

namespace {
/// Tracked processes use at least this share of recent CPU (issued ops)
/// or of resident memory (Section III-B4).
constexpr double kCpuThreshold = 0.05;
constexpr double kMemThreshold = 0.10;
}  // namespace

std::vector<mem::Pid> PidFilter::select(
    const std::vector<sim::Process*>& processes) {
  // Deltas of issued ops since last evaluation approximate CPU time.
  std::uint64_t total_delta = 0;
  std::uint64_t total_rss = 0;
  std::vector<std::uint64_t> deltas(processes.size(), 0);
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const sim::Process* p = processes[i];
    std::uint64_t last = 0;
    for (const auto& [pid, ops] : last_ops_) {
      if (pid == p->pid()) last = ops;
    }
    deltas[i] = p->ops_issued() - last;
    total_delta += deltas[i];
    total_rss += p->rss_pages();
  }

  std::vector<mem::Pid> pids;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const sim::Process* p = processes[i];
    const double cpu = total_delta == 0
                           ? 0.0
                           : static_cast<double>(deltas[i]) /
                                 static_cast<double>(total_delta);
    const double mem = total_rss == 0
                           ? 0.0
                           : static_cast<double>(p->rss_pages()) /
                                 static_cast<double>(total_rss);
    if (is_pinned(p->pid()) || cpu >= kCpuThreshold || mem >= kMemThreshold) {
      pids.push_back(p->pid());
    }
  }

  last_ops_.clear();
  for (const sim::Process* p : processes) {
    last_ops_.emplace_back(p->pid(), p->ops_issued());
  }

  std::sort(pids.begin(), pids.end());
  return pids;
}

bool PidFilter::is_pinned(mem::Pid pid) const noexcept {
  return std::find(pinned_.begin(), pinned_.end(), pid) != pinned_.end();
}

void PidFilter::save_state(util::ckpt::Writer& w) const {
  w.put_u64(last_ops_.size());
  for (const auto& [pid, ops] : last_ops_) {
    w.put_u64(pid);
    w.put_u64(ops);
  }
}

void PidFilter::load_state(util::ckpt::Reader& r) {
  last_ops_.clear();
  const std::uint64_t count = r.get_u64();
  last_ops_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto pid = static_cast<mem::Pid>(r.get_u64());
    const std::uint64_t ops = r.get_u64();
    last_ops_.emplace_back(pid, ops);
  }
}

}  // namespace tmprof::core
