#include "sim/system.hpp"

#include "util/ckpt.hpp"

#include <algorithm>
#include <utility>

#include "mem/ptw.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::sim {

using pmu::Event;

std::vector<mem::TierSpec> tier_specs(const SimConfig& config) {
  if (!config.tiers.empty()) {
    TMPROF_EXPECTS(config.tiers.size() <= mem::kMaxTiers);
    return config.tiers;
  }
  // Two-tier shorthand at the paper testbed's latencies.
  return {mem::TierSpec{"tier1-dram", config.tier1_frames, 80, 80, 0},
          mem::TierSpec{"tier2-nvm", config.tier2_frames, 300, 600, 0}};
}

namespace {
std::uint64_t pow2_floor(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

// Access-latency histogram geometry: 64 ns buckets up to 4 µs covers every
// modeled latency short of a major fault; the rest lands in overflow.
constexpr std::uint64_t kLatencyHistHi = 4096;
constexpr std::size_t kLatencyHistBuckets = 64;
}  // namespace

System::System(const SimConfig& config)
    : config_(config),
      phys_(tier_specs(config), config.sharded_engine ? config.cores : 1),
      pmu_(config.cores),
      // With the sharded engine the LLC lives in per-core slices; keep the
      // shared-LLC member at its minimum legal geometry (one set) so it
      // costs nothing.
      llc_(config.sharded_engine
               ? mem::kLineSize * config.llc_ways
               : config.llc_bytes,
           config.llc_ways) {
  TMPROF_EXPECTS(config.cores >= 1);
  if (config.sharded_engine) {
    // Slice the LLC: same associativity, a power-of-two fraction of the
    // sets per core (CacheLevel indexes with a mask). Rounding down keeps
    // the slice a valid geometry; the few percent of capacity lost to
    // rounding is a modeling choice, not an error.
    const std::uint64_t total_sets =
        config.llc_bytes /
        (static_cast<std::uint64_t>(config.llc_ways) * mem::kLineSize);
    const std::uint64_t slice_sets =
        pow2_floor(std::max<std::uint64_t>(1, total_sets / config.cores));
    const std::uint64_t slice_bytes =
        slice_sets * config.llc_ways * mem::kLineSize;
    llc_slices_.reserve(config.cores);
    for (std::uint32_t c = 0; c < config.cores; ++c) {
      llc_slices_.push_back(
          std::make_unique<mem::CacheLevel>(slice_bytes, config.llc_ways));
    }
  }
  static_assert(alignof(Core) >= util::kCacheLine);
  cores_.reserve(config.cores);
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    mem::CacheLevel* llc =
        config.sharded_engine ? llc_slices_[c].get() : &llc_;
    cores_.push_back(Core{
        mem::Tlb(kL1Tlb, config.l2_tlb),
        mem::CacheHierarchy(kL1Bytes, kL1Ways, config.l2_bytes, kL2Ways,
                            llc)});
  }
}

mem::Tlb& System::tlb(std::uint32_t core) {
  TMPROF_EXPECTS(core < cores_.size());
  return cores_[core].tlb;
}

void System::advance_time(util::SimNs delta) noexcept { now_ += delta; }

mem::Pid System::add_process(workloads::WorkloadPtr workload, double weight) {
  const mem::Pid pid = next_pid_++;
  processes_.push_back(std::make_unique<Process>(pid, std::move(workload),
                                                 weight));
  rebuild_schedule();
  if (phys_.arenas() > 1) {
    // Re-carve the per-core arenas to match the processes each core will
    // actually serve: an equal split starves workloads whose processes
    // cluster on few cores (a single process would get 1/cores of every
    // tier). The weights depend only on the process list, never on thread
    // count, so the carve — and thus every PFN — stays deterministic.
    // Once allocation has begun rebalance_arenas refuses and we keep the
    // carve processes have been faulting into.
    std::vector<std::uint64_t> per_core(config_.cores, 0);
    for (const auto& proc : processes_) {
      ++per_core[static_cast<std::uint32_t>(proc->pid()) % config_.cores];
    }
    phys_.rebalance_arenas(per_core);
  }
  return pid;
}

std::vector<Process*> System::processes() {
  std::vector<Process*> procs;
  procs.reserve(processes_.size());
  for (auto& p : processes_) procs.push_back(p.get());
  return procs;
}

Process& System::process(mem::Pid pid) {
  for (auto& p : processes_) {
    if (p->pid() == pid) return *p;
  }
  TMPROF_ASSERT(false);
  return *processes_.front();
}

void System::add_observer(monitors::AccessObserver* observer) {
  TMPROF_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

void System::remove_observer(monitors::AccessObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void System::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  shard_ops_.clear();
  shard_latency_.clear();
  if (telemetry == nullptr) {
    ops_counter_ = {};
    migrations_ = {};
    shootdown_ipis_ = {};
    access_latency_ = {};
    pmu_.set_telemetry_counter({});
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  ops_counter_ = m.counter("system_ops_total");
  migrations_ = m.counter("system_migrations_total");
  shootdown_ipis_ = m.counter("system_shootdown_ipis_total");
  access_latency_ = m.histogram("system_access_latency_ns", 0, kLatencyHistHi,
                                kLatencyHistBuckets);
  pmu_.set_telemetry_counter(m.counter("pmu_reads_total"));
  // One shard per simulated core (never per worker thread): the shard → core
  // decomposition is fixed by the config, so merged values are bitwise
  // thread-count-invariant.
  m.ensure_shards(config_.cores);
  shard_ops_.reserve(config_.cores);
  shard_latency_.reserve(config_.cores);
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    shard_ops_.push_back(m.shard_counter(c, "system_ops_total"));
    shard_latency_.push_back(m.shard_histogram(
        c, "system_access_latency_ns", 0, kLatencyHistHi, kLatencyHistBuckets));
  }
}

void System::rebuild_schedule() {
  std::vector<double> weights;
  std::vector<std::uint32_t> shard_of;
  weights.reserve(processes_.size());
  shard_of.reserve(processes_.size());
  for (const auto& p : processes_) {
    weights.push_back(p->weight());
    shard_of.push_back(static_cast<std::uint32_t>(p->pid()) % config_.cores);
  }
  schedule_ = weighted_schedule(weights);
  shard_schedule_.rebuild(schedule_, shard_of, config_.cores);
  schedule_cursor_ = 0;
}

util::SimNs System::step(std::uint64_t ops) {
  TMPROF_EXPECTS(!processes_.empty());
  const util::SimNs start = now_;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint32_t proc_idx = schedule_[schedule_cursor_];
    if (++schedule_cursor_ == schedule_.size()) schedule_cursor_ = 0;
    Process& proc = *processes_[proc_idx];
    const workloads::MemRef ref = proc.workload().next();
    access(proc, proc.vaddr_of(ref.offset), ref.is_store, ref.ip);
  }
  return now_ - start;
}

util::SimNs System::step_parallel(std::uint64_t ops, util::ThreadPool* pool) {
  TMPROF_EXPECTS(config_.sharded_engine);
  TMPROF_EXPECTS(!processes_.empty());
  // Hook-based managers (swap-style, AutoNUMA emulation) mutate cross-shard
  // state inside the access path; they need the serial engine.
  TMPROF_EXPECTS(!fault_hook_);
  const util::SimNs start = now_;
  const std::uint32_t n_cores = config_.cores;

  // Resolve every observer once per core to a sink whose callbacks are safe
  // on that core's worker thread. An observer without one (LwpMonitor,
  // TraceWriter) keeps global state in the access path, like a fault hook,
  // and needs the serial engine.
  std::vector<std::vector<monitors::AccessObserver*>> direct(n_cores);
  for (monitors::AccessObserver* obs : observers_) {
    for (std::uint32_t c = 0; c < n_cores; ++c) {
      monitors::AccessObserver* sink = obs->shard_sink(c);
      TMPROF_EXPECTS(sink != nullptr);
      direct[c].push_back(sink);
    }
  }

  // `executed` is bumped on every op by the shard's worker.
  struct alignas(util::kCacheLine) Shard {
    util::SimNs elapsed = 0;
    std::uint64_t executed = 0;
  };
  static_assert(alignof(Shard) >= util::kCacheLine);
  std::vector<Shard> shards(n_cores);

  // Every shard executes its own processes' slots among the same `ops`
  // schedule positions, visiting only those slots, so the global op
  // interleaving — and with it each shard's reference stream — is a pure
  // function of the schedule, never of thread timing.
  auto run_shard = [&](std::uint32_t s) {
    Shard& shard = shards[s];
    ExecContext ctx;
    ctx.core_idx = s;
    ctx.core = &cores_[s];
    ctx.pmu = &pmu_.core(s);
    ctx.now = start;
    ctx.arena = s;
    ctx.total_ops = &shard.executed;
    ctx.direct = &direct[s];
    if (!shard_ops_.empty()) {
      ctx.ops = shard_ops_[s];
      ctx.latency = shard_latency_[s];
    }
    shard_schedule_.walk(s, schedule_cursor_, ops, [&](std::uint32_t idx) {
      Process& proc = *processes_[idx];
      const workloads::MemRef ref = proc.workload().next();
      access_impl(proc, proc.vaddr_of(ref.offset), ref.is_store, ref.ip, ctx);
    });
    shard.elapsed = ctx.now - start;
  };

  if (pool != nullptr) {
    for (std::uint32_t s = 0; s < n_cores; ++s) {
      pool->submit(s, [&run_shard, s] { run_shard(s); });
    }
    if (step_pump_) {
      // Streaming transport: the main thread consumes the monitors' sample
      // rings while the shards are still producing, so the merge work the
      // barrier used to do happens under the shadow of shard execution.
      pool->wait_idle_pumping(step_pump_);
    } else {
      pool->wait_idle();
    }
  } else {
    for (std::uint32_t s = 0; s < n_cores; ++s) run_shard(s);
  }

  // ---- epoch barrier: merge shard state in ascending core order ----------
  for (monitors::AccessObserver* obs : observers_) obs->merge_shards();
  if (telemetry_ != nullptr) {
    telemetry_->metrics().merge_shards();
    for (std::uint32_t s = 0; s < n_cores; ++s) {
      telemetry_->span("shard.step", start, start + shards[s].elapsed,
                       telemetry::kTidShardBase + s);
    }
  }

  util::SimNs max_elapsed = 0;
  for (const Shard& shard : shards) {
    max_elapsed = std::max(max_elapsed, shard.elapsed);
    total_ops_ += shard.executed;
  }
  schedule_cursor_ = (schedule_cursor_ + ops) % schedule_.size();
  // Cores ran concurrently: wall-clock advances by the slowest shard. Each
  // core's event stream stays monotone because its next epoch starts at or
  // after its own elapsed time.
  now_ = start + max_elapsed;
  return max_elapsed;
}

util::SimNs System::instruction_fetch(Process& proc, std::uint32_t ip,
                                      ExecContext& ctx) {
  // Map the workload's synthetic code location (its phase id) to a spot in
  // the process's code region; distinct phases land on distinct pages.
  std::uint64_t mix = ip;
  const mem::VirtAddr code_va =
      kCodeBase + (util::splitmix64(mix) % kCodeBytesPerProcess);
  if (ctx.core->tlb.lookup(proc.pid(), code_va).level != mem::TlbHit::Miss) {
    return 0;  // fetch translation cached: free
  }
  ctx.pmu->record(Event::ItlbWalk);
  util::SimNs latency = 0;
  mem::WalkResult walk =
      mem::PageTableWalker::walk(proc.page_table(), code_va, false);
  if (walk.status == mem::WalkResult::Status::NotPresent) {
    // Demand-map the code page (text is always 4 KiB-mapped).
    const mem::VirtAddr page_va = mem::page_base(code_va, mem::PageSize::k4K);
    const auto pfn =
        phys_.alloc(proc.pid(), page_va, mem::PageSize::k4K, ctx.arena);
    TMPROF_ASSERT(pfn.has_value());
    proc.page_table().map(page_va, *pfn, mem::PageSize::k4K);
    proc.note_mapped_page(mem::PageSize::k4K);
    ctx.pmu->record(Event::PageFault);
    latency += kPageFaultNs;
    walk = mem::PageTableWalker::walk(proc.page_table(), code_va, false);
  } else if (walk.status == mem::WalkResult::Status::Poisoned) {
    // Code pages can be poisoned too (AutoNUMA-style protection covers
    // every VMA); the fetch takes the same protection fault as a load.
    ctx.pmu->record(Event::ProtectionFault);
    if (fault_hook_) {
      latency += fault_hook_(proc, code_va, false);
    } else {
      TMPROF_ASSERT(badgertrap_ != nullptr);
      latency += badgertrap_->handle_fault(proc.pid(), proc.page_table(),
                                           ctx.core->tlb, code_va, false);
    }
    walk = mem::PageTableWalker::walk(proc.page_table(), code_va, false,
                                      /*honor_poison=*/false);
  }
  TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
  if (walk.set_accessed) ctx.pmu->record(Event::PtwAbitSet);
  ctx.core->tlb.fill(proc.pid(), walk.page_va, walk.size, walk.pte,
                     walk.pte->dirty());
  latency += walk.levels * kWalkLevelNs;
  return latency;
}

Process& System::handle_page_fault(Process& proc, mem::VirtAddr vaddr,
                                   std::uint32_t arena) {
  const mem::PageSize size = proc.workload().page_size();
  const mem::VirtAddr page_va = mem::page_base(vaddr, size);
  const auto pfn = phys_.alloc(proc.pid(), page_va, size, arena);
  TMPROF_ASSERT(pfn.has_value());  // experiments size tiers to fit
  proc.page_table().map(page_va, *pfn, size);
  proc.note_mapped_page(size);
  return proc;
}

AccessResult System::access(Process& proc, mem::VirtAddr vaddr, bool is_store,
                            std::uint32_t ip) {
  const std::uint32_t core_idx =
      static_cast<std::uint32_t>(proc.pid()) % config_.cores;
  ExecContext ctx;
  ctx.core_idx = core_idx;
  ctx.core = &cores_[core_idx];
  ctx.pmu = &pmu_.core(core_idx);
  ctx.now = now_;
  // With per-core arenas (sharded config), single accesses allocate from
  // the same arena a parallel step would — the two paths stay bit-equal.
  ctx.arena = phys_.arenas() > 1 ? core_idx : 0;
  ctx.total_ops = &total_ops_;
  ctx.direct = &observers_;
  ctx.ops = ops_counter_;
  ctx.latency = access_latency_;
  const AccessResult result = access_impl(proc, vaddr, is_store, ip, ctx);
  now_ = ctx.now;
  return result;
}

AccessResult System::access_impl(Process& proc, mem::VirtAddr vaddr,
                                 bool is_store, std::uint32_t ip,
                                 ExecContext& ctx) {
  Core& core = *ctx.core;
  pmu::PmuCore& pmu_core = *ctx.pmu;
  AccessResult result;
  util::SimNs latency = kBaseOpNs;

  proc.charge_ops(1);
  ++*ctx.total_ops;
  pmu_core.record(Event::RetiredUops, kUopsPerOp);
  pmu_core.record(is_store ? Event::RetiredStores : Event::RetiredLoads);

  if (config_.instruction_fetch) {
    latency += instruction_fetch(proc, ip, ctx);
  }

  // ---- address translation -------------------------------------------------
  mem::Pte* pte = nullptr;
  mem::PageSize page_size = mem::PageSize::k4K;
  mem::VirtAddr page_va = 0;

  mem::Tlb::LookupResult hit = core.tlb.lookup(proc.pid(), vaddr);
  if (hit.level != mem::TlbHit::Miss) {
    result.tlb = hit.level;
    if (hit.level == mem::TlbHit::L2) {
      pmu_core.record(Event::DtlbL1Miss);
    }
    pte = hit.entry->pte;
    page_size = hit.size;
    page_va = mem::page_base(vaddr, page_size);
    // D bits are correctness-critical: a store through a clean TLB entry
    // still updates the PTE (PTW assist), TLB hit or not (Section II-B).
    if (is_store && !hit.entry->dirty_cached) {
      hit.entry->dirty_cached = true;
      if (!pte->dirty()) {
        pte->set_dirty(true);
        pmu_core.record(Event::PtwDbitSet);
      }
    }
  } else {
    result.tlb = mem::TlbHit::Miss;
    pmu_core.record(Event::DtlbL1Miss);
    pmu_core.record(Event::DtlbWalk);
    mem::WalkResult walk =
        mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store);
    if (walk.status == mem::WalkResult::Status::NotPresent) {
      // First touch: allocate and map, then redo the walk.
      result.page_fault = true;
      pmu_core.record(Event::PageFault);
      latency += kPageFaultNs;
      handle_page_fault(proc, vaddr, ctx.arena);
      walk = mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store);
      TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
    } else if (walk.status == mem::WalkResult::Status::Poisoned) {
      result.protection_fault = true;
      pmu_core.record(Event::ProtectionFault);
      if (fault_hook_) {
        latency += fault_hook_(proc, vaddr, is_store);
      } else {
        TMPROF_ASSERT(badgertrap_ != nullptr);
        latency += badgertrap_->handle_fault(proc.pid(), proc.page_table(),
                                             core.tlb, vaddr, is_store);
      }
      // The handler installed or restored the translation; re-walk the
      // unpoisoned view.
      walk = mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store,
                                        /*honor_poison=*/false);
      TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
    }
    latency += walk.levels * kWalkLevelNs;
    if (walk.set_accessed) pmu_core.record(Event::PtwAbitSet);
    if (walk.set_dirty) pmu_core.record(Event::PtwDbitSet);
    pte = walk.pte;
    page_size = walk.size;
    page_va = walk.page_va;
    if (!result.protection_fault) {
      core.tlb.fill(proc.pid(), page_va, page_size, pte, pte->dirty());
    }
  }

  // ---- physical access through the cache hierarchy ----------------------
  const mem::PhysAddr paddr =
      (pte->pfn() << mem::kPageShift) + (vaddr - page_va);
  result.paddr = paddr;
  mem::CacheAccess cache = core.caches.access(paddr, is_store);
  result.source = cache.source;
  switch (cache.source) {
    case mem::DataSource::L1:
      latency += kL1HitNs;
      break;
    case mem::DataSource::L2:
      latency += kL2HitNs;
      pmu_core.record(Event::L1DMiss);
      break;
    case mem::DataSource::LLC:
      latency += kLlcHitNs;
      pmu_core.record(Event::L1DMiss);
      pmu_core.record(Event::L2Miss);
      pmu_core.record(Event::LlcAccess);
      break;
    default: {
      pmu_core.record(Event::L1DMiss);
      pmu_core.record(Event::L2Miss);
      pmu_core.record(Event::LlcAccess);
      pmu_core.record(Event::LlcMiss);
      const mem::TierId tier = phys_.tier_of(mem::pfn_of(paddr));
      const mem::TierSpec& spec = phys_.tier(tier);
      latency += is_store ? spec.write_latency_ns : spec.read_latency_ns;
      latency += spec.line_transfer_ns;
      proc.note_mem_fill(tier);
      if (tier == 0) {
        result.source = mem::DataSource::MemTier1;
        pmu_core.record(Event::MemReadTier1);
      } else {
        result.source = mem::DataSource::MemTier2;
        pmu_core.record(Event::MemReadTier2);
      }
      if (cache.prefetch_issued) pmu_core.record(Event::PrefetchFill);
      break;
    }
  }

  ctx.now += latency;
  ctx.ops.inc();
  ctx.latency.observe(latency);

  // ---- publish hardware events to monitors ------------------------------
  monitors::MemOpEvent event;
  event.time = ctx.now;
  event.core = ctx.core_idx;
  event.pid = proc.pid();
  event.ip = ip;
  event.vaddr = vaddr;
  event.paddr = paddr;
  event.is_store = is_store;
  event.source = result.source;
  event.tlb = result.tlb;
  event.page_size = page_size;
  for (monitors::AccessObserver* obs : *ctx.direct) {
    obs->on_retire(ctx.core_idx, kUopsPerOp, ctx.now);
    obs->on_mem_op(event);
  }
  return result;
}

std::uint64_t System::shootdown(mem::Pid pid, mem::VirtAddr page_va,
                                mem::PageSize size) {
  for (Core& core : cores_) {
    core.tlb.invalidate_page(pid, page_va, size);
  }
  const std::uint64_t ipis = config_.cores - 1;
  pmu_.core(0).record(Event::TlbShootdownIpi, ipis);
  shootdown_ipis_.add(ipis);
  return ipis;
}

bool System::migrate_page(mem::Pid pid, mem::VirtAddr page_va,
                          mem::TierId target) {
  Process& proc = process(pid);
  mem::PteRef ref = proc.page_table().resolve(page_va);
  TMPROF_EXPECTS(ref && ref.page_va == page_va);
  const mem::Pfn old_pfn = ref.pte->pfn();
  if (phys_.tier_of(old_pfn) == target) return true;  // already there
  const std::uint32_t arena =
      phys_.arenas() > 1
          ? static_cast<std::uint32_t>(pid) % phys_.arenas()
          : 0;
  const auto new_pfn = phys_.alloc_exact(target, pid, page_va, ref.size, arena);
  if (!new_pfn) return false;
  ref.pte->set_pfn(*new_pfn);
  phys_.free(old_pfn);
  shootdown(pid, page_va, ref.size);
  pmu_.core(0).record(Event::PageMigration);
  migrations_.inc();
  return true;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void System::save_state(util::ckpt::Writer& w) {
  w.put_u64(now_);
  w.put_u64(total_ops_);
  w.put_u64(schedule_cursor_);
  w.put_u64(next_pid_);
  w.put_u32(static_cast<std::uint32_t>(processes_.size()));
  for (const auto& proc : processes_) {
    w.put_u64(proc->pid());
    proc->save_state(w);
  }
  phys_.save_state(w);
  pmu_.save_state(w);
  llc_.save_state(w);
  w.put_u32(static_cast<std::uint32_t>(llc_slices_.size()));
  for (const auto& slice : llc_slices_) slice->save_state(w);
  w.put_u32(static_cast<std::uint32_t>(cores_.size()));
  for (const Core& core : cores_) {
    core.caches.save_state(w);
    core.tlb.save_state(w);
  }
}

void System::load_state(util::ckpt::Reader& r) {
  now_ = r.get_u64();
  total_ops_ = r.get_u64();
  const std::uint64_t cursor = r.get_u64();
  const auto next_pid = static_cast<mem::Pid>(r.get_u64());
  const std::uint32_t n_procs = r.get_u32();
  if (n_procs != processes_.size() || next_pid != next_pid_) {
    throw util::ckpt::CkptError(
        "system", "process set mismatch: checkpoint has " +
                      std::to_string(n_procs) + " processes (next pid " +
                      std::to_string(next_pid) + "), system has " +
                      std::to_string(processes_.size()));
  }
  // step() and step_parallel() index the schedule with the cursor unchecked.
  if (cursor >= std::max<std::size_t>(schedule_.size(), 1)) {
    throw util::ckpt::CkptError(
        "system", "schedule cursor " + std::to_string(cursor) +
                      " out of range for a schedule of " +
                      std::to_string(schedule_.size()) + " slots");
  }
  schedule_cursor_ = static_cast<std::size_t>(cursor);
  for (const auto& proc : processes_) {
    const auto pid = static_cast<mem::Pid>(r.get_u64());
    if (pid != proc->pid()) {
      throw util::ckpt::CkptError(
          "system", "process order mismatch: expected pid " +
                        std::to_string(proc->pid()) + ", checkpoint has " +
                        std::to_string(pid));
    }
    proc->load_state(r);
  }
  phys_.load_state(r);
  pmu_.load_state(r);
  llc_.load_state(r);
  const std::uint32_t n_slices = r.get_u32();
  if (n_slices != llc_slices_.size()) {
    throw util::ckpt::CkptError("system", "LLC slice count mismatch");
  }
  for (const auto& slice : llc_slices_) slice->load_state(r);
  // Page tables are rebuilt above, so TLB entries can rebind their cached
  // PTE pointers now.
  const mem::TlbArray::PteResolver resolver =
      [this](mem::Pid pid, mem::Vpn vpn, mem::PageSize size) -> mem::Pte* {
    const unsigned shift =
        size == mem::PageSize::k4K ? mem::kPageShift : mem::kHugePageShift;
    const mem::VirtAddr va = vpn << shift;
    for (const auto& proc : processes_) {
      if (proc->pid() != pid) continue;
      const mem::PteRef ref = proc->page_table().resolve(va);
      if (!ref || ref.size != size || ref.page_va != va) return nullptr;
      return ref.pte;
    }
    return nullptr;
  };
  const std::uint32_t n_cores = r.get_u32();
  if (n_cores != cores_.size()) {
    throw util::ckpt::CkptError("system", "core count mismatch");
  }
  for (Core& core : cores_) {
    core.caches.load_state(r);
    core.tlb.load_state(r, resolver);
  }
}

}  // namespace tmprof::sim
