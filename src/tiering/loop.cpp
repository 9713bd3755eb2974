#include "tiering/loop.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::tiering {

EpochLoop::EpochLoop(const WorkloadFactory& factory,
                     const sim::SimConfig& config, const LoopOptions& options,
                     const std::vector<double>& process_weights,
                     std::string_view default_label)
    : options_(options),
      config_([&config, &options] {
        sim::SimConfig sharded = config;
        if (options.n_threads >= 1) sharded.sharded_engine = true;
        return sharded;
      }()),
      system_(config_) {
  if (options.checkpoint.enabled()) {
    // Best-effort mkdir -p; a dir that still can't be written to surfaces
    // as a CkptError("<io>") from the first save_atomic.
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint.dir, ec);
  }
  std::size_t i = 0;
  for (workloads::WorkloadPtr& generator : factory(options.seed)) {
    const double weight =
        i < process_weights.size() ? process_weights[i] : 1.0;
    system_.add_process(std::move(generator), weight);
    ++i;
  }
  // Telemetry attaches before any resume load: handles resolve registry
  // cells in place, and load_state later overwrites those same cells, so
  // resolution order never affects restored values.
  if (options.telemetry != nullptr) {
    options.telemetry->begin_run(options.telemetry_label.empty()
                                     ? std::string(default_label)
                                     : options.telemetry_label);
    system_.set_telemetry(options.telemetry);
    epochs_counter_ =
        options.telemetry->metrics().counter("runner_epochs_total");
  }

  manifest_.add(
      {"meta", {},
       [this](util::ckpt::Writer& w) {
         identity_(w);
         w.put_u32(epochs_done_);
       },
       [this](util::ckpt::Reader& r) {
         util::ckpt::Writer expected;
         identity_(expected);
         const std::vector<std::uint8_t> want = expected.finish();
         std::vector<std::uint8_t> got(want.size() - util::ckpt::kHeaderSize);
         r.get_bytes(got.data(), got.size());
         if (!std::equal(got.begin(), got.end(),
                         want.begin() + util::ckpt::kHeaderSize)) {
           throw util::ckpt::CkptError(
               "meta", "checkpoint is from a different run (kind, seed, "
                       "epochs or configuration differ)");
         }
         start_epoch_ = r.get_u32();
         if (start_epoch_ == 0 || start_epoch_ >= options_.n_epochs) {
           throw util::ckpt::CkptError("meta", "resume epoch out of range");
         }
       }});
  manifest_.add(util::ckpt::participant_of("system", system_));
}

void EpochLoop::add(util::ckpt::Participant participant) {
  manifest_.add(std::move(participant));
}

void EpochLoop::run(const std::string& resume_path,
                    std::function<void(util::ckpt::Writer&)> identity,
                    const std::function<void(std::uint32_t)>& body) {
  identity_ = std::move(identity);
  telemetry::Telemetry* const telemetry = options_.telemetry;
  manifest_.add(util::ckpt::participant_of("telemetry", telemetry));
  if (!resume_path.empty()) {
    util::ckpt::Reader r = util::ckpt::Reader::from_file(resume_path);
    manifest_.load(r);
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (options_.n_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options_.n_threads);
  }
  const util::ckpt::Options& ckpt = options_.checkpoint;
  for (std::uint32_t e = start_epoch_; e < options_.n_epochs; ++e) {
    const util::SimNs epoch_begin = system_.now();
    if (config_.sharded_engine) {
      system_.step_parallel(options_.ops_per_epoch, pool.get());
    } else {
      system_.step(options_.ops_per_epoch);
    }
    body(e);
    // Record the epoch's telemetry before any checkpoint below, so the
    // saved span ring and counters include this epoch — a resumed run
    // replays the remaining epochs and exports identical artifacts.
    epochs_counter_.inc();
    if (telemetry != nullptr) {
      telemetry->span("runner.epoch", epoch_begin, system_.now(),
                      telemetry::kTidRunner);
      telemetry->maybe_export(e + 1);
    }
    if (ckpt.enabled() && (e + 1) % ckpt.every == 0) {
      epochs_done_ = e + 1;
      util::ckpt::Writer w(std::move(image_));
      manifest_.save(w);
      image_ = w.finish();
      util::ckpt::Writer::save_atomic(
          util::ckpt::checkpoint_path(ckpt.dir, ckpt.basename, e + 1),
          image_);
      util::ckpt::prune(ckpt.dir, ckpt.basename, ckpt.keep_last);
    }
    if (options_.on_epoch) options_.on_epoch(e);
  }
}

void run_resumable(const LoopOptions& options, std::string_view who,
                   const std::function<void(const std::string&)>& attempt) {
  const util::ckpt::Options& ckpt = options.checkpoint;
  std::string resume = ckpt.resume_from;
  if (resume.empty() && ckpt.resume_latest && !ckpt.dir.empty()) {
    resume = util::ckpt::latest_in(ckpt.dir, ckpt.basename);
  }
  if (!resume.empty()) {
    try {
      attempt(resume);
      return;
    } catch (const util::ckpt::CkptError& err) {
      TMPROF_LOG_WARN << who << ": checkpoint '" << resume
                      << "' rejected in section '" << err.section()
                      << "': " << err.what() << "; starting cold";
    }
  }
  attempt("");
}

}  // namespace tmprof::tiering
