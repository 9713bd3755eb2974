#include "sim/trace_io.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/config.hpp"

namespace tmprof::sim {

namespace {
constexpr std::size_t kBufferRecords = 4096;
constexpr char kMagic[8] = {'t', 'm', 'p', 't', 'r', 'c', '0', '1'};
}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : out_(path, std::ios::binary) {
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path);
  out_.write(kMagic, sizeof(kMagic));
  buffer_.reserve(kBufferRecords);
}

TraceWriter::~TraceWriter() { flush(); }

void TraceWriter::on_mem_op(const monitors::MemOpEvent& event) {
  TraceRecord rec{};
  rec.time = event.time;
  rec.vaddr = event.vaddr;
  rec.paddr = event.paddr;
  rec.pid = event.pid;
  // System publishes the workload's u32 ip; the record keeps 32 bits.
  rec.ip = static_cast<std::uint32_t>(event.ip);
  rec.core = static_cast<std::uint8_t>(event.core);
  rec.is_store = event.is_store ? 1 : 0;
  rec.source = static_cast<std::uint8_t>(event.source);
  rec.tlb = static_cast<std::uint8_t>(event.tlb);
  rec.page_size = static_cast<std::uint8_t>(event.page_size);
  buffer_.push_back(rec);
  ++records_;
  if (buffer_.size() >= kBufferRecords) flush();
}

void TraceWriter::flush() {
  if (buffer_.empty()) return;
  out_.write(reinterpret_cast<const char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size() *
                                          sizeof(TraceRecord)));
  buffer_.clear();
}

TraceReplayer::TraceReplayer(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("TraceReplayer: cannot open " + path);
  char magic[sizeof(kMagic)];
  in_.read(magic, sizeof(magic));
  if (in_.gcount() != sizeof(magic) ||
      !std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    throw std::runtime_error("TraceReplayer: bad trace header in " + path);
  }
}

void TraceReplayer::add_observer(monitors::AccessObserver* observer) {
  observers_.push_back(observer);
}

std::uint64_t TraceReplayer::replay(std::uint64_t max_records) {
  std::uint64_t replayed = 0;
  TraceRecord rec;
  while (max_records == 0 || replayed < max_records) {
    in_.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (in_.gcount() == 0) break;
    if (in_.gcount() != sizeof(rec)) {
      throw std::runtime_error("TraceReplayer: truncated record");
    }
    monitors::MemOpEvent event;
    event.time = rec.time;
    event.core = rec.core;
    event.pid = rec.pid;
    event.ip = rec.ip;
    event.vaddr = rec.vaddr;
    event.paddr = rec.paddr;
    event.is_store = rec.is_store != 0;
    event.source = static_cast<mem::DataSource>(rec.source);
    event.tlb = static_cast<mem::TlbHit>(rec.tlb);
    event.page_size = static_cast<mem::PageSize>(rec.page_size);
    for (monitors::AccessObserver* obs : observers_) {
      obs->on_retire(event.core, kUopsPerOp, event.time);
      obs->on_mem_op(event);
    }
    ++replayed;
  }
  return replayed;
}

}  // namespace tmprof::sim
