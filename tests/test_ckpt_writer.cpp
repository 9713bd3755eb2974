/// Differential tests for util::ckpt::Writer: the offset + memcpy writer,
/// its bulk extend() path and its recycled image buffer must produce the
/// same bytes as the per-byte push_back writer it replaced, which is kept
/// here as the reference model.

#include "util/ckpt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "mem/cache.hpp"
#include "mem/pte.hpp"
#include "mem/tlb.hpp"
#include "util/rng.hpp"

namespace tmprof::util::ckpt {
namespace {

namespace reference {

/// The writer before the memcpy rewrite: every fixed-width value is
/// push_back'd one byte at a time into a buffer built fresh per image.
class Writer {
 public:
  Writer() {
    buffer_.reserve(4096);
    for (const char c : kMagic) buffer_.push_back(static_cast<std::uint8_t>(c));
    put_le(kFormatVersion);
  }

  void begin_section(std::string_view name) {
    put_le(static_cast<std::uint32_t>(name.size()));
    buffer_.insert(buffer_.end(), name.begin(), name.end());
    put_le(static_cast<std::uint64_t>(0));
    section_start_ = buffer_.size();
    in_section_ = true;
  }
  void end_section() {
    const std::size_t payload = buffer_.size() - section_start_;
    const std::size_t len_slot = section_start_ - sizeof(std::uint64_t);
    for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
      buffer_[len_slot + i] =
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(payload) >>
                                    (8 * i));
    }
    put_le(crc32(buffer_.data() + section_start_, payload));
    in_section_ = false;
  }

  void put_u8(std::uint8_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }
  void put_str(std::string_view s) {
    put_le(static_cast<std::uint32_t>(s.size()));
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  void put_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  std::vector<std::uint8_t> finish() {
    if (in_section_) end_section();
    return std::move(buffer_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buffer_;
  std::size_t section_start_ = 0;
  bool in_section_ = false;
};

}  // namespace reference

// ---------------------------------------------------------------------------
// Scripts: one seeded sequence of writes, replayed on both writers.

struct U8 { std::uint8_t v; };
struct U32 { std::uint32_t v; };
struct U64 { std::uint64_t v; };
struct I64 { std::int64_t v; };
struct Bool { bool v; };
struct F64 { double v; };
struct Str { std::string v; };
struct Bytes { std::vector<std::uint8_t> v; };
struct Begin { std::string name; };
struct End {};
/// A cache-way-shaped record array: the new writer packs it through one
/// extend(), the reference writes it field by field with put_*.
struct Record {
  std::uint64_t a, b;
  bool x, y;
};
struct Bulk { std::vector<Record> v; };

using Op = std::variant<U8, U32, U64, I64, Bool, F64, Str, Bytes, Begin, End,
                        Bulk>;

template <class W>
void apply(W& w, const Op& op) {
  struct Visitor {
    W& w;
    void operator()(const U8& o) { w.put_u8(o.v); }
    void operator()(const U32& o) { w.put_u32(o.v); }
    void operator()(const U64& o) { w.put_u64(o.v); }
    void operator()(const I64& o) { w.put_i64(o.v); }
    void operator()(const Bool& o) { w.put_bool(o.v); }
    void operator()(const F64& o) { w.put_f64(o.v); }
    void operator()(const Str& o) { w.put_str(o.v); }
    void operator()(const Bytes& o) { w.put_bytes(o.v.data(), o.v.size()); }
    void operator()(const Begin& o) { w.begin_section(o.name); }
    void operator()(const End&) { w.end_section(); }
    void operator()(const Bulk& o) {
      if constexpr (std::is_same_v<W, Writer>) {
        std::uint8_t* at = w.extend(o.v.size() * 18);
        for (const Record& r : o.v) {
          pack_le(at, r.a);
          pack_le(at, r.b);
          pack_le(at, static_cast<std::uint8_t>(r.x));
          pack_le(at, static_cast<std::uint8_t>(r.y));
        }
      } else {
        for (const Record& r : o.v) {
          w.put_u64(r.a);
          w.put_u64(r.b);
          w.put_bool(r.x);
          w.put_bool(r.y);
        }
      }
    }
  };
  std::visit(Visitor{w}, op);
}

template <class W>
std::vector<std::uint8_t> run(W w, const std::vector<Op>& script) {
  for (const Op& op : script) apply(w, op);
  return w.finish();
}

std::vector<std::uint8_t> reference_image(const std::vector<Op>& script) {
  return run(reference::Writer{}, script);
}

/// A random script of roughly `budget` payload bytes. Every write sits in a
/// uniquely named section, so Reader can read the image back; the last
/// section is sometimes left open for finish() to seal.
std::vector<Op> random_script(std::uint64_t seed, std::size_t budget) {
  Rng rng(seed);
  std::vector<Op> script;
  std::size_t bytes = 0;
  std::uint32_t sections = 0;
  bool open = false;
  while (bytes < budget) {
    if (!open || rng.below(40) == 0) {
      if (open) script.emplace_back(End{});
      script.emplace_back(Begin{std::to_string(sections++)});
      open = true;
      continue;
    }
    switch (rng.below(10)) {
      case 0:
        script.emplace_back(U8{static_cast<std::uint8_t>(rng())});
        bytes += 1;
        break;
      case 1:
        script.emplace_back(U32{static_cast<std::uint32_t>(rng())});
        bytes += 4;
        break;
      case 2:
        script.emplace_back(U64{rng()});
        bytes += 8;
        break;
      case 3:
        script.emplace_back(I64{static_cast<std::int64_t>(rng())});
        bytes += 8;
        break;
      case 4:
        script.emplace_back(Bool{rng.below(2) == 0});
        bytes += 1;
        break;
      case 5: {
        std::uint64_t bits = rng();
        double v = 0;
        std::memcpy(&v, &bits, sizeof v);  // any pattern, NaNs included
        script.emplace_back(F64{v});
        bytes += 8;
        break;
      }
      case 6: {
        std::string s(rng.below(40), '\0');
        for (char& c : s) c = static_cast<char>('a' + rng.below(26));
        bytes += 4 + s.size();
        script.emplace_back(Str{std::move(s)});
        break;
      }
      case 7: {
        // Occasionally large, so one write jumps several growth steps.
        std::vector<std::uint8_t> b(rng.below(8) == 0 ? rng.below(20000)
                                                      : rng.below(64));
        for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng());
        bytes += b.size();
        script.emplace_back(Bytes{std::move(b)});
        break;
      }
      default: {
        std::vector<Record> recs(rng.below(300));
        for (Record& r : recs) {
          r = {rng(), rng(), rng.below(2) == 0, rng.below(2) == 0};
        }
        bytes += recs.size() * 18;
        script.emplace_back(Bulk{std::move(recs)});
        break;
      }
    }
  }
  if (open && rng.below(2) == 0) script.emplace_back(End{});
  return script;
}

/// Reads `image` back with Reader and checks every value `script` wrote.
void expect_reads_back(Reader r, const std::vector<Op>& script) {
  struct Visitor {
    Reader& r;
    void operator()(const U8& o) { EXPECT_EQ(r.get_u8(), o.v); }
    void operator()(const U32& o) { EXPECT_EQ(r.get_u32(), o.v); }
    void operator()(const U64& o) { EXPECT_EQ(r.get_u64(), o.v); }
    void operator()(const I64& o) { EXPECT_EQ(r.get_i64(), o.v); }
    void operator()(const Bool& o) { EXPECT_EQ(r.get_bool(), o.v); }
    void operator()(const F64& o) {
      const double got = r.get_f64();
      EXPECT_EQ(std::memcmp(&got, &o.v, sizeof got), 0);
    }
    void operator()(const Str& o) { EXPECT_EQ(r.get_str(), o.v); }
    void operator()(const Bytes& o) {
      std::vector<std::uint8_t> got(o.v.size());
      if (!got.empty()) r.get_bytes(got.data(), got.size());
      EXPECT_EQ(got, o.v);
    }
    void operator()(const Begin& o) { r.enter_section(o.name); }
    void operator()(const End&) { r.end_section(); }
    void operator()(const Bulk& o) {
      for (const Record& rec : o.v) {
        EXPECT_EQ(r.get_u64(), rec.a);
        EXPECT_EQ(r.get_u64(), rec.b);
        EXPECT_EQ(r.get_bool(), rec.x);
        EXPECT_EQ(r.get_bool(), rec.y);
      }
    }
  };
  Visitor visitor{r};
  for (const Op& op : script) std::visit(visitor, op);
  r.end_section();
}

TEST(CkptWriter, RandomScriptsMatchPerByteReference) {
  // Budgets from empty to past 64 KiB: every script crosses the first
  // growth boundaries at its own offsets.
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Op> script = random_script(seed, (seed * 997) % 70000);
    const std::vector<std::uint8_t> want = reference_image(script);
    const std::vector<std::uint8_t> got = run(Writer{}, script);
    ASSERT_EQ(got, want);
    expect_reads_back(Reader(got), script);
  }
}

TEST(CkptWriter, EveryWidthStraddlesEveryGrowthBoundary) {
  // The fresh image starts at 4 KiB and doubles; put each fixed width so
  // its bytes land on both sides of each boundary.
  for (std::size_t boundary = 4096; boundary <= (1U << 17); boundary *= 2) {
    for (std::size_t width : {1U, 4U, 8U}) {
      for (std::size_t before = 0; before < width; ++before) {
        SCOPED_TRACE(::testing::Message() << boundary << "/" << width << "/"
                                          << before);
        reference::Writer probe;
        probe.begin_section("pad");
        std::vector<Op> script{Begin{"pad"}};
        // Pad in chunks smaller than the first step, so the image doubles
        // through every boundary below this one on the way.
        for (std::size_t left = boundary - before - probe.size(); left != 0;) {
          const std::size_t chunk = std::min<std::size_t>(left, 1000);
          script.emplace_back(Bytes{std::vector<std::uint8_t>(chunk, 0x5a)});
          left -= chunk;
        }
        if (width == 1) script.emplace_back(U8{0xc3});
        if (width == 4) script.emplace_back(U32{0x89abcdefU});
        if (width == 8) script.emplace_back(U64{0x0123456789abcdefULL});
        script.emplace_back(U64{0xfeedfacecafebeefULL});
        ASSERT_EQ(run(Writer{}, script), reference_image(script));
      }
    }
  }
}

TEST(CkptWriter, RecycledLargerImageLeaksNoStaleBytes) {
  // A 96 KiB image of 0xee bytes, then shorter scripts written into its
  // storage: nothing past each new image's end may survive.
  std::vector<std::uint8_t> recycled = run(
      Writer{}, {Begin{"big"}, Bytes{std::vector<std::uint8_t>(96 << 10, 0xee)}});
  const std::size_t capacity = recycled.capacity();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Op> script = random_script(1000 + seed, seed * 1500);
    const std::vector<std::uint8_t> want = reference_image(script);
    std::vector<std::uint8_t> got = run(Writer(std::move(recycled)), script);
    ASSERT_EQ(got, want);
    EXPECT_EQ(got.capacity(), capacity) << "the recycled image reallocated";
    recycled = std::move(got);
  }
  // Storage with capacity but no size, and a recycled image smaller than
  // the next one, which must grow.
  std::vector<std::uint8_t> emptied = std::move(recycled);
  emptied.clear();
  const std::vector<Op> script = random_script(7, 150000);
  EXPECT_EQ(run(Writer(std::move(emptied)), script), reference_image(script));
  EXPECT_EQ(run(Writer(run(Writer{}, random_script(8, 10))), script),
            reference_image(script));
  EXPECT_EQ(run(Writer(std::vector<std::uint8_t>{}), script),
            reference_image(script));
}

TEST(CkptWriter, ImageGrowingWithinHeldCapacityDoesNotReallocate) {
  // A run's image grows a little every epoch. Once the recycled storage
  // holds enough, writing a slightly larger image must stay in it.
  std::vector<std::uint8_t> image = run(
      Writer{}, {Begin{"big"}, Bytes{std::vector<std::uint8_t>(64 << 10, 1)}});
  const std::size_t capacity = image.capacity();
  for (std::size_t size = capacity * 6 / 10; size + 1024 < capacity;
       size += capacity / 50) {
    SCOPED_TRACE(size);
    const std::vector<Op> script{
        Begin{"grow"}, Bytes{std::vector<std::uint8_t>(size, 2)}, U64{size}};
    image = run(Writer(std::move(image)), script);
    ASSERT_EQ(image, reference_image(script));
    EXPECT_EQ(image.capacity(), capacity);
  }
}

// ---------------------------------------------------------------------------
// The bulk cache-way and TLB-entry packers against per-field put_* calls.

TEST(CkptWriter, BulkCacheWaysMatchPerFieldPuts) {
  Rng rng(11);
  const std::pair<std::uint32_t, std::uint32_t> geometries[] = {
      {1, 1}, {1, 16}, {4, 3}, {64, 8}, {512, 16}};
  for (const auto& [sets, ways] : geometries) {
    SCOPED_TRACE(::testing::Message() << sets << "x" << ways);
    reference::Writer w;
    w.begin_section("cache");
    w.put_u32(sets);
    w.put_u32(ways);
    w.put_u64(rng());  // tick
    w.put_u64(rng());  // dirty evictions
    for (std::uint32_t i = 0; i < sets * ways; ++i) {
      w.put_u64(rng());
      w.put_u64(rng());
      w.put_bool(rng.below(2) == 0);
      w.put_bool(rng.below(2) == 0);
    }
    const std::vector<std::uint8_t> want = w.finish();

    mem::CacheLevel level(std::uint64_t{sets} * ways * mem::kLineSize, ways);
    Reader r(want);
    r.enter_section("cache");
    level.load_state(r);
    r.end_section();
    Writer got;
    got.begin_section("cache");
    level.save_state(got);
    EXPECT_EQ(got.finish(), want);
  }
}

TEST(CkptWriter, BulkTlbEntriesMatchPerFieldPuts) {
  Rng rng(12);
  mem::Pte pte;
  const mem::TlbArray::PteResolver resolve =
      [&pte](mem::Pid, mem::Vpn, mem::PageSize) { return &pte; };
  const std::pair<std::uint32_t, std::uint32_t> geometries[] = {
      {1, 1}, {1, 4}, {16, 4}, {128, 12}};
  for (const auto& [sets, ways] : geometries) {
    SCOPED_TRACE(::testing::Message() << sets << "x" << ways);
    reference::Writer w;
    w.begin_section("tlb");
    w.put_u32(sets);
    w.put_u32(ways);
    w.put_u64(rng());  // tick
    for (std::uint32_t i = 0; i < sets * ways; ++i) {
      w.put_u64(static_cast<mem::Pid>(rng()));
      w.put_u64(rng());
      w.put_bool(rng.below(2) == 0);
      w.put_bool(rng.below(2) == 0);
      w.put_u64(rng());
    }
    const std::vector<std::uint8_t> want = w.finish();

    mem::TlbArray array(sets, ways, mem::PageSize::k4K);
    Reader r(want);
    r.enter_section("tlb");
    array.load_state(r, resolve);
    r.end_section();
    Writer got;
    got.begin_section("tlb");
    array.save_state(got);
    EXPECT_EQ(got.finish(), want);
  }
}

}  // namespace
}  // namespace tmprof::util::ckpt
