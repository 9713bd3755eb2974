#include "util/ckpt.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

#include "util/assert.hpp"

namespace tmprof::util::ckpt {

namespace {

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table for the
/// reflected IEEE polynomial; `t[k][i]` is the CRC of byte `i` followed by
/// `k` zero bytes, so eight table lookups advance the CRC by eight bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();

/// Little-endian u32 from four bytes, independent of host byte order.
constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

constexpr const char* kHeaderSection = "<header>";
constexpr const char* kIoSection = "<io>";

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffU;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^
        t[5][(lo >> 16) & 0xffU] ^ t[4][lo >> 24] ^ t[3][hi & 0xffU] ^
        t[2][(hi >> 8) & 0xffU] ^ t[1][(hi >> 16) & 0xffU] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

// ---------------------------------------------------------------------------
// Writer

Writer::Writer() : Writer(std::vector<std::uint8_t>(4096)) {}

Writer::Writer(std::vector<std::uint8_t> recycled)
    : buffer_(std::move(recycled)) {
  put_bytes(kMagic, sizeof(kMagic));
  put_le(kFormatVersion);
}

void Writer::grow(std::size_t n) {
  // Double, but stop at the capacity a recycled image already holds:
  // filling that reallocates nothing.
  const std::size_t need = size_ + n;
  std::size_t target = std::max(need, 2 * buffer_.size());
  if (need <= buffer_.capacity()) {
    target = std::min(target, buffer_.capacity());
  }
  buffer_.resize(target);
}

void Writer::begin_section(std::string_view name) {
  TMPROF_EXPECTS(!in_section_);
  TMPROF_EXPECTS(!name.empty());
  section_name_.assign(name);
  put_str(name);
  // Payload length back-patched in end_section(); reserve the slot now.
  put_le(static_cast<std::uint64_t>(0));
  section_start_ = size_;
  in_section_ = true;
}

void Writer::end_section() {
  TMPROF_EXPECTS(in_section_);
  const std::size_t payload = size_ - section_start_;
  std::uint8_t* len_slot =
      buffer_.data() + section_start_ - sizeof(std::uint64_t);
  pack_le(len_slot, static_cast<std::uint64_t>(payload));
  put_le(crc32(buffer_.data() + section_start_, payload));
  in_section_ = false;
}

void Writer::put_str(std::string_view s) {
  put_le(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void Writer::put_bytes(const void* data, std::size_t size) {
  if (size != 0) std::memcpy(extend(size), data, size);
}

std::vector<std::uint8_t> Writer::finish() {
  if (in_section_) end_section();
  buffer_.resize(size_);
  size_ = 0;
  return std::move(buffer_);
}

void Writer::save_atomic(const std::string& path,
                         const std::vector<std::uint8_t>& image) {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw CkptError(kIoSection, "cannot open '" + tmp + "' for writing");
    }
    const std::size_t written =
        image.empty() ? 0 : std::fwrite(image.data(), 1, image.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != image.size() || !flushed) {
      std::remove(tmp.c_str());
      throw CkptError(kIoSection, "short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw CkptError(kIoSection,
                    "rename '" + tmp + "' -> '" + path + "': " + ec.message());
  }
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::vector<std::uint8_t> image) : image_(std::move(image)) {
  current_ = kHeaderSection;
  if (image_.size() < kHeaderSize) {
    throw CkptError(kHeaderSection, "file too small for header (" +
                                        std::to_string(image_.size()) +
                                        " bytes)");
  }
  if (std::memcmp(image_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CkptError(kHeaderSection, "bad magic (not a tmprof checkpoint)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, image_.data() + sizeof(kMagic), sizeof(version));
  if (version != kFormatVersion) {
    throw CkptError(kHeaderSection,
                    "format version " + std::to_string(version) +
                        " != supported " + std::to_string(kFormatVersion));
  }

  // Walk and validate every section frame before serving any reads: a
  // truncated or bit-flipped file must be rejected wholesale, never
  // half-loaded.
  std::size_t pos = kHeaderSize;
  cursor_ = pos;
  section_end_ = image_.size();
  while (pos < image_.size()) {
    cursor_ = pos;
    const std::uint32_t name_len = get_le<std::uint32_t>();
    if (name_len == 0 || name_len > 4096 ||
        name_len > image_.size() - cursor_) {
      throw CkptError(sections_.empty() ? kHeaderSection
                                        : sections_.back().name,
                      "corrupt section frame after offset " +
                          std::to_string(pos));
    }
    std::string name(reinterpret_cast<const char*>(image_.data() + cursor_),
                     name_len);
    cursor_ += name_len;
    current_ = name;
    const std::uint64_t payload_len = get_le<std::uint64_t>();
    if (payload_len > image_.size() - cursor_) {
      throw CkptError(name, "truncated: payload needs " +
                                std::to_string(payload_len) +
                                " bytes, file has " +
                                std::to_string(image_.size() - cursor_));
    }
    const std::size_t payload_off = cursor_;
    cursor_ += static_cast<std::size_t>(payload_len);
    if (image_.size() - cursor_ < sizeof(std::uint32_t)) {
      throw CkptError(name, "truncated: missing checksum");
    }
    const std::uint32_t stored = get_le<std::uint32_t>();
    const std::uint32_t computed =
        crc32(image_.data() + payload_off, static_cast<std::size_t>(payload_len));
    if (stored != computed) {
      throw CkptError(name, "checksum mismatch (corrupt payload)");
    }
    sections_.push_back(
        {std::move(name), payload_off, static_cast<std::size_t>(payload_len)});
    pos = cursor_;
  }
  current_.clear();
  cursor_ = 0;
  section_end_ = 0;
}

Reader Reader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CkptError(kIoSection, "cannot open '" + path + "'");
  }
  // Size the image once from the file's length, then read it in one call.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::vector<std::uint8_t> image;
  bool read_error = static_cast<bool>(ec);
  if (!read_error) {
    image.resize(static_cast<std::size_t>(size));
    read_error = !image.empty() &&
                 std::fread(image.data(), 1, image.size(), f) != image.size();
  }
  std::fclose(f);
  if (read_error) {
    throw CkptError(kIoSection, "read error on '" + path + "'");
  }
  return Reader(std::move(image));
}

bool Reader::has_section(std::string_view name) const {
  return find(name) != nullptr;
}

void Reader::enter_section(std::string_view name) {
  const Section* s = find(name);
  if (s == nullptr) {
    throw CkptError(std::string(name), "section missing from checkpoint");
  }
  current_ = s->name;
  cursor_ = s->offset;
  section_end_ = s->offset + s->size;
}

void Reader::end_section() {
  if (cursor_ != section_end_) {
    throw CkptError(current_,
                    std::to_string(section_end_ - cursor_) +
                        " unread trailing bytes (writer/reader skew)");
  }
}

bool Reader::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) {
    throw CkptError(current_, "bool encoded as " + std::to_string(v));
  }
  return v != 0;
}

std::string Reader::get_str() {
  const std::uint32_t len = get_le<std::uint32_t>();
  require(len);
  std::string s(reinterpret_cast<const char*>(image_.data() + cursor_), len);
  cursor_ += len;
  return s;
}

void Reader::get_bytes(void* out, std::size_t size) {
  require(size);
  std::memcpy(out, image_.data() + cursor_, size);
  cursor_ += size;
}

std::vector<std::string> Reader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

void Reader::require(std::size_t bytes) {
  if (bytes > section_end_ - cursor_) {
    throw CkptError(current_.empty() ? kHeaderSection : current_,
                    "read of " + std::to_string(bytes) +
                        " bytes overruns section (only " +
                        std::to_string(section_end_ - cursor_) + " left)");
  }
}

const Reader::Section* Reader::find(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Manifest

void Manifest::add(Participant participant) {
  TMPROF_EXPECTS(!participant.name.empty() && participant.save &&
                 participant.load);
  participants_.push_back(std::move(participant));
}

void Manifest::save(Writer& w) const {
  for (const Participant& p : participants_) {
    w.begin_section(p.name);
    const bool present = !p.present || p.present();
    if (p.present) w.put_bool(present);
    if (present) p.save(w);
    w.end_section();
  }
}

void Manifest::load(Reader& r) const {
  const std::vector<std::string> names = r.section_names();
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    const Participant& p = participants_[i];
    if (i >= names.size() || names[i] != p.name) {
      throw CkptError(p.name, "section missing or out of order");
    }
    r.enter_section(p.name);
    const bool present = !p.present || p.present();
    if (p.present && r.get_bool() != present) {
      throw CkptError(p.name, "presence mismatch");
    }
    if (present) p.load(r);
    r.end_section();
  }
  if (names.size() > participants_.size()) {
    throw CkptError(names[participants_.size()], "unexpected section");
  }
}

// ---------------------------------------------------------------------------
// Checkpoint directory management

namespace {

constexpr const char* kExtension = ".tmck";

/// Parse "<basename>-e<digits>.tmck"; returns epoch or npos-like failure.
bool parse_epoch(const std::string& filename, const std::string& basename,
                 std::uint32_t* epoch) {
  const std::string prefix = basename + "-e";
  if (filename.size() <= prefix.size() + std::strlen(kExtension)) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - std::strlen(kExtension),
                       std::strlen(kExtension), kExtension) != 0) {
    return false;
  }
  const std::string digits = filename.substr(
      prefix.size(),
      filename.size() - prefix.size() - std::strlen(kExtension));
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffULL) return false;
  }
  *epoch = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

std::string checkpoint_path(const std::string& dir, const std::string& basename,
                            std::uint32_t epoch) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08u", epoch);
  return dir + "/" + basename + "-e" + buf + kExtension;
}

std::string latest_in(const std::string& dir, const std::string& basename) {
  std::error_code ec;
  std::uint32_t best_epoch = 0;
  std::string best;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint32_t epoch = 0;
    const std::string filename = entry.path().filename().string();
    if (!parse_epoch(filename, basename, &epoch)) continue;
    if (best.empty() || epoch > best_epoch) {
      best_epoch = epoch;
      best = entry.path().string();
    }
  }
  return best;
}

void prune(const std::string& dir, const std::string& basename,
           std::uint32_t keep_last) {
  std::error_code ec;
  std::vector<std::pair<std::uint32_t, std::filesystem::path>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint32_t epoch = 0;
    if (parse_epoch(entry.path().filename().string(), basename, &epoch)) {
      found.emplace_back(epoch, entry.path());
    }
  }
  if (found.size() <= keep_last) return;
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = keep_last; i < found.size(); ++i) {
    std::filesystem::remove(found[i].second, ec);
  }
}

}  // namespace tmprof::util::ckpt
