#include "src/kv/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace blockhead {

namespace {

constexpr std::uint64_t kTableMagic = 0x31424154534E5A42ULL;  // "BZNSTAB1"
constexpr std::size_t kFooterBytes = 48;

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}
std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void EncodeU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void EncodeU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
void CopyBytes(std::uint8_t* p, std::string_view s) {
  if (!s.empty()) {
    std::memcpy(p, s.data(), s.size());
  }
}

// Data-block entry framing: key_len u16 | key | type u8 | value_len u32 | value.
constexpr std::size_t kEntryHeaderBytes = 7;
// Index entry framing: offset u64 | size u32 | last_key_len u16 | last_key.
constexpr std::size_t kIndexHeaderBytes = 14;

// Decodes one data block in place, calling fn(const KvEntryRef&) for each entry in order. The
// framing of every entry is checked, and a remainder too short to hold an entry is corruption,
// not a clean end of block.
template <typename Fn>
Status ForEachEntry(std::span<const std::uint8_t> block, Fn&& fn) {
  const std::size_t size = block.size();
  std::size_t pos = 0;
  while (pos < size) {
    if (size - pos < kEntryHeaderBytes) {
      return Status(ErrorCode::kCorruption, "truncated entry header");
    }
    const std::uint16_t klen = GetU16(block.data() + pos);
    pos += 2;
    if (size - pos < klen + 5u) {
      return Status(ErrorCode::kCorruption, "truncated entry key");
    }
    KvEntryRef entry;
    entry.key = std::string_view(reinterpret_cast<const char*>(block.data() + pos), klen);
    pos += klen;
    entry.type = static_cast<KvEntryType>(block[pos]);
    pos += 1;
    const std::uint32_t vlen = GetU32(block.data() + pos);
    pos += 4;
    if (size - pos < vlen) {
      return Status(ErrorCode::kCorruption, "truncated entry value");
    }
    entry.value = std::string_view(reinterpret_cast<const char*>(block.data() + pos), vlen);
    pos += vlen;
    fn(entry);
  }
  return Status::Ok();
}

}  // namespace

// --- BloomFilter ---

BloomHash BloomHash::Of(std::string_view key) {
  // Two FNV-1a 64-bit hashes that differ only in their seed, computed in one pass.
  std::uint64_t h1 = 1469598103934665603ULL;
  std::uint64_t h2 = 1469598103934665603ULL ^ 0x9E3779B97F4A7C15ULL;
  for (const char c : key) {
    const auto byte = static_cast<std::uint8_t>(c);
    h1 = (h1 ^ byte) * 1099511628211ULL;
    h2 = (h2 ^ byte) * 1099511628211ULL;
  }
  return BloomHash{h1, h2 | 1};
}

BloomFilter BloomFilter::Build(std::span<const BloomHash> hashes, std::uint32_t bits_per_key) {
  BloomFilter f;
  if (hashes.empty() || bits_per_key == 0) {
    return f;
  }
  f.bit_count_ =
      static_cast<std::uint32_t>(std::max<std::size_t>(64, hashes.size() * bits_per_key));
  // k = bits_per_key * ln2, clamped.
  f.k_ = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(static_cast<double>(bits_per_key) * 0.69), 1, 16);
  f.bits_.assign((f.bit_count_ + 7) / 8, 0);
  for (const BloomHash& h : hashes) {
    for (std::uint32_t i = 0; i < f.k_; ++i) {
      const std::uint64_t bit = (h.h1 + i * h.h2) % f.bit_count_;
      f.bits_[bit / 8] |= static_cast<std::uint8_t>(1U << (bit % 8));
    }
  }
  return f;
}

BloomFilter BloomFilter::Build(const std::vector<std::string>& keys,
                               std::uint32_t bits_per_key) {
  std::vector<BloomHash> hashes;
  hashes.reserve(keys.size());
  for (const std::string& key : keys) {
    hashes.push_back(BloomHash::Of(key));
  }
  return Build(hashes, bits_per_key);
}

bool BloomFilter::MayContain(std::string_view key) const {
  if (bit_count_ == 0) {
    return true;  // No filter -> cannot exclude.
  }
  const BloomHash h = BloomHash::Of(key);
  for (std::uint32_t i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h.h1 + i * h.h2) % bit_count_;
    if (!(bits_[bit / 8] & (1U << (bit % 8)))) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> BloomFilter::Serialize() const {
  std::vector<std::uint8_t> out;
  PutU32(out, bit_count_);
  PutU32(out, k_);
  out.insert(out.end(), bits_.begin(), bits_.end());
  return out;
}

Result<BloomFilter> BloomFilter::Deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) {
    return Status(ErrorCode::kCorruption, "bloom too short");
  }
  BloomFilter f;
  f.bit_count_ = GetU32(bytes.data());
  f.k_ = GetU32(bytes.data() + 4);
  const std::size_t expect = (f.bit_count_ + 7) / 8;
  if (bytes.size() != 8 + expect) {
    return Status(ErrorCode::kCorruption, "bloom size mismatch");
  }
  f.bits_.assign(bytes.begin() + 8, bytes.end());
  return f;
}

// --- SSTableBuilder ---

SSTableBuilder::SSTableBuilder(Env* env, std::string name, const SSTableBuilderOptions& options)
    : env_(env), name_(std::move(name)), options_(options) {}

Status SSTableBuilder::Start(SimTime now) {
  Result<SimTime> created = env_->CreateFile(name_, options_.hint, now);
  if (!created.ok()) {
    return created.status();
  }
  last_write_ = created.value();
  started_ = true;
  return Status::Ok();
}

Status SSTableBuilder::FlushBlock(SimTime now) {
  if (block_.empty()) {
    return Status::Ok();
  }
  // Self-chain on the previous block's completion: table writes are a single QD-1 stream
  // (like a rate-limited compaction), not a burst booked at one instant — so foreground reads
  // can interleave on the device.
  Result<SimTime> appended = env_->Append(name_, block_, std::max(now, last_write_));
  if (!appended.ok()) {
    return appended.status();
  }
  last_write_ = std::max(last_write_, appended.value());
  PutU64(index_, offset_);
  PutU32(index_, static_cast<std::uint32_t>(block_.size()));
  PutU16(index_, static_cast<std::uint16_t>(largest_.size()));
  index_.insert(index_.end(), largest_.begin(), largest_.end());
  offset_ += block_.size();
  block_.clear();
  return Status::Ok();
}

Status SSTableBuilder::Add(std::string_view key, KvEntryType type, std::string_view value,
                           SimTime now) {
  assert(started_);
  assert(entry_count_ == 0 || key > largest_);
  if (entry_count_ == 0) {
    smallest_.assign(key);
  }
  largest_.assign(key);
  const std::size_t at = block_.size();
  block_.resize(at + kEntryHeaderBytes + key.size() + value.size());
  std::uint8_t* p = block_.data() + at;
  EncodeU16(p, static_cast<std::uint16_t>(key.size()));
  p += 2;
  CopyBytes(p, key);
  p += key.size();
  *p++ = static_cast<std::uint8_t>(type);
  EncodeU32(p, static_cast<std::uint32_t>(value.size()));
  p += 4;
  CopyBytes(p, value);
  key_hashes_.push_back(BloomHash::Of(key));
  entry_count_++;
  if (block_.size() >= options_.block_bytes) {
    return FlushBlock(now);
  }
  return Status::Ok();
}

Result<SimTime> SSTableBuilder::Finish(SimTime now) {
  assert(started_);
  BLOCKHEAD_RETURN_IF_ERROR(FlushBlock(now));

  // The tail is the index, then the bloom filter, then the footer.
  std::vector<std::uint8_t>& tail = index_;
  const std::uint64_t index_off = offset_;
  const std::uint64_t index_len = tail.size();

  const BloomFilter bloom = BloomFilter::Build(key_hashes_, options_.bloom_bits_per_key);
  const std::vector<std::uint8_t> bloom_bytes = bloom.Serialize();
  const std::uint64_t bloom_off = index_off + index_len;
  tail.insert(tail.end(), bloom_bytes.begin(), bloom_bytes.end());

  PutU64(tail, index_off);
  PutU64(tail, index_len);
  PutU64(tail, bloom_off);
  PutU64(tail, bloom_bytes.size());
  PutU64(tail, entry_count_);
  PutU64(tail, kTableMagic);

  Result<SimTime> appended = env_->Append(name_, tail, std::max(now, last_write_));
  if (!appended.ok()) {
    return appended;
  }
  offset_ += tail.size();
  Result<SimTime> synced = env_->Sync(name_, appended.value());
  if (!synced.ok()) {
    return synced;
  }
  last_write_ = std::max(last_write_, synced.value());
  return last_write_;
}

// --- SSTableReader ---

Result<std::unique_ptr<SSTableReader>> SSTableReader::Open(Env* env, std::string name,
                                                           SimTime now) {
  Result<std::uint64_t> size = env->FileSize(name);
  if (!size.ok()) {
    return size.status();
  }
  if (size.value() < kFooterBytes) {
    return Status(ErrorCode::kCorruption, "table smaller than footer");
  }
  std::vector<std::uint8_t> footer(kFooterBytes);
  Result<SimTime> r = env->Read(name, size.value() - kFooterBytes, footer, now);
  if (!r.ok()) {
    return r.status();
  }
  const std::uint64_t index_off = GetU64(footer.data());
  const std::uint64_t index_len = GetU64(footer.data() + 8);
  const std::uint64_t bloom_off = GetU64(footer.data() + 16);
  const std::uint64_t bloom_len = GetU64(footer.data() + 24);
  const std::uint64_t entry_count = GetU64(footer.data() + 32);
  const std::uint64_t magic = GetU64(footer.data() + 40);
  if (magic != kTableMagic || index_off + index_len > size.value()) {
    return Status(ErrorCode::kCorruption, "bad table footer");
  }

  auto reader = std::unique_ptr<SSTableReader>(new SSTableReader(env, std::move(name)));
  reader->entry_count_ = entry_count;

  std::vector<std::uint8_t> index_bytes(index_len);
  if (index_len > 0) {
    r = env->Read(reader->name_, index_off, index_bytes, now);
    if (!r.ok()) {
      return r.status();
    }
  }
  std::size_t pos = 0;
  while (pos < index_bytes.size()) {
    if (index_bytes.size() - pos < kIndexHeaderBytes) {
      return Status(ErrorCode::kCorruption, "truncated index entry header");
    }
    IndexEntry e;
    e.offset = GetU64(index_bytes.data() + pos);
    e.size = GetU32(index_bytes.data() + pos + 8);
    const std::uint16_t klen = GetU16(index_bytes.data() + pos + 12);
    pos += kIndexHeaderBytes;
    if (index_bytes.size() - pos < klen) {
      return Status(ErrorCode::kCorruption, "truncated index entry");
    }
    if (e.offset > index_off || e.size > index_off - e.offset) {
      return Status(ErrorCode::kCorruption, "index entry outside the data blocks");
    }
    e.last_key.assign(reinterpret_cast<const char*>(index_bytes.data() + pos), klen);
    pos += klen;
    reader->index_.push_back(std::move(e));
  }

  std::vector<std::uint8_t> bloom_bytes(bloom_len);
  if (bloom_len > 0) {
    r = env->Read(reader->name_, bloom_off, bloom_bytes, now);
    if (!r.ok()) {
      return r.status();
    }
    Result<BloomFilter> bloom = BloomFilter::Deserialize(bloom_bytes);
    if (!bloom.ok()) {
      return bloom.status();
    }
    reader->bloom_ = std::move(bloom).value();
  }
  return reader;
}

std::vector<SSTableReader::IndexEntry>::const_iterator SSTableReader::FindBlock(
    std::string_view key) const {
  return std::lower_bound(index_.begin(), index_.end(), key,
                          [](const IndexEntry& e, std::string_view k) {
                            return std::string_view(e.last_key) < k;
                          });
}

Result<SSTableReader::GetResult> SSTableReader::Get(std::string_view key, SimTime now) const {
  GetResult result;
  result.completion = now;
  if (!bloom_.MayContain(key)) {
    result.bloom_skipped = true;
    return result;
  }
  auto it = FindBlock(key);
  if (it == index_.end()) {
    return result;
  }
  std::vector<std::uint8_t> block(it->size);
  Result<SimTime> r = env_->Read(name_, it->offset, block, now);
  if (!r.ok()) {
    return r.status();
  }
  result.completion = r.value();
  // The whole block is decoded even after the key is found, so a corrupt tail fails the
  // lookup rather than going unnoticed.
  BLOCKHEAD_RETURN_IF_ERROR(ForEachEntry(block, [&](const KvEntryRef& e) {
    if (!result.found && e.key == key) {
      result.found = true;
      result.type = e.type;
      result.value.assign(e.value);
    }
  }));
  return result;
}

Result<std::vector<KvEntry>> SSTableReader::ScanFrom(std::string_view start_key,
                                                     std::size_t limit, SimTime now,
                                                     SimTime* completion) const {
  std::vector<KvEntry> out;
  SimTime done = now;
  std::vector<std::uint8_t> block;
  // First block whose last_key >= start_key; every later block may also contain matches.
  for (auto it = FindBlock(start_key); it != index_.end() && out.size() < limit; ++it) {
    block.resize(it->size);
    Result<SimTime> r = env_->Read(name_, it->offset, block, now);
    if (!r.ok()) {
      return r.status();
    }
    done = std::max(done, r.value());
    BLOCKHEAD_RETURN_IF_ERROR(ForEachEntry(block, [&](const KvEntryRef& e) {
      if (out.size() < limit && e.key >= start_key) {
        out.push_back(KvEntry{std::string(e.key), e.type, std::string(e.value)});
      }
    }));
  }
  if (completion != nullptr) {
    *completion = done;
  }
  return out;
}

Result<SSTableContents> SSTableReader::ReadAll(SimTime now, SimTime* completion) const {
  SSTableContents contents;
  std::size_t data_bytes = 0;
  for (const IndexEntry& e : index_) {
    data_bytes += e.size;
  }
  contents.bytes.resize(data_bytes);
  contents.entries.reserve(std::min<std::uint64_t>(entry_count_, data_bytes / kEntryHeaderBytes));
  SimTime done = now;
  std::size_t at = 0;
  for (const IndexEntry& e : index_) {
    const std::span<std::uint8_t> block(contents.bytes.data() + at, e.size);
    at += e.size;
    Result<SimTime> r = env_->Read(name_, e.offset, block, now);
    if (!r.ok()) {
      return r.status();
    }
    done = std::max(done, r.value());
    BLOCKHEAD_RETURN_IF_ERROR(ForEachEntry(
        block, [&contents](const KvEntryRef& entry) { contents.entries.push_back(entry); }));
  }
  if (completion != nullptr) {
    *completion = done;
  }
  return contents;
}

}  // namespace blockhead
