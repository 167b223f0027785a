#ifndef MOPE_STORAGE_PAGE_H_
#define MOPE_STORAGE_PAGE_H_

/// \file page.h
/// On-disk page layout shared by every paged structure.
///
/// A page is kPageSize bytes. The first kPageHeaderSize bytes are a common
/// header; the payload layout beyond it belongs to the page type (today
/// only the slotted heap page). All integers little-endian.
///
///   offset  size  field
///        0     4  checksum   CRC-32 of bytes [4, kPageSize)
///        4     1  type       PageType
///        5     1  flags      (reserved, 0)
///        6     2  count      slots / entries on the page
///        8     8  lsn        LSN of the last WAL record applied to the page
///       16     8  next       heap chain link; kInvalidPageId at the tail
///       24     8  aux        type-specific (heap: free-space offset)
///
/// The checksum is stamped by DiskManager::WritePage and verified by
/// ReadPage, so a torn page — a write the power cut got halfway through —
/// surfaces as Status::Corruption instead of silently decoded garbage. The
/// LSN is what makes WAL redo idempotent: a redo record is applied only to
/// pages whose LSN is older than the record's.
///
/// Pages carry ciphertexts and structure, never keys: the MOPE trust
/// boundary (R8) extends to disk unchanged, which is the paper's point —
/// the encrypted database is exactly as safe on disk as in memory.

#include <cstdint>
#include <cstring>
#include <string_view>

namespace mope::storage {

using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = ~PageId{0};

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageHeaderSize = 32;

enum class PageType : uint8_t {
  kFree = 0,
  kHeap = 1,
};

// --- Raw field accessors over a kPageSize buffer --------------------------

inline uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

/// Typed view over one page buffer (does not own the bytes). The mutating
/// accessors do NOT touch the checksum — DiskManager stamps it on write.
class PageView {
 public:
  explicit PageView(char* data) : data_(data) {}

  char* data() { return data_; }
  const char* data() const { return data_; }
  char* payload() { return data_ + kPageHeaderSize; }
  const char* payload() const { return data_ + kPageHeaderSize; }
  static constexpr size_t payload_size() {
    return kPageSize - kPageHeaderSize;
  }

  uint32_t checksum() const { return LoadU32(data_); }
  void set_checksum(uint32_t v) { StoreU32(data_, v); }

  PageType type() const { return static_cast<PageType>(data_[4]); }
  void set_type(PageType t) { data_[4] = static_cast<char>(t); }

  uint16_t count() const { return LoadU16(data_ + 6); }
  void set_count(uint16_t v) { StoreU16(data_ + 6, v); }

  uint64_t lsn() const { return LoadU64(data_ + 8); }
  void set_lsn(uint64_t v) { StoreU64(data_ + 8, v); }

  PageId next() const { return LoadU64(data_ + 16); }
  void set_next(PageId v) { StoreU64(data_ + 16, v); }

  uint64_t aux() const { return LoadU64(data_ + 24); }
  void set_aux(uint64_t v) { StoreU64(data_ + 24, v); }

  /// Zeroes the page and initializes the header for a fresh page.
  void Format(PageType type) {
    std::memset(data_, 0, kPageSize);
    set_type(type);
    set_next(kInvalidPageId);
  }

 private:
  char* data_;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_PAGE_H_
