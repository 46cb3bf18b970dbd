#ifndef UOLAP_STORAGE_ROW_STORE_H_
#define UOLAP_STORAGE_ROW_STORE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "core/core.h"

namespace uolap::storage {

/// Physical field descriptor inside a fixed-length row layout.
struct RowField {
  std::string name;
  uint32_t offset = 0;
  uint32_t size = 0;
};

/// Fixed-length tuple layout (NSM). Built once per table.
class RowSchema {
 public:
  /// Appends a field of `size` bytes; returns its index.
  int AddField(std::string name, uint32_t size) {
    RowField f;
    f.name = std::move(name);
    f.offset = tuple_bytes_;
    f.size = size;
    fields_.push_back(f);
    tuple_bytes_ += size;
    return static_cast<int>(fields_.size()) - 1;
  }

  const RowField& field(int i) const {
    return fields_[static_cast<size_t>(i)];
  }
  uint32_t tuple_bytes() const { return tuple_bytes_; }
  size_t num_fields() const { return fields_.size(); }

 private:
  std::vector<RowField> fields_;
  uint32_t tuple_bytes_ = 0;
};

/// Slotted-page row store: 8 KB pages, a small header, a slot directory of
/// tuple offsets growing from the front, tuples packed behind it. This is
/// the storage layout DBMS R (the traditional commercial row store) scans:
/// the per-tuple indirections (page header, slot, then the tuple) are what
/// give the row store its memory-access profile.
class RowTableStorage {
 public:
  static constexpr uint32_t kPageBytes = 8192;

  explicit RowTableStorage(RowSchema schema);

  /// Appends a tuple; `bytes` must hold schema().tuple_bytes() bytes.
  void Append(const void* bytes);

  size_t num_tuples() const { return num_tuples_; }
  size_t num_pages() const { return pages_.size(); }
  const RowSchema& schema() const { return schema_; }

 private:
  struct Page {
    // Raw page image: [u16 slot_count][u16 slots...][...tuples from back].
    std::unique_ptr<uint8_t[]> bytes;
    uint32_t slot_count = 0;
    uint32_t free_back = kPageBytes;  // tuples grow downwards
  };

  friend class RowTableView;

  uint32_t SlotsPerPage() const;
  /// Offset of the tuple in `slot` within `page` (from the slot entry).
  static uint16_t TupleOffset(const Page& page, uint32_t slot);

  RowSchema schema_;
  std::vector<Page> pages_;
  size_t num_tuples_ = 0;
};

/// A tuple located by a scan: its host bytes and its simulated address.
struct RowRef {
  const uint8_t* bytes;
  uint64_t addr;
};

/// One core's simulated view of a RowTableStorage. The table is long-lived
/// data: its pages sit back to back in the core's simulated address space
/// (page p at `addr + p * kPageBytes`), placed on the first view a core
/// builds and found again on later ones. Build one view per core per
/// operator, outside the per-tuple loop.
class RowTableView {
 public:
  RowTableView(const RowTableStorage& table, core::Core* core)
      : table_(table),
        core_(core),
        addr_(core->placement().Resident(
            &table, table.num_pages() * RowTableStorage::kPageBytes)) {}

  /// Simulated tuple access: walks header -> slot -> returns the tuple
  /// (fields are then read individually by the scan operator).
  RowRef TupleForScan(size_t index) const;

  /// Field decode helpers (simulated).
  int64_t ReadI64(RowRef tuple, int field) const {
    const RowField& f = Field(tuple, field, 8);
    int64_t v;
    std::memcpy(&v, tuple.bytes + f.offset, 8);
    return v;
  }
  int32_t ReadI32(RowRef tuple, int field) const {
    const RowField& f = Field(tuple, field, 4);
    int32_t v;
    std::memcpy(&v, tuple.bytes + f.offset, 4);
    return v;
  }
  int8_t ReadI8(RowRef tuple, int field) const {
    const RowField& f = Field(tuple, field, 1);
    return static_cast<int8_t>(tuple.bytes[f.offset]);
  }

 private:
  /// Charges the load of `field` (of `size` bytes) and returns it.
  const RowField& Field(RowRef tuple, int field, uint32_t size) const {
    const RowField& f = table_.schema().field(field);
    UOLAP_DCHECK(f.size == size);
    core_->Load(tuple.addr + f.offset, size);
    return f;
  }

  const RowTableStorage& table_;
  core::Core* core_;
  uint64_t addr_;
};

}  // namespace uolap::storage

#endif  // UOLAP_STORAGE_ROW_STORE_H_
