#include "storage/row_store.h"

namespace uolap::storage {

RowTableStorage::RowTableStorage(RowSchema schema)
    : schema_(std::move(schema)) {
  UOLAP_CHECK_MSG(schema_.tuple_bytes() > 0, "empty row schema");
  UOLAP_CHECK_MSG(schema_.tuple_bytes() + 4 <= kPageBytes,
                  "tuple larger than a page");
}

uint32_t RowTableStorage::SlotsPerPage() const {
  // Header (2B count) + 2B slot + tuple bytes per tuple.
  return (kPageBytes - 2) / (2 + schema_.tuple_bytes());
}

void RowTableStorage::Append(const void* bytes) {
  const uint32_t tuple_bytes = schema_.tuple_bytes();
  if (pages_.empty() || pages_.back().slot_count >= SlotsPerPage()) {
    Page p;
    p.bytes = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(p.bytes.get(), 0, kPageBytes);
    pages_.push_back(std::move(p));
  }
  Page& page = pages_.back();
  page.free_back -= tuple_bytes;
  std::memcpy(page.bytes.get() + page.free_back, bytes, tuple_bytes);
  // Slot directory entry: offset of the tuple within the page.
  const uint32_t slot_pos = 2 + page.slot_count * 2;
  const uint16_t off = static_cast<uint16_t>(page.free_back);
  std::memcpy(page.bytes.get() + slot_pos, &off, 2);
  ++page.slot_count;
  std::memcpy(page.bytes.get(), &page.slot_count, 2);
  ++num_tuples_;
}

uint16_t RowTableStorage::TupleOffset(const Page& page, uint32_t slot) {
  uint16_t off;
  std::memcpy(&off, page.bytes.get() + 2 + slot * 2, 2);
  return off;
}

RowRef RowTableView::TupleForScan(size_t index) const {
  UOLAP_DCHECK(index < table_.num_tuples());
  const uint32_t per_page = table_.SlotsPerPage();
  const size_t page_index = index / per_page;
  const RowTableStorage::Page& page = table_.pages_[page_index];
  const uint32_t slot = static_cast<uint32_t>(index % per_page);
  const uint64_t page_addr =
      addr_ + page_index * RowTableStorage::kPageBytes;
  // Page header (slot count), then the slot entry, then the tuple bytes.
  core_->Load(page_addr, 2);
  core_->Load(page_addr + 2 + slot * 2, 2);
  const uint16_t off = RowTableStorage::TupleOffset(page, slot);
  return {page.bytes.get() + off, page_addr + off};
}

}  // namespace uolap::storage
