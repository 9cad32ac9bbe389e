#include "db/exec/key_table.h"

namespace dl2sql::db {

void KeyTable::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    uint64_t pos = hashes_[id] & mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & mask_;
    slots_[pos] = Slot(hashes_[id], id);
  }
}

KeyEq::KeyEq(const std::vector<const Column*>& a,
             const std::vector<const Column*>& b, bool null_free)
    : a_(&a), b_(&b) {
  bool ints = null_free && (a.size() == 1 || a.size() == 2);
  for (size_t c = 0; c < a.size(); ++c) {
    ints = ints && a[c]->type() == DataType::kInt64 &&
           b[c]->type() == DataType::kInt64;
  }
  if (!ints) return;
  ints_ = a.size();
  a0_ = a[0]->ints().data();
  b0_ = b[0]->ints().data();
  if (ints_ == 2) {
    a1_ = a[1]->ints().data();
    b1_ = b[1]->ints().data();
  }
}

}  // namespace dl2sql::db
