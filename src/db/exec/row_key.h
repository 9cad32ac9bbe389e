/// \file row_key.h
/// \brief Binary row-key encoding: the canonical key bytes that the grace
/// join spills, the symmetric hash join keys on, and the row-path join
/// reference (DL2SQL_VECTOR=OFF) maps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/column.h"

namespace dl2sql::db {

/// Appends a collision-free encoding of column[row] to `out`.
/// Layout: 1 type byte, then a fixed- or length-prefixed payload. NULL is
/// encoded as its own type byte so NULL keys group together in GROUP BY.
inline void AppendKeyPart(const Column& col, int64_t row, std::string* out) {
  if (!col.IsValid(row)) {
    out->push_back('\x00');
    return;
  }
  const size_t i = static_cast<size_t>(row);
  switch (col.type()) {
    case DataType::kBool: {
      out->push_back('\x01');
      out->push_back(col.bools()[i] != 0 ? '\x01' : '\x00');
      return;
    }
    case DataType::kInt64: {
      out->push_back('\x02');
      const int64_t v = col.ints()[i];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kFloat64: {
      // Integral floats are encoded as ints so joins across INT64/FLOAT64
      // key columns (common in generated SQL) match.
      const double v = col.floats()[i];
      const int64_t as_int = static_cast<int64_t>(v);
      if (static_cast<double>(as_int) == v) {
        out->push_back('\x02');
        out->append(reinterpret_cast<const char*>(&as_int), sizeof(as_int));
        return;
      }
      out->push_back('\x03');
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kString:
    case DataType::kBlob: {
      out->push_back('\x04');
      const std::string& s = col.strings()[i];
      const uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      return;
    }
    case DataType::kNull:
      out->push_back('\x00');
      return;
  }
}

/// Encodes one row's key across several columns.
inline std::string EncodeRowKey(const std::vector<const Column*>& cols,
                                int64_t row) {
  std::string key;
  for (const Column* c : cols) AppendKeyPart(*c, row, &key);
  return key;
}

/// True if any key column is NULL at `row` (NULL keys never join).
inline bool RowKeyHasNull(const std::vector<const Column*>& cols, int64_t row) {
  for (const Column* c : cols) {
    if (!c->IsValid(row)) return true;
  }
  return false;
}

}  // namespace dl2sql::db
