#include "db/column.h"

#include <algorithm>
#include <utility>

namespace dl2sql::db {

int64_t Column::size() const {
  switch (type_) {
    case DataType::kBool:
      return static_cast<int64_t>(data_->bools.size());
    case DataType::kInt64:
      return static_cast<int64_t>(data_->ints.size());
    case DataType::kFloat64:
      return static_cast<int64_t>(data_->floats.size());
    case DataType::kString:
    case DataType::kBlob:
      return static_cast<int64_t>(data_->strings.size());
    case DataType::kNull:
      return static_cast<int64_t>(data_->validity.size());
  }
  return 0;
}

void Column::Reserve(int64_t n) {
  Detach();
  const size_t sn = static_cast<size_t>(n);
  switch (type_) {
    case DataType::kBool:
      data_->bools.reserve(sn);
      break;
    case DataType::kInt64:
      data_->ints.reserve(sn);
      break;
    case DataType::kFloat64:
      data_->floats.reserve(sn);
      break;
    case DataType::kString:
    case DataType::kBlob:
      data_->strings.reserve(sn);
      break;
    case DataType::kNull:
      break;
  }
}

void Column::EnsureValiditySized() {
  if (data_->validity.empty()) {
    data_->validity.assign(static_cast<size_t>(size()), 1);
  }
}

Status Column::Append(const Value& v) {
  Detach();
  if (v.is_null()) {
    EnsureValiditySized();
    switch (type_) {
      case DataType::kBool:
        data_->bools.push_back(0);
        break;
      case DataType::kInt64:
        data_->ints.push_back(0);
        break;
      case DataType::kFloat64:
        data_->floats.push_back(0.0);
        break;
      case DataType::kString:
      case DataType::kBlob:
        data_->strings.emplace_back();
        break;
      case DataType::kNull:
        break;
    }
    data_->validity.push_back(0);
    return Status::OK();
  }

  switch (type_) {
    case DataType::kBool:
      if (v.type() != DataType::kBool) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to bool column");
      }
      data_->bools.push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64: {
      if (v.type() != DataType::kInt64) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to int column");
      }
      data_->ints.push_back(v.int_value());
      break;
    }
    case DataType::kFloat64: {
      // Numeric coercion: ints into float columns (common for literals).
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      data_->floats.push_back(d);
      break;
    }
    case DataType::kString:
      if (v.type() != DataType::kString) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to string column");
      }
      data_->strings.push_back(v.string_value());
      break;
    case DataType::kBlob:
      if (v.type() != DataType::kBlob && v.type() != DataType::kString) {
        return Status::TypeError("append ", DataTypeToString(v.type()),
                                 " to blob column");
      }
      data_->strings.push_back(v.string_value());
      break;
    case DataType::kNull:
      return Status::TypeError("append to null-typed column");
  }
  if (!data_->validity.empty()) data_->validity.push_back(1);
  return Status::OK();
}

Status Column::Append(Value&& v) {
  if ((type_ == DataType::kString || type_ == DataType::kBlob) &&
      !v.is_null()) {
    if (v.type() != DataType::kString &&
        !(type_ == DataType::kBlob && v.type() == DataType::kBlob)) {
      return Status::TypeError("append ", DataTypeToString(v.type()), " to ",
                               DataTypeToString(type_), " column");
    }
    Detach();
    data_->strings.push_back(v.TakeString());
    if (!data_->validity.empty()) data_->validity.push_back(1);
    return Status::OK();
  }
  return Append(static_cast<const Value&>(v));
}

Value Column::GetValue(int64_t i) const {
  if (!IsValid(i)) return Value::Null();
  const size_t si = static_cast<size_t>(i);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(data_->bools[si] != 0);
    case DataType::kInt64:
      return Value::Int(data_->ints[si]);
    case DataType::kFloat64:
      return Value::Float(data_->floats[si]);
    case DataType::kString:
      return Value::String(data_->strings[si]);
    case DataType::kBlob:
      return Value::Blob(data_->strings[si]);
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

bool Column::HasNulls() const {
  return std::any_of(data_->validity.begin(), data_->validity.end(),
                     [](uint8_t v) { return v == 0; });
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  out.Reserve(static_cast<int64_t>(indices.size()));
  const bool nulls = !data_->validity.empty();
  if (nulls) out.data_->validity.reserve(indices.size());
  for (int64_t idx : indices) {
    const size_t si = static_cast<size_t>(idx);
    switch (type_) {
      case DataType::kBool:
        out.data_->bools.push_back(data_->bools[si]);
        break;
      case DataType::kInt64:
        out.data_->ints.push_back(data_->ints[si]);
        break;
      case DataType::kFloat64:
        out.data_->floats.push_back(data_->floats[si]);
        break;
      case DataType::kString:
      case DataType::kBlob:
        out.data_->strings.push_back(data_->strings[si]);
        break;
      case DataType::kNull:
        break;
    }
    if (nulls) out.data_->validity.push_back(data_->validity[si]);
  }
  return out;
}

void Column::AppendRange(const Column& src, int64_t begin, int64_t end) {
  Detach();
  const bool src_nulls = !src.data_->validity.empty();
  if (src_nulls) EnsureValiditySized();
  const bool nulls = !data_->validity.empty();
  const auto range = [&](const auto& v) {
    return std::make_pair(v.begin() + begin, v.begin() + end);
  };
  switch (type_) {
    case DataType::kBool: {
      const auto [b, e] = range(src.data_->bools);
      data_->bools.insert(data_->bools.end(), b, e);
      break;
    }
    case DataType::kInt64: {
      const auto [b, e] = range(src.data_->ints);
      data_->ints.insert(data_->ints.end(), b, e);
      break;
    }
    case DataType::kFloat64: {
      const auto [b, e] = range(src.data_->floats);
      data_->floats.insert(data_->floats.end(), b, e);
      break;
    }
    case DataType::kString:
    case DataType::kBlob: {
      const auto [b, e] = range(src.data_->strings);
      data_->strings.insert(data_->strings.end(), b, e);
      break;
    }
    case DataType::kNull:
      break;
  }
  if (src_nulls) {
    const auto [b, e] = range(src.data_->validity);
    data_->validity.insert(data_->validity.end(), b, e);
  } else if (nulls) {
    data_->validity.insert(data_->validity.end(),
                           static_cast<size_t>(end - begin), 1);
  }
}

uint64_t Column::ByteSize() const {
  uint64_t bytes = data_->validity.size();
  switch (type_) {
    case DataType::kBool:
      bytes += data_->bools.size();
      break;
    case DataType::kInt64:
      bytes += data_->ints.size() * sizeof(int64_t);
      break;
    case DataType::kFloat64:
      bytes += data_->floats.size() * sizeof(double);
      break;
    case DataType::kString:
    case DataType::kBlob:
      for (const auto& s : data_->strings) bytes += s.size() + sizeof(uint32_t);
      break;
    case DataType::kNull:
      break;
  }
  return bytes;
}

}  // namespace dl2sql::db
