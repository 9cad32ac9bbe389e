#include "db/exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>

#include "accel/thread_pool.h"
#include "db/exec/row_key.h"
#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

struct HashJoinTable::Maps {
  std::unordered_map<int64_t, std::vector<int64_t>> int1;
  std::unordered_map<Int2Key, std::vector<int64_t>, Int2KeyHash> int2;
  /// Canonical key hash -> build rows; candidates are verified exactly.
  std::unordered_map<uint64_t, std::vector<int64_t>> hashed;
  std::unordered_map<std::string, std::vector<int64_t>> encoded;
};

namespace {

/// Null flags and canonical key hashes of rows [0, n), a morsel at a time.
/// Per-row output slots are disjoint, so any wired pool can run the loop (it
/// degrades to inline execution for single-threaded pools and single-morsel
/// inputs), keeping pool accounting and trace spans identical to the row
/// path.
Status HashKeys(const std::vector<const Column*>& keys, int64_t n,
                EvalContext* ctx, uint64_t* hash, uint8_t* null_flags) {
  const int64_t m = ctx->morsel_size;
  auto body = [&](int64_t bgn, int64_t end, int) -> Status {
    vec::KeyNullRange(keys, bgn, end, null_flags + bgn);
    vec::HashKeyRange(keys, bgn, end, hash + bgn);
    return Status::OK();
  };
  if (ctx->pool != nullptr) {
    DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(n, m, body));
  } else {
    for (int64_t b = 0; b < n; b += m) {
      DL2SQL_RETURN_NOT_OK(body(b, std::min(n, b + m), 0));
    }
  }
  ctx->vec_batches += n == 0 ? 0 : (n + m - 1) / m;
  ctx->vec_rows_in += n;
  ctx->vec_rows_selected += n;
  return Status::OK();
}

/// Morsel-parallel probe driver. The build side is immutable, so any number
/// of workers may probe it concurrently; each probe morsel collects its
/// pairs into its own buffer and the buffers are concatenated in morsel
/// order, which reproduces the serial pair order exactly for every thread
/// count. `per_row(p, out)` appends the matches of probe row p.
template <typename PerRow>
Status RunProbe(int64_t n, EvalContext* ctx, int64_t max_pairs,
                HashJoinTable::Pairs* out, PerRow&& per_row) {
  auto too_many = [&] {
    return Status::ResourceExhausted("join produced more than ", max_pairs,
                                     " pairs");
  };
  const int64_t m = ctx->morsel_size;
  if (ctx->pool == nullptr || ctx->pool->num_threads() <= 1 || n <= m) {
    for (int64_t p = 0; p < n; ++p) {
      per_row(p, out);
      if (static_cast<int64_t>(out->size()) > max_pairs) return too_many();
    }
    return Status::OK();
  }
  std::vector<HashJoinTable::Pairs> parts(static_cast<size_t>((n + m - 1) / m));
  std::atomic<int64_t> total{static_cast<int64_t>(out->size())};
  DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(
      n, m, [&](int64_t bgn, int64_t end, int) -> Status {
        auto& part = parts[static_cast<size_t>(bgn / m)];
        for (int64_t p = bgn; p < end; ++p) per_row(p, &part);
        const int64_t sz = static_cast<int64_t>(part.size());
        if (total.fetch_add(sz) + sz > max_pairs) return too_many();
        return Status::OK();
      }));
  out->reserve(static_cast<size_t>(total.load()));
  for (const auto& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
  return Status::OK();
}

}  // namespace

HashJoinTable::HashJoinTable() = default;
HashJoinTable::~HashJoinTable() = default;

Result<std::unique_ptr<HashJoinTable>> HashJoinTable::Build(
    std::vector<ColumnHandle> build_keys,
    const std::vector<DataType>& probe_types, std::shared_ptr<HashIndex> index,
    EvalContext* ctx) {
  std::unique_ptr<HashJoinTable> t(new HashJoinTable());
  t->build_keys_ = std::move(build_keys);
  t->maps_ = std::make_unique<Maps>();
  Maps& maps = *t->maps_;
  const std::vector<const Column*> keys = ColumnPtrs(t->build_keys_);
  const int64_t bn = keys.empty() ? 0 : keys[0]->size();

  // The integer representations need NULL-free int64 build keys and int64
  // probe keys; NULL probe keys are skipped per row at probe time.
  bool int_keys = true;
  for (const Column* k : keys) {
    int_keys = int_keys && k->type() == DataType::kInt64 && !k->HasNulls();
  }
  for (DataType pt : probe_types) int_keys = int_keys && pt == DataType::kInt64;

  // Estimates (bucket node + row-id vector entries), not malloc-exact: the
  // accounting answers "which operator holds the memory".
  auto map_bytes = [bn](size_t buckets, size_t key_bytes) {
    return static_cast<int64_t>(
        buckets * (key_bytes + sizeof(std::vector<int64_t>) + 16) +
        static_cast<size_t>(bn) * sizeof(int64_t));
  };
  if (int_keys && keys.size() == 1 && index != nullptr) {
    // A prebuilt base-table index over the build key (the generated
    // neural-operator joins: static kernel/mapping tables on the build
    // side) is already resident; nothing to build or charge.
    t->kind_ = Kind::kIndex;
    t->index_ = std::move(index);
  } else if (int_keys && keys.size() == 1) {
    t->kind_ = Kind::kInt1;
    const auto& vals = keys[0]->ints();
    maps.int1.reserve(vals.size());
    for (size_t r = 0; r < vals.size(); ++r) {
      maps.int1[vals[r]].push_back(static_cast<int64_t>(r));
    }
    t->bytes_ = map_bytes(maps.int1.size(), sizeof(int64_t));
  } else if (int_keys && keys.size() == 2) {
    t->kind_ = Kind::kInt2;
    const auto& k0 = keys[0]->ints();
    const auto& k1 = keys[1]->ints();
    maps.int2.reserve(k0.size());
    for (size_t r = 0; r < k0.size(); ++r) {
      maps.int2[{k0[r], k1[r]}].push_back(static_cast<int64_t>(r));
    }
    t->bytes_ = map_bytes(maps.int2.size(), sizeof(Int2Key));
  } else if (ctx->vectorized) {
    // Batched canonical key hashes instead of per-row EncodeRowKey string
    // allocations. Buckets hold build rows in row order and probes verify
    // candidates with exact canonical-key equality.
    t->kind_ = Kind::kHashed;
    std::vector<uint64_t> hash(static_cast<size_t>(bn));
    std::vector<uint8_t> nulls(static_cast<size_t>(bn));
    DL2SQL_RETURN_NOT_OK(HashKeys(keys, bn, ctx, hash.data(), nulls.data()));
    maps.hashed.reserve(static_cast<size_t>(bn));
    for (int64_t r = 0; r < bn; ++r) {
      if (nulls[static_cast<size_t>(r)] != 0) continue;
      maps.hashed[hash[static_cast<size_t>(r)]].push_back(r);
    }
    t->bytes_ = map_bytes(maps.hashed.size(), sizeof(uint64_t));
  } else {
    t->kind_ = Kind::kEncoded;
    maps.encoded.reserve(static_cast<size_t>(bn));
    int64_t key_bytes = 0;
    for (int64_t r = 0; r < bn; ++r) {
      if (RowKeyHasNull(keys, r)) continue;
      std::string key = EncodeRowKey(keys, r);
      key_bytes += static_cast<int64_t>(key.size());
      maps.encoded[std::move(key)].push_back(r);
    }
    t->bytes_ = key_bytes + map_bytes(maps.encoded.size(), sizeof(std::string));
  }
  return t;
}

Status HashJoinTable::Probe(const std::vector<ColumnHandle>& probe_keys,
                            EvalContext* ctx, int64_t max_pairs,
                            Pairs* out) const {
  const std::vector<const Column*> pkeys = ColumnPtrs(probe_keys);
  const int64_t n = pkeys.empty() ? 0 : pkeys[0]->size();
  const Maps& maps = *maps_;
  switch (kind_) {
    case Kind::kIndex:
    case Kind::kInt1:
    case Kind::kInt2: {
      bool nulls = false;
      for (const Column* c : pkeys) {
        // An all-NULL window evaluates to a kNull column: nothing matches.
        if (c->type() == DataType::kNull) return Status::OK();
        if (c->type() != DataType::kInt64) {
          return Status::InternalError(
              "join probe key type differs between probe windows");
        }
        nulls = nulls || c->HasNulls();
      }
      const int64_t* p0 = pkeys[0]->ints().data();
      if (kind_ == Kind::kInt2) {
        const int64_t* p1 = pkeys[1]->ints().data();
        return RunProbe(n, ctx, max_pairs, out, [&](int64_t p, Pairs* o) {
          if (nulls && RowKeyHasNull(pkeys, p)) return;
          auto it = maps.int2.find({p0[p], p1[p]});
          if (it == maps.int2.end()) return;
          for (int64_t b : it->second) o->emplace_back(p, b);
        });
      }
      return RunProbe(n, ctx, max_pairs, out, [&](int64_t p, Pairs* o) {
        if (nulls && !pkeys[0]->IsValid(p)) return;
        const std::vector<int64_t>* rows;
        if (kind_ == Kind::kIndex) {
          rows = index_->Lookup(p0[p]);
        } else {
          auto it = maps.int1.find(p0[p]);
          rows = it == maps.int1.end() ? nullptr : &it->second;
        }
        if (rows == nullptr) return;
        for (int64_t b : *rows) o->emplace_back(p, b);
      });
    }
    case Kind::kHashed: {
      std::vector<uint64_t> hash(static_cast<size_t>(n));
      std::vector<uint8_t> nulls(static_cast<size_t>(n));
      DL2SQL_RETURN_NOT_OK(HashKeys(pkeys, n, ctx, hash.data(), nulls.data()));
      const std::vector<const Column*> bkeys = ColumnPtrs(build_keys_);
      return RunProbe(n, ctx, max_pairs, out, [&](int64_t p, Pairs* o) {
        if (nulls[static_cast<size_t>(p)] != 0) return;
        auto it = maps.hashed.find(hash[static_cast<size_t>(p)]);
        if (it == maps.hashed.end()) return;
        for (int64_t b : it->second) {
          if (vec::CanonicalKeyRowsEqual(pkeys, p, bkeys, b)) {
            o->emplace_back(p, b);
          }
        }
      });
    }
    case Kind::kEncoded:
      return RunProbe(n, ctx, max_pairs, out, [&](int64_t p, Pairs* o) {
        if (RowKeyHasNull(pkeys, p)) return;
        auto it = maps.encoded.find(EncodeRowKey(pkeys, p));
        if (it == maps.encoded.end()) return;
        for (int64_t b : it->second) o->emplace_back(p, b);
      });
  }
  return Status::OK();
}

}  // namespace dl2sql::db
