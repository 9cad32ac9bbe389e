#include "db/exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "accel/thread_pool.h"
#include "db/exec/row_key.h"
#include "db/exec/vector_kernels.h"

namespace dl2sql::db {

namespace {

/// Vectorized-batch accounting for `n` hashed key rows.
void CountBatches(int64_t n, EvalContext* ctx) {
  if (!ctx->vectorized) return;
  ctx->vec_batches += (n + ctx->morsel_size - 1) / ctx->morsel_size;
  ctx->vec_rows_in += n;
  ctx->vec_rows_selected += n;
}

/// Morsel-parallel probe driver. The build side is immutable, so any number
/// of workers may probe it concurrently; each probe morsel collects its
/// pairs into its own buffer and the buffers are concatenated in morsel
/// order, which reproduces the serial pair order exactly for every thread
/// count. `per_morsel(bgn, end, out)` appends the matches of probe rows
/// [bgn, end).
template <typename PerMorsel>
Status RunProbe(int64_t n, EvalContext* ctx, int64_t max_pairs,
                HashJoinTable::Pairs* out, PerMorsel&& per_morsel) {
  auto too_many = [&] {
    return Status::ResourceExhausted("join produced more than ", max_pairs,
                                     " pairs");
  };
  const int64_t m = ctx->morsel_size;
  if (ctx->pool == nullptr || ctx->pool->num_threads() <= 1 || n <= m) {
    for (int64_t bgn = 0; bgn < n; bgn += m) {
      per_morsel(bgn, std::min(n, bgn + m), out);
      if (static_cast<int64_t>(out->size()) > max_pairs) return too_many();
    }
    return Status::OK();
  }
  std::vector<HashJoinTable::Pairs> parts(static_cast<size_t>((n + m - 1) / m));
  std::atomic<int64_t> total{static_cast<int64_t>(out->size())};
  DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(
      n, m, [&](int64_t bgn, int64_t end, int) -> Status {
        auto& part = parts[static_cast<size_t>(bgn / m)];
        per_morsel(bgn, end, &part);
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

Result<std::shared_ptr<const HashJoinTable>> HashJoinTable::Build(
    std::vector<ColumnHandle> build_keys, EvalContext* ctx) {
  std::shared_ptr<HashJoinTable> t(new HashJoinTable());
  t->build_keys_ = std::move(build_keys);
  const std::vector<const Column*> keys = ColumnPtrs(t->build_keys_);
  const int64_t bn = keys.empty() ? 0 : keys[0]->size();
  t->keys_ = KeyTable(bn);
  std::vector<uint64_t> hash(static_cast<size_t>(bn));
  vec::HashKeyRange(keys, 0, bn, hash.data());
  CountBatches(bn, ctx);
  bool nullable = false;
  for (const Column* c : keys) nullable = nullable || c->HasNulls();

  // Pass 1: key id per row (NULL keys never join and get none), counted
  // into offsets_[id + 1].
  std::vector<uint32_t> key_of(static_cast<size_t>(bn), KeyTable::kAbsent);
  std::vector<int64_t> first_row;
  const KeyEq same(keys, keys, /*null_free=*/true);
  for (int64_t r = 0; r < bn; ++r) {
    if (nullable && RowKeyHasNull(keys, r)) continue;
    bool inserted = false;
    const uint32_t id = t->keys_.FindOrInsert(
        hash[static_cast<size_t>(r)],
        [&](uint32_t k) { return same(r, first_row[k]); }, &inserted);
    if (inserted) first_row.push_back(r);
    key_of[static_cast<size_t>(r)] = id;
  }
  const size_t num_keys = first_row.size();
  t->offsets_.assign(num_keys + 1, 0);
  for (uint32_t id : key_of) {
    if (id != KeyTable::kAbsent) ++t->offsets_[id + 1];
  }
  std::partial_sum(t->offsets_.begin(), t->offsets_.end(), t->offsets_.begin());
  // Pass 2: rows in ascending order into their key's range.
  t->rows_.resize(static_cast<size_t>(t->offsets_[num_keys]));
  std::vector<int64_t> next(t->offsets_.begin(), t->offsets_.end() - 1);
  for (int64_t r = 0; r < bn; ++r) {
    const uint32_t id = key_of[static_cast<size_t>(r)];
    if (id != KeyTable::kAbsent) t->rows_[static_cast<size_t>(next[id]++)] = r;
  }
  return std::shared_ptr<const HashJoinTable>(std::move(t));
}

Result<std::shared_ptr<const HashJoinTable>> HashJoinTable::ForJoin(
    std::vector<ColumnHandle> build_keys,
    const std::vector<DataType>& probe_types,
    std::shared_ptr<const HashJoinTable> index, EvalContext* ctx) {
  bool int_keys = true;
  for (const ColumnHandle& k : build_keys) {
    int_keys = int_keys && k->type() == DataType::kInt64 && !k->HasNulls();
  }
  for (DataType pt : probe_types) int_keys = int_keys && pt == DataType::kInt64;
  if (int_keys && build_keys.size() == 1 && index != nullptr) {
    // A prebuilt base-table index over the build key (the generated
    // neural-operator joins: static kernel/mapping tables on the build
    // side) is already resident; nothing to build.
    return index;
  }
  if (int_keys || ctx->vectorized) return Build(std::move(build_keys), ctx);
  std::shared_ptr<HashJoinTable> t(new HashJoinTable());
  t->build_keys_ = std::move(build_keys);
  t->encoded_ = std::make_unique<
      std::unordered_map<std::string, std::vector<int64_t>>>();
  auto& map = *t->encoded_;
  const std::vector<const Column*> keys = ColumnPtrs(t->build_keys_);
  const int64_t bn = keys.empty() ? 0 : keys[0]->size();
  map.reserve(static_cast<size_t>(bn));
  for (int64_t r = 0; r < bn; ++r) {
    if (RowKeyHasNull(keys, r)) continue;
    std::string key = EncodeRowKey(keys, r);
    t->encoded_bytes_ += static_cast<int64_t>(key.size());
    map[std::move(key)].push_back(r);
  }
  // Estimates (bucket node + row-id vector entries), not malloc-exact.
  t->encoded_bytes_ += static_cast<int64_t>(
      map.size() * (sizeof(std::string) + sizeof(std::vector<int64_t>) + 16) +
      static_cast<size_t>(bn) * sizeof(int64_t));
  return std::shared_ptr<const HashJoinTable>(std::move(t));
}

int64_t HashJoinTable::bytes() const {
  if (encoded_ != nullptr) return encoded_bytes_;
  return keys_.bytes() +
         static_cast<int64_t>((offsets_.capacity() + rows_.capacity()) *
                              sizeof(int64_t));
}

Status HashJoinTable::Probe(const std::vector<ColumnHandle>& probe_keys,
                            EvalContext* ctx, int64_t max_pairs,
                            Pairs* out) const {
  const std::vector<const Column*> pkeys = ColumnPtrs(probe_keys);
  const int64_t n = pkeys.empty() ? 0 : pkeys[0]->size();
  if (encoded_ != nullptr) {
    return RunProbe(n, ctx, max_pairs, out,
                    [&](int64_t bgn, int64_t end, Pairs* o) {
                      for (int64_t p = bgn; p < end; ++p) {
                        if (RowKeyHasNull(pkeys, p)) continue;
                        auto it = encoded_->find(EncodeRowKey(pkeys, p));
                        if (it == encoded_->end()) continue;
                        for (int64_t b : it->second) o->emplace_back(p, b);
                      }
                    });
  }
  // Hashes are computed a morsel at a time, so they stay in cache for the
  // lookups; NULL keys never match.
  bool nullable = false;
  for (const Column* c : pkeys) nullable = nullable || c->HasNulls();
  const std::vector<const Column*> bkeys = ColumnPtrs(build_keys_);
  const KeyEq same(pkeys, bkeys, /*null_free=*/true);
  CountBatches(n, ctx);
  return RunProbe(n, ctx, max_pairs, out,
                  [&](int64_t bgn, int64_t end, Pairs* o) {
    std::vector<uint64_t> hash(static_cast<size_t>(end - bgn));
    vec::HashKeyRange(pkeys, bgn, end, hash.data());
    for (int64_t p = bgn; p < end; ++p) {
      if (nullable && RowKeyHasNull(pkeys, p)) continue;
      const uint32_t id =
          keys_.Find(hash[static_cast<size_t>(p - bgn)], [&](uint32_t k) {
            return same(p, rows_[static_cast<size_t>(offsets_[k])]);
          });
      if (id == KeyTable::kAbsent) continue;
      for (int64_t i = offsets_[id]; i < offsets_[id + 1]; ++i) {
        o->emplace_back(p, rows_[static_cast<size_t>(i)]);
      }
    }
  });
}

}  // namespace dl2sql::db
