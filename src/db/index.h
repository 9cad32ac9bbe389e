/// \file index.h
/// \brief Hash indexes over base-table integer columns.
///
/// Section IV-A of the paper: "To speed up the join processing, we build
/// indices on columns MatrixID, OrderID, and KernelID. The processing of
/// join is performed by scanning the feature map table and probing the
/// kernel tables." A HashIndex is exactly that probe structure: the hash
/// join's own table, built once per (table, column) by Catalog::CreateIndex
/// and reused by every hash join whose build side is an unfiltered scan of
/// the indexed table — which is precisely the shape of the generated
/// neural-operator joins (static kernel/mapping tables on the build side,
/// per-query feature tables probing).
#pragma once

#include "db/exec/hash_join.h"

namespace dl2sql::db {

/// \brief Immutable hash index over one INT64 column of a table snapshot.
using HashIndex = HashJoinTable;

}  // namespace dl2sql::db
